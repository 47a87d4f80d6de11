"""Tests for built-in scalar functions and scalar UDFs."""

import pytest

from repro.engine import Database
from repro.engine.column import Column
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, VARCHAR
from repro.errors import TypeMismatchError, UdfError


class TestNumericBuiltins:
    def test_abs_sign(self, db):
        assert db.execute("SELECT ABS(-3)").scalar() == 3
        assert db.execute("SELECT SIGN(-2.5)").scalar() == -1

    def test_sqrt_power_exp_ln(self, db):
        assert db.execute("SELECT SQRT(9.0)").scalar() == 3.0
        assert db.execute("SELECT POWER(2, 10)").scalar() == 1024.0
        assert db.execute("SELECT EXP(0.0)").scalar() == 1.0
        assert db.execute("SELECT LN(1.0)").scalar() == 0.0
        assert db.execute("SELECT LOG(100.0)").scalar() == pytest.approx(2.0)

    def test_floor_ceil_round(self, db):
        assert db.execute("SELECT FLOOR(2.7)").scalar() == 2
        assert db.execute("SELECT CEIL(2.1)").scalar() == 3
        assert db.execute("SELECT ROUND(2.567, 2)").scalar() == pytest.approx(2.57)
        assert db.execute("SELECT ROUND(2.5)").scalar() == 2.0  # banker's rounding

    def test_mod(self, db):
        assert db.execute("SELECT MOD(10, 3)").scalar() == 1
        assert db.execute("SELECT MOD(10, 0)").scalar() is None

    def test_mod_takes_the_dividends_sign(self, db):
        # SQL's remainder truncates, as C's does: -7 = -1 * 4 + (-3).
        assert db.execute("SELECT MOD(-7, 4), MOD(7, -4), MOD(-7, -4)").rows() == [
            (-3, 3, -3)
        ]
        assert db.execute("SELECT MOD(-9223372036854775807 - 1, -1)").scalar() == 0
        assert db.execute("SELECT MOD(-7, 0)").scalar() is None

    def test_least_greatest(self, db):
        assert db.execute("SELECT LEAST(3, 1, 2)").scalar() == 1
        assert db.execute("SELECT GREATEST(3, 1, 2)").scalar() == 3
        assert db.execute("SELECT LEAST(1, 2.5)").scalar() == 1.0

    def test_null_propagation(self, db):
        assert db.execute("SELECT ABS(NULL + 1)").scalar() is None


class TestStringBuiltins:
    def test_length_case(self, db):
        assert db.execute("SELECT LENGTH('hello')").scalar() == 5
        assert db.execute("SELECT UPPER('abc')").scalar() == "ABC"
        assert db.execute("SELECT LOWER('ABC')").scalar() == "abc"
        assert db.execute("SELECT TRIM('  x  ')").scalar() == "x"

    def test_substr_is_one_based(self, db):
        assert db.execute("SELECT SUBSTR('vertexica', 1, 6)").scalar() == "vertex"
        assert db.execute("SELECT SUBSTR('vertexica', 7)").scalar() == "ica"

    def test_concat_and_replace(self, db):
        assert db.execute("SELECT CONCAT('a', 'b', 'c')").scalar() == "abc"
        assert db.execute("SELECT REPLACE('aaa', 'a', 'b')").scalar() == "bbb"

    def test_type_errors(self, db):
        with pytest.raises(TypeMismatchError):
            db.execute("SELECT LENGTH(5)")


class TestNullHandling:
    def test_coalesce(self, db):
        assert db.execute("SELECT COALESCE(NULL, NULL, 7)").scalar() == 7
        assert db.execute("SELECT COALESCE(NULL, 'x')").scalar() == "x"

    def test_coalesce_widens(self, db):
        assert db.execute("SELECT COALESCE(NULL, 1, 2.5)").scalar() == 1.0

    def test_nullif(self, db):
        assert db.execute("SELECT NULLIF(3, 3)").scalar() is None
        assert db.execute("SELECT NULLIF(3, 4)").scalar() == 3


class TestScalarUdfs:
    def test_rowwise_udf(self, db):
        db.register_function("plus_one", lambda x: x + 1, [INTEGER], INTEGER)
        assert db.execute("SELECT PLUS_ONE(41)").scalar() == 42

    def test_udf_strict_null_handling(self, db):
        db.register_function("double_it", lambda x: x * 2, [FLOAT], FLOAT)
        assert db.execute("SELECT DOUBLE_IT(NULL + 1.0)").scalar() is None

    def test_udf_non_strict(self, db):
        db.register_function(
            "or_zero", lambda x: 0 if x is None else x, [INTEGER], INTEGER, strict=False
        )
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (NULL), (5)")
        assert db.execute("SELECT SUM(OR_ZERO(x)) FROM t").scalar() == 5

    def test_udf_arity_checked(self, db):
        db.register_function("f", lambda x: x, [INTEGER], INTEGER)
        with pytest.raises(UdfError, match="expects 1 arguments"):
            db.execute("SELECT F(1, 2)")

    def test_udf_arg_type_checked(self, db):
        db.register_function("f", lambda x: x, [INTEGER], INTEGER)
        with pytest.raises(UdfError, match="does not match"):
            db.execute("SELECT F('text')")

    def test_udf_int_widens_to_float_arg(self, db):
        db.register_function("half", lambda x: x / 2, [FLOAT], FLOAT)
        assert db.execute("SELECT HALF(5)").scalar() == 2.5

    def test_udf_cannot_shadow_builtin(self, db):
        with pytest.raises(UdfError, match="shadow"):
            db.register_function("abs", lambda x: x, [INTEGER], INTEGER)
        with pytest.raises(UdfError, match="shadow"):
            db.register_function("sum", lambda x: x, [INTEGER], INTEGER)

    def test_udf_exception_wrapped(self, db):
        db.register_function("bad", lambda x: 1 / 0, [INTEGER], FLOAT)
        with pytest.raises(UdfError, match="failed on row"):
            db.execute("SELECT BAD(1)")

    def test_vectorized_udf(self, db):
        def vec_double(col: Column) -> Column:
            return Column(FLOAT, col.values * 2, col.valid.copy())

        db.register_function(
            "vdouble", vec_double, [FLOAT], FLOAT, vectorized=True
        )
        db.execute("CREATE TABLE t (x FLOAT)")
        db.execute("INSERT INTO t VALUES (1.5), (2.5)")
        assert db.execute("SELECT SUM(VDOUBLE(x)) FROM t").scalar() == 8.0

    def test_vectorized_udf_bad_return_type(self, db):
        db.register_function(
            "vbad",
            lambda col: Column(INTEGER, col.values.astype("int64"), col.valid.copy()),
            [FLOAT],
            FLOAT,
            vectorized=True,
        )
        with pytest.raises(UdfError, match="returned"):
            db.execute("SELECT VBAD(1.0)")

    def test_unknown_function(self, db):
        with pytest.raises(TypeMismatchError, match="unknown function"):
            db.execute("SELECT NO_SUCH_FN(1)")

    def test_udf_in_where_clause(self, sample_table):
        sample_table.register_function(
            "is_senior", lambda age: age > 30, [INTEGER], BOOLEAN
        )
        rows = sample_table.execute(
            "SELECT name FROM people WHERE IS_SENIOR(age) ORDER BY name"
        ).rows()
        assert rows == [("alice",), ("carol",)]
