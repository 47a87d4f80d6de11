"""Direct unit tests for expression evaluation (bypassing SQL text)."""

import numpy as np
import pytest

from repro.engine.batch import RecordBatch
from repro.engine.expressions import (
    Between,
    BinaryOp,
    CaseExpr,
    CastExpr,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    UnaryOp,
    contains_aggregate,
    evaluate,
    expression_name,
    infer_type,
)
from repro.engine.functions import AGGREGATE_NAMES, FunctionRegistry
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, VARCHAR
from repro.errors import TypeMismatchError

REGISTRY = FunctionRegistry()

SCHEMA = Schema(
    [
        ColumnDef("i", INTEGER),
        ColumnDef("f", FLOAT),
        ColumnDef("s", VARCHAR),
        ColumnDef("b", BOOLEAN),
    ]
)
BATCH = RecordBatch.from_rows(
    SCHEMA,
    [
        (1, 1.5, "apple", True),
        (None, -2.0, "banana", False),
        (3, None, None, None),
    ],
)


def run(expr):
    return evaluate(expr, BATCH, REGISTRY).to_list()


class TestArithmetic:
    def test_addition_propagates_null(self):
        assert run(BinaryOp("+", ColumnRef("i"), Literal(1))) == [2, None, 4]

    def test_mixed_int_float_widens(self):
        out = run(BinaryOp("*", ColumnRef("i"), ColumnRef("f")))
        assert out == [1.5, None, None]
        assert infer_type(
            BinaryOp("*", ColumnRef("i"), ColumnRef("f")), SCHEMA, REGISTRY
        ) is FLOAT

    def test_unary_minus(self):
        assert run(UnaryOp("-", ColumnRef("f"))) == [-1.5, 2.0, None]

    def test_modulo_by_zero_null(self):
        assert run(BinaryOp("%", ColumnRef("i"), Literal(0))) == [None, None, None]

    def test_string_arithmetic_rejected(self):
        with pytest.raises(TypeMismatchError):
            run(BinaryOp("+", ColumnRef("s"), Literal(1)))


class TestComparisons:
    def test_integer_comparison(self):
        assert run(BinaryOp(">=", ColumnRef("i"), Literal(3))) == [False, None, True]

    def test_string_comparison(self):
        assert run(BinaryOp("<", ColumnRef("s"), Literal("b"))) == [True, False, None]

    def test_boolean_comparison(self):
        assert run(BinaryOp("=", ColumnRef("b"), Literal(True))) == [True, False, None]

    def test_cross_type_comparison_rejected(self):
        with pytest.raises(TypeMismatchError):
            run(BinaryOp("=", ColumnRef("s"), Literal(1)))


class TestPredicates:
    def test_between_inclusive(self):
        assert run(Between(ColumnRef("i"), Literal(1), Literal(3))) == [True, None, True]

    def test_not_between(self):
        out = run(Between(ColumnRef("i"), Literal(2), Literal(9), negated=True))
        assert out == [True, None, False]

    def test_in_list_with_null_operand(self):
        assert run(InList(ColumnRef("i"), (Literal(1), Literal(2)))) == [True, None, False]

    def test_in_list_null_item_semantics(self):
        # 3 IN (1, NULL) is NULL, not FALSE.
        out = run(InList(ColumnRef("i"), (Literal(1), Literal(None))))
        assert out == [True, None, None]

    def test_is_null_and_negation(self):
        assert run(IsNull(ColumnRef("i"))) == [False, True, False]
        assert run(IsNull(ColumnRef("i"), negated=True)) == [True, False, True]

    def test_like_wildcards(self):
        assert run(LikeExpr(ColumnRef("s"), Literal("%an%"))) == [False, True, None]
        assert run(LikeExpr(ColumnRef("s"), Literal("a___e"))) == [True, False, None]

    def test_like_escapes_regex_chars(self):
        batch = RecordBatch.from_rows(
            Schema([ColumnDef("s", VARCHAR)]), [("a.c",), ("abc",)]
        )
        out = evaluate(
            LikeExpr(ColumnRef("s"), Literal("a.c")), batch, REGISTRY
        ).to_list()
        assert out == [True, False]  # '.' is literal, not regex

    def test_not_like(self):
        assert run(LikeExpr(ColumnRef("s"), Literal("a%"), negated=True)) == [
            False, True, None,
        ]


class TestCase:
    def test_simple_case_with_operand(self):
        expr = CaseExpr(
            whens=((Literal(1), Literal("one")), (Literal(3), Literal("three"))),
            default=Literal("other"),
            operand=ColumnRef("i"),
        )
        assert run(expr) == ["one", "other", "three"]

    def test_case_without_else_yields_null(self):
        expr = CaseExpr(whens=((BinaryOp(">", ColumnRef("i"), Literal(2)), Literal(1)),))
        assert run(expr) == [None, None, 1]

    def test_branch_type_unification(self):
        expr = CaseExpr(
            whens=((BinaryOp("=", ColumnRef("i"), Literal(1)), Literal(1)),),
            default=Literal(2.5),
        )
        assert infer_type(expr, SCHEMA, REGISTRY) is FLOAT
        # NULL condition is not-matched, so the ELSE branch applies (SQL).
        assert run(expr) == [1.0, 2.5, 2.5]

    def test_first_matching_when_wins(self):
        expr = CaseExpr(
            whens=(
                (BinaryOp(">", ColumnRef("i"), Literal(0)), Literal("pos")),
                (BinaryOp(">", ColumnRef("i"), Literal(2)), Literal("big")),
            ),
            default=Literal("none"),
        )
        assert run(expr) == ["pos", "none", "pos"]


class TestCast:
    def test_cast_float_to_varchar(self):
        out = run(CastExpr(ColumnRef("i"), "varchar"))
        assert out == ["1", None, "3"]

    def test_cast_preserves_nulls(self):
        assert run(CastExpr(ColumnRef("f"), "integer")) == [1, -2, None]

    @pytest.mark.parametrize("dtype", [INTEGER, FLOAT, VARCHAR, BOOLEAN])
    def test_cast_of_null_is_a_typed_null(self, dtype):
        out = evaluate(CastExpr(Literal(None), dtype.name), BATCH, REGISTRY)
        assert out.dtype is dtype and out.to_list() == [None, None, None]


class TestHelpers:
    def test_expression_name(self):
        assert expression_name(ColumnRef("x")) == "x"
        assert expression_name(FunctionCall("SUM", (ColumnRef("x"),))) == "sum"
        assert expression_name(Literal(5)) == "expr"
        assert expression_name(CastExpr(ColumnRef("y"), "float")) == "y"

    def test_contains_aggregate(self):
        agg = FunctionCall("SUM", (ColumnRef("i"),))
        wrapped = BinaryOp("+", agg, Literal(1))
        assert contains_aggregate(wrapped, AGGREGATE_NAMES)
        assert not contains_aggregate(ColumnRef("i"), AGGREGATE_NAMES)

    def test_nodes_are_hashable_and_comparable(self):
        a = BinaryOp("+", ColumnRef("i"), Literal(1))
        b = BinaryOp("+", ColumnRef("i"), Literal(1))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
