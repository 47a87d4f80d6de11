"""Function registry: built-in scalars, aggregate signatures, scalar UDFs.

The registry answers two questions for the planner/executor:

* what is the result type of ``f(args...)`` given argument types?
* given argument :class:`~repro.engine.column.Column` values, what does the
  call evaluate to?

Aggregates are *declared* here (names + result-type rules) but *computed*
inside the Aggregate physical operator, which sees whole groups.  Scalar
UDFs registered by users run row-wise by default; built-ins are vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.column import Column
from repro.engine.schema import Schema
from repro.engine.types import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    VARCHAR,
    DataType,
    coerce_python_value,
    common_type,
)
from repro.errors import TypeMismatchError, UdfError


__all__ = ["FunctionRegistry", "ScalarUdf", "AGGREGATE_NAMES"]

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV"})


def sql_remainder(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(left % right, right == 0)`` with SQL's truncated remainder: the
    result takes the dividend's sign (``-7 % 4 = -3``), as in Vertica,
    PostgreSQL and SQLite, not Python's floored one.  Where the divisor
    is zero the value is a filler (the caller masks it NULL); an integer
    divisor of -1 divides as 1, so ``INT64_MIN % -1`` is 0 instead of an
    overflow."""
    zero = right == 0
    if right.dtype.kind in "iu":
        safe = np.where(zero | (right == -1), 1, right)
    else:
        safe = np.where(zero, 1, right)
    return np.fmod(left, safe), zero


@dataclass(frozen=True)
class ScalarUdf:
    """A user scalar function.

    Attributes:
        name: SQL-visible name (case-insensitive).
        fn: the Python callable.  Row-wise UDFs receive one Python value per
            argument (``None`` for NULL) and return one value; vectorized
            UDFs receive the argument ``Column`` objects and return a
            ``Column``.
        arg_types: declared argument types (arity is enforced).
        return_type: declared result type.
        vectorized: whether ``fn`` is vectorized.
        strict: row-wise only — if True (default) the function is skipped
            for rows with any NULL argument and returns NULL, like most SQL
            engines' RETURNS NULL ON NULL INPUT.
    """

    name: str
    fn: Callable[..., Any]
    arg_types: tuple[DataType, ...]
    return_type: DataType
    vectorized: bool = False
    strict: bool = True


@dataclass(frozen=True)
class _Builtin:
    name: str
    infer: Callable[[tuple[DataType, ...]], DataType]
    evaluate: Callable[[Sequence[Column]], Column]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise TypeMismatchError(message)


def _numeric_unary(name: str, np_fn: Callable[[np.ndarray], np.ndarray],
                   result: DataType | None = None) -> _Builtin:
    """A one-argument numeric builtin evaluated directly on the values
    array (NULL positions keep their filler, masked by validity)."""

    def infer(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) == 1 and args[0].is_numeric, f"{name} expects one numeric argument")
        return result or args[0]

    def evaluate(cols: Sequence[Column]) -> Column:
        col = cols[0]
        target = result or col.dtype
        values = np_fn(col.values.astype(np.float64))
        if target is INTEGER:
            values = values.astype(np.int64)
        return Column(target, values.astype(target.numpy_dtype), col.valid.copy())

    return _Builtin(name, infer, evaluate)


def _string_unary(name: str, fn: Callable[[str], Any], result: DataType) -> _Builtin:
    def infer(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) == 1 and args[0] is VARCHAR, f"{name} expects one VARCHAR argument")
        return result

    def evaluate(cols: Sequence[Column]) -> Column:
        col = cols[0]
        if result is VARCHAR:
            out: np.ndarray = np.empty(len(col), dtype=object)
            out[:] = ""
        else:
            out = np.zeros(len(col), dtype=result.numpy_dtype)
        for i, (item, ok) in enumerate(zip(col.values, col.valid)):
            if ok:
                out[i] = fn(item)
        return Column(result, out, col.valid.copy())

    return _Builtin(name, infer, evaluate)


def _variadic_extremum(name: str, np_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> _Builtin:
    def infer(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) >= 2, f"{name} expects at least two arguments")
        out = args[0]
        for arg in args[1:]:
            out = common_type(out, arg)
        _require(out.is_numeric, f"{name} expects numeric arguments")
        return out

    def evaluate(cols: Sequence[Column]) -> Column:
        target = cols[0].dtype
        for col in cols[1:]:
            target = common_type(target, col.dtype)
        acc = cols[0].values.astype(target.numpy_dtype)
        valid = cols[0].valid.copy()
        for col in cols[1:]:
            acc = np_fn(acc, col.values.astype(target.numpy_dtype))
            valid &= col.valid
        return Column(target, acc, valid)

    return _Builtin(name, infer, evaluate)


def _make_builtins() -> dict[str, _Builtin]:
    builtins: dict[str, _Builtin] = {}

    def add(builtin: _Builtin) -> None:
        builtins[builtin.name] = builtin

    add(_numeric_unary("ABS", np.abs))
    add(_numeric_unary("SQRT", lambda v: np.sqrt(np.maximum(v, 0.0)), FLOAT))
    add(_numeric_unary("EXP", np.exp, FLOAT))
    add(_numeric_unary("LN", lambda v: np.log(np.where(v > 0, v, 1.0)), FLOAT))
    add(_numeric_unary("LOG", lambda v: np.log10(np.where(v > 0, v, 1.0)), FLOAT))
    add(_numeric_unary("FLOOR", np.floor, INTEGER))
    add(_numeric_unary("CEIL", np.ceil, INTEGER))
    add(_numeric_unary("CEILING", np.ceil, INTEGER))
    add(_numeric_unary("SIGN", np.sign, INTEGER))

    def infer_round(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) in (1, 2) and args[0].is_numeric, "ROUND expects ROUND(x [, digits])")
        if len(args) == 2:
            _require(args[1] is INTEGER, "ROUND digits must be INTEGER")
        return FLOAT

    def eval_round(cols: Sequence[Column]) -> Column:
        values = cols[0].values.astype(np.float64)
        valid = cols[0].valid.copy()
        if len(cols) == 2:
            digits = cols[1].values
            valid &= cols[1].valid
            out = np.array(
                [np.round(v, int(d)) for v, d in zip(values, digits)], dtype=np.float64
            )
        else:
            out = np.round(values)
        return Column(FLOAT, out, valid)

    add(_Builtin("ROUND", infer_round, eval_round))

    def infer_power(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) == 2 and all(a.is_numeric for a in args), "POWER expects two numeric arguments")
        return FLOAT

    def eval_power(cols: Sequence[Column]) -> Column:
        base = cols[0].values.astype(np.float64)
        exp = cols[1].values.astype(np.float64)
        return Column(FLOAT, np.power(base, exp), cols[0].valid & cols[1].valid)

    add(_Builtin("POWER", infer_power, eval_power))
    add(_Builtin("POW", infer_power, eval_power))

    def infer_mod(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) == 2 and all(a is INTEGER for a in args), "MOD expects two INTEGER arguments")
        return INTEGER

    def eval_mod(cols: Sequence[Column]) -> Column:
        values, zero = sql_remainder(cols[0].values, cols[1].values)
        return Column(INTEGER, values, cols[0].valid & cols[1].valid & ~zero)

    add(_Builtin("MOD", infer_mod, eval_mod))

    add(_string_unary("LENGTH", len, INTEGER))
    add(_string_unary("LOWER", str.lower, VARCHAR))
    add(_string_unary("UPPER", str.upper, VARCHAR))
    add(_string_unary("TRIM", str.strip, VARCHAR))

    def infer_substr(args: tuple[DataType, ...]) -> DataType:
        _require(
            len(args) in (2, 3) and args[0] is VARCHAR and all(a is INTEGER for a in args[1:]),
            "SUBSTR expects (VARCHAR, INTEGER [, INTEGER])",
        )
        return VARCHAR

    def eval_substr(cols: Sequence[Column]) -> Column:
        text = cols[0]
        start = cols[1]
        length = cols[2] if len(cols) == 3 else None
        valid = text.valid & start.valid
        if length is not None:
            valid = valid & length.valid
        out = np.empty(len(text), dtype=object)
        out[:] = ""
        for i in range(len(text)):
            if not valid[i]:
                continue
            begin = max(int(start.values[i]) - 1, 0)  # SQL SUBSTR is 1-based
            if length is None:
                out[i] = text.values[i][begin:]
            else:
                out[i] = text.values[i][begin : begin + int(length.values[i])]
        return Column(VARCHAR, out, valid)

    add(_Builtin("SUBSTR", infer_substr, eval_substr))
    add(_Builtin("SUBSTRING", infer_substr, eval_substr))

    def infer_concat(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) >= 2 and all(a is VARCHAR for a in args), "CONCAT expects VARCHAR arguments")
        return VARCHAR

    def eval_concat(cols: Sequence[Column]) -> Column:
        n = len(cols[0])
        valid = np.ones(n, dtype=bool)
        for col in cols:
            valid &= col.valid
        out = np.empty(n, dtype=object)
        out[:] = ""
        for i in range(n):
            if valid[i]:
                out[i] = "".join(col.values[i] for col in cols)
        return Column(VARCHAR, out, valid)

    add(_Builtin("CONCAT", infer_concat, eval_concat))

    def infer_replace(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) == 3 and all(a is VARCHAR for a in args), "REPLACE expects three VARCHAR arguments")
        return VARCHAR

    def eval_replace(cols: Sequence[Column]) -> Column:
        text, old, new = cols
        valid = text.valid & old.valid & new.valid
        out = np.empty(len(text), dtype=object)
        out[:] = ""
        for i in range(len(text)):
            if valid[i]:
                out[i] = text.values[i].replace(old.values[i], new.values[i])
        return Column(VARCHAR, out, valid)

    add(_Builtin("REPLACE", infer_replace, eval_replace))

    def infer_coalesce(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) >= 1, "COALESCE expects at least one argument")
        out: DataType | None = None
        for arg in args:
            out = arg if out is None else common_type(out, arg)
        assert out is not None
        return out

    def eval_coalesce(cols: Sequence[Column]) -> Column:
        target = cols[0].dtype
        for col in cols[1:]:
            target = common_type(target, col.dtype)
        cols = [col if col.dtype is target else col.cast(target) for col in cols]
        values = cols[0].values.copy()
        valid = cols[0].valid.copy()
        for col in cols[1:]:
            fill = ~valid & col.valid
            values[fill] = col.values[fill]
            valid |= col.valid
        return Column(target, values, valid)

    add(_Builtin("COALESCE", infer_coalesce, eval_coalesce))

    def infer_nullif(args: tuple[DataType, ...]) -> DataType:
        _require(len(args) == 2, "NULLIF expects two arguments")
        return common_type(args[0], args[1])

    def eval_nullif(cols: Sequence[Column]) -> Column:
        left, right = cols
        target = common_type(left.dtype, right.dtype)
        left = left if left.dtype is target else left.cast(target)
        right = right if right.dtype is target else right.cast(target)
        equal = (left.values == right.values) & left.valid & right.valid
        return Column(target, left.values.copy(), left.valid & ~np.asarray(equal, dtype=bool))

    add(_Builtin("NULLIF", infer_nullif, eval_nullif))

    add(_variadic_extremum("LEAST", np.minimum))
    add(_variadic_extremum("GREATEST", np.maximum))
    return builtins


def _aggregate_result_type(name: str, arg: DataType | None) -> DataType:
    if name == "COUNT":
        return INTEGER
    if name in ("AVG", "STDDEV"):
        if arg is None or not arg.is_numeric:
            raise TypeMismatchError(f"{name} expects a numeric argument")
        return FLOAT
    if name == "SUM":
        if arg is None or not arg.is_numeric:
            raise TypeMismatchError("SUM expects a numeric argument")
        return arg
    if name in ("MIN", "MAX"):
        if arg is None:
            raise TypeMismatchError(f"{name} expects an argument")
        return arg
    raise TypeMismatchError(f"unknown aggregate {name!r}")  # pragma: no cover


class FunctionRegistry:
    """Resolves and evaluates scalar calls; declares aggregates.

    One registry lives inside each :class:`~repro.engine.database.Database`,
    so UDF registrations are per-database — like Vertica's per-catalog UDx
    library that the paper's workers are loaded into.
    """

    def __init__(self) -> None:
        self._builtins = _make_builtins()
        self._udfs: dict[str, ScalarUdf] = {}

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def register_udf(self, udf: ScalarUdf) -> None:
        """Register (or overwrite) a scalar UDF under its upper-cased name.

        Raises:
            UdfError: when the name collides with a built-in or aggregate.
        """
        key = udf.name.upper()
        if key in self._builtins or key in AGGREGATE_NAMES:
            raise UdfError(f"cannot shadow built-in function {key}")
        self._udfs[key] = udf

    def has_function(self, name: str) -> bool:
        """True for built-ins, aggregates, and registered UDFs."""
        key = name.upper()
        return key in self._builtins or key in self._udfs or key in AGGREGATE_NAMES

    def is_aggregate(self, name: str) -> bool:
        """True for COUNT/SUM/AVG/MIN/MAX/STDDEV."""
        return name.upper() in AGGREGATE_NAMES

    @property
    def aggregate_names(self) -> frozenset[str]:
        """The aggregate name set (for tree walks)."""
        return AGGREGATE_NAMES

    # ------------------------------------------------------------------
    # Type inference
    # ------------------------------------------------------------------
    def _adapted_arg_types(
        self, call: "FunctionCall", schema: Schema
    ) -> tuple["DataType", ...]:
        """Argument types with typeless NULL literals adapted to the common
        type of the non-NULL arguments (so ``COALESCE(NULL, 7)`` works)."""
        from repro.engine.expressions import Literal, infer_type

        raw = [infer_type(arg, schema, self) for arg in call.args]
        null_flags = [
            isinstance(arg, Literal) and arg.value is None for arg in call.args
        ]
        if not any(null_flags):
            return tuple(raw)
        non_null = [t for t, is_null in zip(raw, null_flags) if not is_null]
        adaptive: DataType = VARCHAR
        if non_null:
            adaptive = non_null[0]
            for other in non_null[1:]:
                try:
                    adaptive = common_type(adaptive, other)
                except TypeMismatchError:
                    adaptive = non_null[0]
                    break
        return tuple(
            adaptive if is_null else t for t, is_null in zip(raw, null_flags)
        )

    def infer_call_type(self, call: "FunctionCall", schema: Schema) -> DataType:
        """Result type of a call node over rows shaped like ``schema``."""
        from repro.engine.expressions import Star, infer_type

        key = call.name.upper()
        if key in AGGREGATE_NAMES:
            if key == "COUNT" and len(call.args) == 1 and isinstance(call.args[0], Star):
                return INTEGER
            if len(call.args) != 1:
                raise TypeMismatchError(f"{key} expects exactly one argument")
            arg = infer_type(call.args[0], schema, self)
            return _aggregate_result_type(key, arg)
        arg_types = self._adapted_arg_types(call, schema)
        builtin = self._builtins.get(key)
        if builtin is not None:
            return builtin.infer(arg_types)
        udf = self._udfs.get(key)
        if udf is not None:
            self._check_udf_args(udf, arg_types)
            return udf.return_type
        raise TypeMismatchError(f"unknown function {call.name!r}")

    def _check_udf_args(self, udf: ScalarUdf, arg_types: tuple[DataType, ...]) -> None:
        if len(arg_types) != len(udf.arg_types):
            raise UdfError(
                f"{udf.name} expects {len(udf.arg_types)} arguments, got {len(arg_types)}"
            )
        for given, declared in zip(arg_types, udf.arg_types):
            if given is declared:
                continue
            if given is INTEGER and declared is FLOAT:
                continue  # SQL widening
            raise UdfError(
                f"{udf.name}: argument type {given.name} does not match declared {declared.name}"
            )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_call(self, call: "FunctionCall", batch: "RecordBatch") -> Column:
        """Evaluate a scalar call over a batch.  Aggregate names raise —
        the planner must have rewritten them into Aggregate operators."""
        from repro.engine.expressions import Literal, evaluate

        key = call.name.upper()
        if key in AGGREGATE_NAMES:
            raise TypeMismatchError(
                f"aggregate {key} used outside GROUP BY context"
            )
        adapted = self._adapted_arg_types(call, batch.schema)
        args = [
            Column.constant(declared, None, batch.num_rows)
            if isinstance(arg, Literal) and arg.value is None
            else evaluate(arg, batch, self)
            for arg, declared in zip(call.args, adapted)
        ]
        builtin = self._builtins.get(key)
        if builtin is not None:
            return builtin.evaluate(args)
        udf = self._udfs.get(key)
        if udf is not None:
            return self._evaluate_udf(udf, args, batch.num_rows)
        raise TypeMismatchError(f"unknown function {call.name!r}")

    def _evaluate_udf(self, udf: ScalarUdf, args: list[Column], n: int) -> Column:
        widened = [
            arg.cast(declared) if arg.dtype is INTEGER and declared is FLOAT else arg
            for arg, declared in zip(args, udf.arg_types)
        ]
        if udf.vectorized:
            result = udf.fn(*widened)
            if not isinstance(result, Column):
                raise UdfError(f"vectorized UDF {udf.name} must return a Column")
            if result.dtype is not udf.return_type:
                raise UdfError(
                    f"vectorized UDF {udf.name} returned {result.dtype.name}, "
                    f"declared {udf.return_type.name}"
                )
            return result
        arg_lists = [arg.to_list() for arg in widened]
        out: list[Any] = []
        for i in range(n):
            row = [arg_list[i] for arg_list in arg_lists]
            if udf.strict and any(item is None for item in row):
                out.append(None)
                continue
            try:
                value = udf.fn(*row)
            except Exception as exc:  # surface UDF bugs with context
                raise UdfError(f"scalar UDF {udf.name} failed on row {i}: {exc}") from exc
            out.append(coerce_python_value(value, udf.return_type))
        return Column.from_values(udf.return_type, out)
