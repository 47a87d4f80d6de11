"""Expression AST, type inference, and vectorized evaluation.

The SQL parser produces these nodes; the planner type-checks them against
an input schema; the executor evaluates them over record batches with
numpy.  NULL semantics follow SQL:

* arithmetic and comparisons propagate NULL;
* ``AND``/``OR`` use Kleene three-valued logic;
* ``WHERE`` keeps only rows whose predicate is exactly TRUE;
* division by zero yields NULL (MySQL-style; documented engine choice so
  graph algorithms never crash mid-superstep on a dangling vertex).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.functions import sql_remainder
from repro.engine.schema import Schema
from repro.engine.types import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    VARCHAR,
    DataType,
    common_type,
    infer_literal_type,
    type_from_name,
)
from repro.errors import PlanError, TypeMismatchError

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Star",
    "Parameter",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "CaseExpr",
    "CastExpr",
    "InList",
    "Between",
    "IsNull",
    "LikeExpr",
    "infer_type",
    "evaluate",
    "expression_name",
    "contains_aggregate",
    "COMPARISON_OPS",
    "ARITHMETIC_OPS",
]

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Expression:
    """Base class for all expression nodes."""

    def children(self) -> tuple["Expression", ...]:
        """Direct sub-expressions (used by tree walks)."""
        return ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant; ``value is None`` encodes the SQL NULL literal."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference, e.g. ``e.src``."""

    name: str
    qualifier: str | None = None

    @property
    def display(self) -> str:
        """Human-readable spelling."""
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` — only valid inside ``COUNT(*)`` or as a SELECT item."""

    qualifier: str | None = None


@dataclass(frozen=True)
class Parameter(Expression):
    """A ``?`` placeholder; substituted with a literal before planning."""

    index: int


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Infix operator: arithmetic, comparison, AND/OR, or ``||`` concat."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Prefix operator: unary ``-`` or ``NOT``."""

    op: str
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar/aggregate/UDF call by name.

    The same node covers built-ins and user functions; the planner decides
    which registry the name belongs to.  ``distinct`` only matters for
    aggregates (``COUNT(DISTINCT x)``).
    """

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False

    def children(self) -> tuple[Expression, ...]:
        return self.args


@dataclass(frozen=True)
class CaseExpr(Expression):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    whens: tuple[tuple[Expression, Expression], ...]
    default: Expression | None = None
    operand: Expression | None = None

    def children(self) -> tuple[Expression, ...]:
        out: list[Expression] = []
        if self.operand is not None:
            out.append(self.operand)
        for cond, result in self.whens:
            out.extend((cond, result))
        if self.default is not None:
            out.append(self.default)
        return tuple(out)


@dataclass(frozen=True)
class CastExpr(Expression):
    """``CAST(x AS TYPE)``."""

    operand: Expression
    type_name: str

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class InList(Expression):
    """``x [NOT] IN (a, b, c)`` with literal/computed list items."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)


@dataclass(frozen=True)
class Between(Expression):
    """``x [NOT] BETWEEN low AND high`` (inclusive)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, self.low, self.high)


@dataclass(frozen=True)
class IsNull(Expression):
    """``x IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class LikeExpr(Expression):
    """``x [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, self.pattern)


# ---------------------------------------------------------------------------
# Helpers over the AST
# ---------------------------------------------------------------------------
def expression_name(expr: Expression) -> str:
    """Default output-column name for an un-aliased SELECT item."""
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FunctionCall):
        return expr.name.lower()
    if isinstance(expr, CastExpr):
        return expression_name(expr.operand)
    return "expr"


def column_refs(expr: Expression) -> list[ColumnRef]:
    """Every ColumnRef in the tree (pre-order)."""
    refs: list[ColumnRef] = []
    if isinstance(expr, ColumnRef):
        refs.append(expr)
    for child in expr.children():
        refs.extend(column_refs(child))
    return refs


def contains_aggregate(expr: Expression, aggregate_names: frozenset[str]) -> bool:
    """True if any node in the tree is a call to an aggregate function."""
    if isinstance(expr, FunctionCall) and expr.name.upper() in aggregate_names:
        return True
    return any(contains_aggregate(child, aggregate_names) for child in expr.children())


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------
def infer_type(expr: Expression, schema: Schema, registry: "FunctionRegistry") -> DataType:
    """Static type of ``expr`` over rows shaped like ``schema``.

    Raises:
        TypeMismatchError: on ill-typed expressions.
        PlanError: on structurally invalid nodes (bare ``*``, unbound ``?``).
    """
    if isinstance(expr, Literal):
        if expr.value is None:
            # The NULL literal is typeless; default to VARCHAR, contexts that
            # care (CASE branches, IN lists) reconcile via common_type with
            # special NULL handling below.
            return VARCHAR
        return infer_literal_type(expr.value)
    if isinstance(expr, ColumnRef):
        return schema.column(expr.name, expr.qualifier).dtype
    if isinstance(expr, Parameter):
        raise PlanError("unbound ? parameter reached the planner")
    if isinstance(expr, Star):
        raise PlanError("'*' is only valid in COUNT(*) or as a SELECT item")
    if isinstance(expr, BinaryOp):
        return _infer_binary(expr, schema, registry)
    if isinstance(expr, UnaryOp):
        inner = infer_type(expr.operand, schema, registry)
        if expr.op == "NOT":
            if inner is not BOOLEAN:
                raise TypeMismatchError("NOT requires a BOOLEAN operand")
            return BOOLEAN
        if expr.op == "-":
            if not inner.is_numeric:
                raise TypeMismatchError("unary - requires a numeric operand")
            return inner
        raise PlanError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, FunctionCall):
        return registry.infer_call_type(expr, schema)
    if isinstance(expr, CaseExpr):
        return _infer_case(expr, schema, registry)
    if isinstance(expr, CastExpr):
        return type_from_name(expr.type_name)
    if isinstance(expr, (InList, Between, IsNull, LikeExpr)):
        return BOOLEAN
    raise PlanError(f"cannot infer type of {expr!r}")  # pragma: no cover


def _is_null_literal(expr: Expression) -> bool:
    return isinstance(expr, Literal) and expr.value is None


def _infer_binary(expr: BinaryOp, schema: Schema, registry: "FunctionRegistry") -> DataType:
    left = infer_type(expr.left, schema, registry)
    right = infer_type(expr.right, schema, registry)
    op = expr.op
    if op in ("AND", "OR"):
        # The typeless NULL literal adapts to boolean context.
        left_ok = left is BOOLEAN or _is_null_literal(expr.left)
        right_ok = right is BOOLEAN or _is_null_literal(expr.right)
        if not (left_ok and right_ok):
            raise TypeMismatchError(f"{op} requires BOOLEAN operands")
        return BOOLEAN
    if op in COMPARISON_OPS:
        _comparison_common(expr, left, right)
        return BOOLEAN
    # The typeless NULL literal adapts to the other operand.
    left_null = _is_null_literal(expr.left)
    right_null = _is_null_literal(expr.right)
    if op == "||":
        if left_null and right_null:
            return VARCHAR
        if not (left is VARCHAR or left_null) or not (right is VARCHAR or right_null):
            raise TypeMismatchError("|| requires VARCHAR operands")
        return VARCHAR
    if op in ARITHMETIC_OPS:
        if left_null and right_null:
            return FLOAT
        if left_null:
            left = right
        if right_null:
            right = left
        if not left.is_numeric or not right.is_numeric:
            raise TypeMismatchError(f"operator {op} requires numeric operands")
        if op == "/":
            return FLOAT
        return common_type(left, right)
    raise PlanError(f"unknown binary operator {op!r}")


def _comparison_common(expr: BinaryOp, left: DataType, right: DataType) -> DataType:
    """Common comparison type; NULL literals adapt to the other side."""
    if isinstance(expr.left, Literal) and expr.left.value is None:
        return right
    if isinstance(expr.right, Literal) and expr.right.value is None:
        return left
    return common_type(left, right)


def _infer_case(expr: CaseExpr, schema: Schema, registry: "FunctionRegistry") -> DataType:
    result_type: DataType | None = None
    branches = [result for _, result in expr.whens]
    if expr.default is not None:
        branches.append(expr.default)
    for branch in branches:
        if isinstance(branch, Literal) and branch.value is None:
            continue
        branch_type = infer_type(branch, schema, registry)
        result_type = branch_type if result_type is None else common_type(result_type, branch_type)
    if result_type is None:
        return VARCHAR  # all branches NULL
    return result_type


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------
def evaluate(expr: Expression, batch: RecordBatch, registry: "FunctionRegistry") -> Column:
    """Evaluate ``expr`` over every row of ``batch``, vectorized.

    Aggregate calls must have been rewritten away by the planner before
    evaluation; hitting one here is a planner bug surfaced as PlanError.
    """
    n = batch.num_rows
    if isinstance(expr, Literal):
        dtype = VARCHAR if expr.value is None else infer_literal_type(expr.value)
        return Column.constant(dtype, expr.value, n)
    if isinstance(expr, ColumnRef):
        return batch.column(expr.name, expr.qualifier)
    if isinstance(expr, Parameter):
        raise PlanError("unbound ? parameter reached the executor")
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, batch, registry)
    if isinstance(expr, UnaryOp):
        inner = evaluate(expr.operand, batch, registry)
        if expr.op == "NOT":
            return Column(BOOLEAN, ~inner.values.astype(bool), inner.valid.copy())
        return Column(inner.dtype, -inner.values, inner.valid.copy())
    if isinstance(expr, FunctionCall):
        return registry.evaluate_call(expr, batch)
    if isinstance(expr, CaseExpr):
        return _eval_case(expr, batch, registry)
    if isinstance(expr, CastExpr):
        target = type_from_name(expr.type_name)
        if isinstance(expr.operand, Literal) and expr.operand.value is None:
            # A typed NULL: a bare NULL types as VARCHAR, and casting that
            # column would visit every row.
            return Column.constant(target, None, n)
        return evaluate(expr.operand, batch, registry).cast(target)
    if isinstance(expr, InList):
        return _eval_in_list(expr, batch, registry)
    if isinstance(expr, Between):
        rewritten = BinaryOp(
            "AND",
            BinaryOp(">=", expr.operand, expr.low),
            BinaryOp("<=", expr.operand, expr.high),
        )
        result = evaluate(rewritten, batch, registry)
        if expr.negated:
            return Column(BOOLEAN, ~result.values.astype(bool), result.valid.copy())
        return result
    if isinstance(expr, IsNull):
        inner = evaluate(expr.operand, batch, registry)
        flags = inner.valid.copy() if expr.negated else ~inner.valid
        return Column(BOOLEAN, flags, np.ones(n, dtype=bool))
    if isinstance(expr, LikeExpr):
        return _eval_like(expr, batch, registry)
    raise PlanError(f"cannot evaluate {expr!r}")  # pragma: no cover


def _align_numeric(left: Column, right: Column) -> tuple[np.ndarray, np.ndarray, DataType]:
    target = common_type(left.dtype, right.dtype)
    lv = left.values.astype(target.numpy_dtype) if left.dtype is not target else left.values
    rv = right.values.astype(target.numpy_dtype) if right.dtype is not target else right.values
    return lv, rv, target


def _eval_binary(expr: BinaryOp, batch: RecordBatch, registry: "FunctionRegistry") -> Column:
    op = expr.op
    if op in ("AND", "OR"):
        return _eval_kleene(expr, batch, registry)
    if _is_null_literal(expr.left) or _is_null_literal(expr.right):
        # NULL propagates through comparisons, arithmetic, and concat.
        result_type = _infer_binary(expr, batch.schema, registry)
        return Column.constant(result_type, None, batch.num_rows)
    left = evaluate(expr.left, batch, registry)
    right = evaluate(expr.right, batch, registry)
    valid = left.valid & right.valid
    if op in COMPARISON_OPS:
        return _eval_comparison(op, left, right, valid)
    if op == "||":
        out = np.empty(len(left), dtype=object)
        lv, rv = left.values, right.values
        for i in range(len(left)):
            out[i] = (lv[i] + rv[i]) if valid[i] else ""
        return Column(VARCHAR, out, valid)
    if not left.dtype.is_numeric or not right.dtype.is_numeric:
        raise TypeMismatchError(f"operator {op} requires numeric operands")
    lv, rv, target = _align_numeric(left, right)
    if op == "+":
        return Column(target, lv + rv, valid)
    if op == "-":
        return Column(target, lv - rv, valid)
    if op == "*":
        return Column(target, lv * rv, valid)
    if op == "/":
        lf = lv.astype(np.float64)
        rf = rv.astype(np.float64)
        zero = rf == 0
        safe = np.where(zero, 1.0, rf)
        return Column(FLOAT, lf / safe, valid & ~zero)
    if op == "%":
        values, zero = sql_remainder(lv, rv)
        return Column(target, values.astype(target.numpy_dtype, copy=False), valid & ~zero)
    raise PlanError(f"unknown binary operator {op!r}")  # pragma: no cover


def _eval_comparison(op: str, left: Column, right: Column, valid: np.ndarray) -> Column:
    if left.dtype is VARCHAR or right.dtype is VARCHAR:
        if left.dtype is not right.dtype:
            raise TypeMismatchError("cannot compare VARCHAR with non-VARCHAR")
        lv, rv = left.values, right.values
    elif left.dtype is BOOLEAN or right.dtype is BOOLEAN:
        if left.dtype is not right.dtype:
            raise TypeMismatchError("cannot compare BOOLEAN with non-BOOLEAN")
        lv, rv = left.values, right.values
    else:
        lv, rv, _ = _align_numeric(left, right)
    if op == "=":
        flags = lv == rv
    elif op == "<>":
        flags = lv != rv
    elif op == "<":
        flags = lv < rv
    elif op == "<=":
        flags = lv <= rv
    elif op == ">":
        flags = lv > rv
    else:
        flags = lv >= rv
    return Column(BOOLEAN, np.asarray(flags, dtype=bool), valid)


def _as_boolean_operand(column: Column, n: int) -> Column:
    """Adapt a NULL-literal column (typeless, no valid values) to BOOLEAN."""
    if column.dtype is BOOLEAN:
        return column
    if not column.valid.any():
        return Column.constant(BOOLEAN, None, n)
    raise TypeMismatchError("AND/OR requires BOOLEAN operands")


def _eval_kleene(expr: BinaryOp, batch: RecordBatch, registry: "FunctionRegistry") -> Column:
    left = _as_boolean_operand(evaluate(expr.left, batch, registry), batch.num_rows)
    right = _as_boolean_operand(evaluate(expr.right, batch, registry), batch.num_rows)
    lv = left.values.astype(bool)
    rv = right.values.astype(bool)
    if expr.op == "AND":
        value = lv & rv
        # NULL unless a definite FALSE forces the result.
        known_false = (left.valid & ~lv) | (right.valid & ~rv)
        valid = (left.valid & right.valid) | known_false
    else:
        value = lv | rv
        known_true = (left.valid & lv) | (right.valid & rv)
        valid = (left.valid & right.valid) | known_true
    # Storage under NULL is arbitrary; normalize so equal columns compare equal.
    value = np.where(valid, value, False)
    return Column(BOOLEAN, value, valid)


def _eval_case(expr: CaseExpr, batch: RecordBatch, registry: "FunctionRegistry") -> Column:
    n = batch.num_rows
    result_type = infer_type(expr, batch.schema, registry)
    if result_type is VARCHAR:
        values: np.ndarray = np.empty(n, dtype=object)
        values[:] = ""
    else:
        values = np.zeros(n, dtype=result_type.numpy_dtype)
    valid = np.zeros(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)
    for cond, result in expr.whens:
        if expr.operand is not None:
            cond = BinaryOp("=", expr.operand, cond)
        cond_col = evaluate(cond, batch, registry)
        hit = cond_col.valid & cond_col.values.astype(bool) & ~decided
        if hit.any():
            branch = evaluate(result, batch, registry)
            branch = _adapt_branch(branch, result_type, n)
            values[hit] = branch.values[hit]
            valid[hit] = branch.valid[hit]
        decided |= cond_col.valid & cond_col.values.astype(bool)
    rest = ~decided
    if expr.default is not None and rest.any():
        branch = _adapt_branch(evaluate(expr.default, batch, registry), result_type, n)
        values[rest] = branch.values[rest]
        valid[rest] = branch.valid[rest]
    return Column(result_type, values, valid)


def _adapt_branch(column: Column, target: DataType, n: int) -> Column:
    """Unify a CASE branch with the overall result type (NULL literals and
    INTEGER->FLOAT widening)."""
    if column.dtype is target:
        return column
    if not column.valid.any():  # all-NULL branch, retype freely
        return Column.constant(target, None, n)
    return column.cast(target)


def _eval_in_list(expr: InList, batch: RecordBatch, registry: "FunctionRegistry") -> Column:
    operand = evaluate(expr.operand, batch, registry)
    n = len(operand)
    hit = np.zeros(n, dtype=bool)
    any_null_item = False
    for item in expr.items:
        item_col = evaluate(item, batch, registry)
        if not item_col.valid.any():
            any_null_item = True
            continue
        cmp = _eval_comparison("=", operand, item_col, operand.valid & item_col.valid)
        hit |= cmp.values & cmp.valid
    # SQL semantics: x IN (..) is NULL if x is NULL, or if no match and the
    # list contained NULL.
    valid = operand.valid.copy()
    if any_null_item:
        valid &= hit
    flags = ~hit if expr.negated else hit
    flags = np.where(valid, flags, False)
    return Column(BOOLEAN, flags, valid)


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _eval_like(expr: LikeExpr, batch: RecordBatch, registry: "FunctionRegistry") -> Column:
    operand = evaluate(expr.operand, batch, registry)
    pattern = evaluate(expr.pattern, batch, registry)
    if operand.dtype is not VARCHAR or pattern.dtype is not VARCHAR:
        raise TypeMismatchError("LIKE requires VARCHAR operands")
    n = len(operand)
    valid = operand.valid & pattern.valid
    flags = np.zeros(n, dtype=bool)
    cache: dict[str, re.Pattern[str]] = {}
    for i in range(n):
        if not valid[i]:
            continue
        pat = pattern.values[i]
        compiled = cache.get(pat)
        if compiled is None:
            compiled = _like_to_regex(pat)
            cache[pat] = compiled
        flags[i] = compiled.match(operand.values[i]) is not None
    if expr.negated:
        flags = np.where(valid, ~flags, False)
    return Column(BOOLEAN, flags, valid)
