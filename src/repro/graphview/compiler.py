"""Lowering graph-view specs to the engine's SQL.

Every spec becomes one or two set-oriented SELECT statements producing
the canonical extraction schemas::

    node queries:  (id INTEGER)
    edge queries:  (src INTEGER, dst INTEGER, weight FLOAT)

The compiler only builds SQL text, always naming the spec's own base
table: :mod:`repro.graphview.lowering` runs each statement over pinned
rows registered under that name in a private catalog — the whole table,
one row slice of it, or a change log's delta rows — so full, sliced and
incremental extraction share one SQL text per spec (hence bit-identical
filters, casts and weights).  A small
expression renderer (:func:`render_expression`) turns parsed
:mod:`repro.engine.expressions` trees back into SQL so the
``CREATE GRAPH VIEW`` DDL path and the Python DSL share one lowering.
"""

from __future__ import annotations

import dataclasses

from repro.engine.sql.parser import parse_statement
from repro.engine.expressions import (
    Between,
    BinaryOp,
    CaseExpr,
    CastExpr,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    Star,
    UnaryOp,
)
from repro.errors import GraphViewError
from repro.graphview.spec import CoEdgeSpec, EdgeSpec, NodeSpec

__all__ = [
    "node_query",
    "edge_spec_queries",
    "co_edge_query",
    "co_edge_side_query",
    "qualify_predicate",
    "render_expression",
]


# ---------------------------------------------------------------------------
# Spec -> SQL
# ---------------------------------------------------------------------------
def _where_clause(where: str | None) -> str:
    return f" WHERE {where}" if where else ""


def node_query(spec: NodeSpec) -> str:
    """The ``SELECT ... AS id`` for one node spec."""
    return (
        f"SELECT CAST({spec.key} AS INTEGER) AS id "
        f"FROM {spec.table}{_where_clause(spec.where)}"
    )


def edge_spec_queries(spec: EdgeSpec) -> list[str]:
    """The one or two ``SELECT src, dst, weight`` statements of an
    :class:`EdgeSpec` (undirected specs add the reversed projection)."""
    out = [_edge_sql(spec, reverse=False)]
    if not spec.directed:
        out.append(_edge_sql(spec, reverse=True))
    return out


def _edge_sql(spec: EdgeSpec, reverse: bool) -> str:
    src, dst = (spec.dst, spec.src) if reverse else (spec.src, spec.dst)
    weight = spec.weight if spec.weight is not None else "1.0"
    return (
        f"SELECT CAST({src} AS INTEGER) AS src, "
        f"CAST({dst} AS INTEGER) AS dst, "
        f"CAST({weight} AS FLOAT) AS weight "
        f"FROM {spec.table}{_where_clause(spec.where)}"
    )


def co_edge_side_query(spec: CoEdgeSpec) -> str:
    """The filtered ``(member, via)`` projection one side of the
    co-occurrence self-join reads — also the relation incremental
    maintenance tracks per :class:`CoEdgeSpec`."""
    return (
        f"SELECT CAST({spec.member} AS INTEGER) AS member, {spec.via} AS via "
        f"FROM {spec.table}{_where_clause(spec.where)}"
    )


def co_edge_query(spec: CoEdgeSpec) -> str:
    """The co-occurrence self-join: members sharing a ``via`` key connect.

    Lowered as a *flat* self-join over the base table: the spec's filter
    is qualified onto both join sides (via :func:`qualify_predicate`) and
    sits in the top-level WHERE, where the planner's predicate pushdown
    sinks each copy beneath the join into its scan on its own — the
    compiler no longer hand-builds filtered derived tables.  Grouping is
    on the casted member pair (``GROUP BY 1, 2``), so the group keys, the
    ``<>`` self-guard, and the output columns all see the same integer
    values.
    """
    weight = spec.weight if spec.weight is not None else "COUNT(*)"
    member_a = f"CAST(a.{spec.member} AS INTEGER)"
    member_b = f"CAST(b.{spec.member} AS INTEGER)"
    conditions = []
    if spec.where:
        conditions.append(qualify_predicate(spec.where, spec.table, "a"))
        conditions.append(qualify_predicate(spec.where, spec.table, "b"))
    conditions.append(f"{member_a} <> {member_b}")
    return (
        f"SELECT {member_a} AS src, {member_b} AS dst, "
        f"CAST({weight} AS FLOAT) AS weight "
        f"FROM {spec.table} AS a JOIN {spec.table} AS b ON a.{spec.via} = b.{spec.via} "
        f"WHERE {' AND '.join(conditions)} "
        f"GROUP BY 1, 2"
    )


def qualify_predicate(where: str, table: str, alias: str) -> str:
    """Re-render a spec filter with every column reference qualified by
    ``alias`` so it can sit above a self-join of ``table``.

    Bare references and references qualified with the base table's own
    name both rewrite to ``alias.column``; references to other qualifiers
    pass through untouched (they would not have resolved in the original
    single-table scope either, so this never silently changes meaning).
    """
    stmt = parse_statement(f"SELECT 1 WHERE {where}")
    return render_expression(_qualify(stmt.where, table, alias))


def _qualify(expr: Expression, table: str, alias: str) -> Expression:
    if isinstance(expr, ColumnRef):
        if expr.qualifier is None or expr.qualifier == table:
            return ColumnRef(expr.name, alias)
        return expr
    if isinstance(expr, CaseExpr):
        return CaseExpr(
            whens=tuple(
                (_qualify(c, table, alias), _qualify(r, table, alias))
                for c, r in expr.whens
            ),
            default=None if expr.default is None else _qualify(expr.default, table, alias),
            operand=None if expr.operand is None else _qualify(expr.operand, table, alias),
        )
    updates: dict[str, object] = {}
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        if isinstance(value, Expression):
            updates[field.name] = _qualify(value, table, alias)
        elif isinstance(value, tuple) and value and isinstance(value[0], Expression):
            updates[field.name] = tuple(_qualify(item, table, alias) for item in value)
    if not updates:
        return expr
    return dataclasses.replace(expr, **updates)


# ---------------------------------------------------------------------------
# Expression -> SQL (for the CREATE GRAPH VIEW DDL path)
# ---------------------------------------------------------------------------
def render_expression(expr: Expression) -> str:
    """Render a parsed expression tree back to SQL text.

    Used by the DDL path: ``CREATE GRAPH VIEW`` clauses arrive as parsed
    :class:`Expression` trees, while the view compiler works on SQL
    strings (so Python-DSL and DDL views share one lowering).  Output is
    fully parenthesized, so operator precedence never changes on the
    round trip.
    """
    if isinstance(expr, Literal):
        return _render_literal(expr.value)
    if isinstance(expr, ColumnRef):
        return expr.display
    if isinstance(expr, Star):
        return f"{expr.qualifier}.*" if expr.qualifier else "*"
    if isinstance(expr, BinaryOp):
        return (
            f"({render_expression(expr.left)} {expr.op} "
            f"{render_expression(expr.right)})"
        )
    if isinstance(expr, UnaryOp):
        spacer = " " if expr.op.isalpha() else ""
        return f"({expr.op}{spacer}{render_expression(expr.operand)})"
    if isinstance(expr, FunctionCall):
        args = ", ".join(render_expression(a) for a in expr.args)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, CastExpr):
        return f"CAST({render_expression(expr.operand)} AS {expr.type_name})"
    if isinstance(expr, IsNull):
        maybe_not = " NOT" if expr.negated else ""
        return f"({render_expression(expr.operand)} IS{maybe_not} NULL)"
    if isinstance(expr, InList):
        maybe_not = " NOT" if expr.negated else ""
        items = ", ".join(render_expression(i) for i in expr.items)
        return f"({render_expression(expr.operand)}{maybe_not} IN ({items}))"
    if isinstance(expr, Between):
        maybe_not = " NOT" if expr.negated else ""
        return (
            f"({render_expression(expr.operand)}{maybe_not} BETWEEN "
            f"{render_expression(expr.low)} AND {render_expression(expr.high)})"
        )
    if isinstance(expr, LikeExpr):
        maybe_not = " NOT" if expr.negated else ""
        return (
            f"({render_expression(expr.operand)}{maybe_not} LIKE "
            f"{render_expression(expr.pattern)})"
        )
    if isinstance(expr, CaseExpr):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(render_expression(expr.operand))
        for cond, result in expr.whens:
            parts.append(f"WHEN {render_expression(cond)} THEN {render_expression(result)}")
        if expr.default is not None:
            parts.append(f"ELSE {render_expression(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    raise GraphViewError(f"cannot render expression node {type(expr).__name__}")


def _render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)
