"""Planner: statement AST -> physical operator tree.

Responsibilities:

* FROM-clause planning with equi-key extraction for hash joins (non-equi
  inner joins fall back to cross join + filter);
* two-phase aggregation — aggregate calls and group keys are computed by
  an :class:`~repro.engine.operators.AggregateOp` under generated names,
  and the SELECT/HAVING/ORDER BY expressions are rewritten to reference
  them;
* ``*`` expansion, alias binding, ORDER BY resolution against both output
  aliases and hidden pre-projection expressions;
* set operations (UNION / UNION ALL).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.engine.batch import RecordBatch
from repro.engine.catalog import Catalog
from repro.engine.column import Column
from repro.engine.expressions import (
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    Star,
    column_refs,
    expression_name,
)
from repro.engine.functions import FunctionRegistry
from repro.engine.operators import (
    AggregateOp,
    AggregateSpec,
    AliasOp,
    BatchSourceOp,
    CrossJoinOp,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    LimitOp,
    Operator,
    ProjectOp,
    SortOp,
    TableScanOp,
    UnionAllOp,
)
from repro.engine.schema import ColumnDef, Schema
from repro.engine.sql.ast import (
    DerivedTable,
    Join,
    NamedTable,
    OrderItem,
    SelectItem,
    SelectLike,
    SelectStatement,
    SetOperation,
    TableRef,
)
from repro.engine.types import INTEGER
from repro.errors import CatalogError, PlanError

__all__ = ["Planner"]


def _split_conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _conjoin(conjuncts: Sequence[Expression]) -> Expression | None:
    """Rebuild a predicate from conjuncts (None when empty)."""
    result: Expression | None = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("AND", result, conjunct)
    return result


def _refs_resolvable(expr: Expression, schema: Schema) -> bool:
    """True if the expression references at least one column and every
    reference resolves in ``schema``."""
    refs = column_refs(expr)
    if not refs:
        return False
    return all(schema.has_column(ref.name, ref.qualifier) for ref in refs)


def _rewrite(expr: Expression, mapping: dict[Expression, Expression]) -> Expression:
    """Replace subtrees (structural equality) per ``mapping``, bottom-out on
    exact matches first so ``SUM(x)`` is replaced before ``x`` is visited."""
    replacement = mapping.get(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, CaseExpr):
        return CaseExpr(
            whens=tuple(
                (_rewrite(c, mapping), _rewrite(r, mapping)) for c, r in expr.whens
            ),
            default=None if expr.default is None else _rewrite(expr.default, mapping),
            operand=None if expr.operand is None else _rewrite(expr.operand, mapping),
        )
    updates: dict[str, object] = {}
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        if isinstance(value, Expression):
            updates[field.name] = _rewrite(value, mapping)
        elif isinstance(value, tuple) and value and isinstance(value[0], Expression):
            updates[field.name] = tuple(_rewrite(item, mapping) for item in value)
    if not updates:
        return expr
    return dataclasses.replace(expr, **updates)


class Planner:
    """Plans statements against one catalog + function registry."""

    def __init__(
        self, catalog: Catalog, registry: FunctionRegistry, pushdown: bool = True
    ) -> None:
        self.catalog = catalog
        self.registry = registry
        #: When True, WHERE conjuncts are pushed beneath joins / unions /
        #: projections toward the scans.  The rewrite is row-identical —
        #: see :meth:`_apply_where`.
        self.pushdown = pushdown

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def plan_select(self, stmt: SelectLike) -> Operator:
        """Plan a SELECT block or a set-operation chain."""
        if isinstance(stmt, SetOperation):
            return self._plan_set_operation(stmt)
        return self._plan_select_core(stmt)

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def _plan_set_operation(self, stmt: SetOperation) -> Operator:
        left = self.plan_select(stmt.left)
        right = self.plan_select(stmt.right)
        plan: Operator = UnionAllOp([left, right])
        if stmt.op == "union":
            plan = DistinctOp(plan)
        if stmt.order_by:
            plan = self._sort_on_output(plan, stmt.order_by)
        if stmt.limit is not None or stmt.offset:
            plan = LimitOp(plan, stmt.limit, stmt.offset)
        return plan

    def _sort_on_output(self, plan: Operator, order_by: tuple[OrderItem, ...]) -> Operator:
        keys: list[Expression] = []
        ascending: list[bool] = []
        for item in order_by:
            keys.append(self._resolve_output_key(item.expr, plan.schema))
            ascending.append(item.ascending)
        return SortOp(plan, keys, ascending, self.registry)

    def _resolve_output_key(self, expr: Expression, schema: Schema) -> Expression:
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(schema):
                raise PlanError(f"ORDER BY position {position} out of range")
            coldef = schema[position - 1]
            return ColumnRef(coldef.name, coldef.qualifier)
        return expr

    # ------------------------------------------------------------------
    # Core SELECT
    # ------------------------------------------------------------------
    def _plan_select_core(self, stmt: SelectStatement) -> Operator:
        source = self._plan_from(stmt.from_clause)
        if stmt.where is not None:
            source = self._apply_where(source, stmt.where)

        items = self._expand_stars(stmt.items, source.schema)
        visible_names = _uniquified(
            [item.alias or expression_name(item.expr) for item in items]
        )
        visible_quals = self._output_qualifiers(items, visible_names)
        visible_exprs = [item.expr for item in items]
        having = stmt.having

        aggregate_names = self.registry.aggregate_names
        order_exprs = [item.expr for item in stmt.order_by]
        group_by = self._resolve_group_aliases(stmt.group_by, items, source.schema)
        has_aggs = any(
            self._find_aggregates(e, aggregate_names)
            for e in (*visible_exprs, *( [having] if having is not None else [] ), *order_exprs)
        )
        if group_by or has_aggs:
            source, mapping = self._plan_aggregation(
                source, group_by, visible_exprs, having, order_exprs, aggregate_names
            )
            visible_exprs = [
                self._validated_rewrite(e, mapping, "SELECT") for e in visible_exprs
            ]
            if having is not None:
                having = self._validated_rewrite(having, mapping, "HAVING")
            order_exprs = [_rewrite(e, mapping) for e in order_exprs]

        if having is not None:
            source = FilterOp(source, having, self.registry)

        # ORDER BY: prefer output aliases, fall back to hidden pre-projection
        # expressions computed alongside the visible ones.
        hidden_exprs: list[Expression] = []
        hidden_names: list[str] = []
        sort_keys: list[Expression] = []
        for item, rewritten in zip(stmt.order_by, order_exprs):
            key = self._resolve_output_key(item.expr, self._output_schema_preview(
                source, visible_exprs, visible_names, visible_quals))
            if isinstance(key, ColumnRef) and self._matches_output(key, visible_names, visible_quals):
                sort_keys.append(key)
                continue
            name = f"__s{len(hidden_exprs)}"
            hidden_exprs.append(rewritten)
            hidden_names.append(name)
            sort_keys.append(ColumnRef(name))

        if hidden_exprs and stmt.distinct:
            raise PlanError("ORDER BY with DISTINCT must reference selected columns")

        plan: Operator = ProjectOp(
            source,
            visible_exprs + hidden_exprs,
            visible_names + hidden_names,
            self.registry,
            qualifiers=visible_quals + [None] * len(hidden_names),
        )
        if stmt.distinct:
            plan = DistinctOp(plan)
        if stmt.order_by:
            ascending = [item.ascending for item in stmt.order_by]
            plan = SortOp(plan, sort_keys, ascending, self.registry)
        if hidden_exprs:
            plan = plan_select_columns(plan, list(range(len(visible_names))))
        if stmt.limit is not None or stmt.offset:
            plan = LimitOp(plan, stmt.limit, stmt.offset)
        return plan

    def _output_schema_preview(
        self,
        source: Operator,
        exprs: list[Expression],
        names: list[str],
        quals: list[str | None],
    ) -> Schema:
        from repro.engine.expressions import infer_type

        return Schema(
            ColumnDef(name, infer_type(expr, source.schema, self.registry), qualifier=qual)
            for expr, name, qual in zip(exprs, names, quals)
        )

    @staticmethod
    def _matches_output(ref: ColumnRef, names: list[str], quals: list[str | None]) -> bool:
        hits = [
            i
            for i, (name, qual) in enumerate(zip(names, quals))
            if name == ref.name and (ref.qualifier is None or ref.qualifier == qual)
        ]
        return len(hits) == 1

    @staticmethod
    def _output_qualifiers(items: list[SelectItem], names: list[str]) -> list[str | None]:
        """Keep source qualifiers only where bare names would collide."""
        quals = [
            item.expr.qualifier if isinstance(item.expr, ColumnRef) and item.alias is None else None
            for item in items
        ]
        keep: list[str | None] = []
        for i, name in enumerate(names):
            collides = any(other == name for j, other in enumerate(names) if j != i)
            keep.append(quals[i] if collides else None)
        return keep

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _plan_from(self, ref: TableRef | None) -> Operator:
        if ref is None:
            dummy = RecordBatch(
                Schema([ColumnDef("__dummy", INTEGER)]),
                [Column.from_values(INTEGER, [0])],
            )
            return BatchSourceOp(dummy)
        return self._plan_table_ref(ref)

    def _plan_table_ref(self, ref: TableRef) -> Operator:
        if isinstance(ref, NamedTable):
            table = self.catalog.get(ref.name)
            return TableScanOp(table, ref.binding)
        if isinstance(ref, DerivedTable):
            return AliasOp(self.plan_select(ref.select), ref.alias)
        if isinstance(ref, Join):
            return self._plan_join(ref)
        raise PlanError(f"unsupported table reference: {ref!r}")  # pragma: no cover

    def _plan_join(self, ref: Join) -> Operator:
        left = self._plan_table_ref(ref.left)
        right = self._plan_table_ref(ref.right)
        if ref.kind == "cross":
            return CrossJoinOp(left, right)
        if ref.condition is None:
            raise PlanError(f"{ref.kind.upper()} JOIN requires an ON condition")
        left_keys: list[Expression] = []
        right_keys: list[Expression] = []
        residual: list[Expression] = []
        for conjunct in _split_conjuncts(ref.condition):
            pair = self._equi_key_pair(conjunct, left.schema, right.schema)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(conjunct)
        if left_keys:
            return HashJoinOp(
                left, right, left_keys, right_keys, ref.kind,
                _conjoin(residual), self.registry,
            )
        if ref.kind == "inner":
            return FilterOp(CrossJoinOp(left, right), ref.condition, self.registry)
        raise PlanError("LEFT JOIN requires at least one equality condition")

    @staticmethod
    def _equi_key_pair(
        conjunct: Expression, left_schema: Schema, right_schema: Schema
    ) -> tuple[Expression, Expression] | None:
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        a, b = conjunct.left, conjunct.right
        if _refs_resolvable(a, left_schema) and _refs_resolvable(b, right_schema):
            return a, b
        if _refs_resolvable(b, left_schema) and _refs_resolvable(a, right_schema):
            return b, a
        return None

    # ------------------------------------------------------------------
    # Predicate pushdown
    # ------------------------------------------------------------------
    def _apply_where(self, source: Operator, where: Expression) -> Operator:
        """Attach the WHERE clause, pushing conjuncts toward the scans when
        :attr:`pushdown` is enabled.

        The rewrite is row-identical, not just multiset-identical: every
        operator a conjunct crosses is row-wise (filter, project, alias) or
        preserves the relative order of surviving rows (hash and cross
        joins emit pairs in left-major order with right indices increasing,
        UNION ALL concatenates children in order, DISTINCT keeps first
        occurrences of rows that are bit-identical to their duplicates), so
        pushed plans return bit-identical batches to unpushed ones.
        """
        if not self.pushdown:
            return FilterOp(source, where, self.registry)
        source, refused = self._sink_conjuncts(source, _split_conjuncts(where))
        residual = _conjoin(refused)
        if residual is not None:
            source = FilterOp(source, residual, self.registry)
        return source

    def _sink_conjuncts(
        self, op: Operator, conjuncts: list[Expression]
    ) -> tuple[Operator, list[Expression]]:
        """Sink ``conjuncts`` as deep into ``op`` as the safety rules allow.

        Returns ``(new_op, refused)`` where refused conjuncts were applied
        nowhere inside ``op`` and must be filtered above it.  Rules:

        * scans / batch sources absorb any conjunct they can resolve;
        * filters and DISTINCT are transparent (row predicates commute);
        * joins route single-side conjuncts into that side — except the
          right side of a LEFT JOIN (a filter there would turn NULL-padded
          rows into drops) and conjuncts resolvable on *both* sides (the
          unpushed plan raises an ambiguity error; keep that behavior);
        * UNION ALL copies a conjunct into every child with column refs
          rewritten positionally (set operations match by position);
        * aliases strip the alias qualifier and recurse into the child;
        * projections substitute output expressions into the conjunct
          (expression evaluation is total — errors mask to NULL — so
          evaluating a predicate on pre-filter rows is safe);
        * aggregates / sorts / limits / unknown operators absorb nothing.
        """
        if not conjuncts:
            return op, []
        if isinstance(op, (TableScanOp, BatchSourceOp)):
            take: list[Expression] = []
            refused: list[Expression] = []
            for conjunct in conjuncts:
                bucket = take if _refs_resolvable(conjunct, op.schema) else refused
                bucket.append(conjunct)
            predicate = _conjoin(take)
            if predicate is not None:
                op = FilterOp(op, predicate, self.registry)
            return op, refused
        if isinstance(op, FilterOp):
            child, refused = self._sink_conjuncts(op.child, conjuncts)
            return FilterOp(child, op.predicate, self.registry), refused
        if isinstance(op, DistinctOp):
            child, refused = self._sink_conjuncts(op.child, conjuncts)
            return DistinctOp(child), refused
        if isinstance(op, (HashJoinOp, CrossJoinOp)):
            return self._sink_into_join(op, conjuncts)
        if isinstance(op, UnionAllOp):
            return self._sink_into_union(op, conjuncts)
        if isinstance(op, AliasOp):
            return self._sink_into_alias(op, conjuncts)
        if isinstance(op, ProjectOp):
            return self._sink_into_project(op, conjuncts)
        return op, list(conjuncts)

    def _absorb(self, op: Operator, conjuncts: list[Expression]) -> Operator:
        """Sink into ``op``; whatever comes back refused is filtered right
        above it (callers guarantee each conjunct resolves in ``op.schema``)."""
        op, refused = self._sink_conjuncts(op, conjuncts)
        residual = _conjoin(refused)
        if residual is not None:
            op = FilterOp(op, residual, self.registry)
        return op

    def _sink_into_join(
        self, op: Operator, conjuncts: list[Expression]
    ) -> tuple[Operator, list[Expression]]:
        left, right = op.children()
        protect_right = isinstance(op, HashJoinOp) and op.kind == "left"
        left_take: list[Expression] = []
        right_take: list[Expression] = []
        refused: list[Expression] = []
        for conjunct in conjuncts:
            on_left = _refs_resolvable(conjunct, left.schema)
            on_right = _refs_resolvable(conjunct, right.schema)
            if on_left and not on_right:
                left_take.append(conjunct)
            elif on_right and not on_left and not protect_right:
                right_take.append(conjunct)
            else:
                refused.append(conjunct)
        if not left_take and not right_take:
            return op, refused
        new_left = self._absorb(left, left_take)
        new_right = self._absorb(right, right_take)
        if isinstance(op, HashJoinOp):
            rebuilt: Operator = HashJoinOp(
                new_left, new_right, op.left_keys, op.right_keys,
                op.kind, op.residual, self.registry,
            )
        else:
            rebuilt = CrossJoinOp(new_left, new_right)
        return rebuilt, refused

    def _sink_into_union(
        self, op: UnionAllOp, conjuncts: list[Expression]
    ) -> tuple[Operator, list[Expression]]:
        children = list(op.children())
        refused: list[Expression] = []
        per_child: list[list[Expression]] = [[] for _ in children]
        for conjunct in conjuncts:
            rewrites = self._union_rewrites(conjunct, op.schema, children)
            if rewrites is None:
                refused.append(conjunct)
            else:
                for bucket, rewritten in zip(per_child, rewrites):
                    bucket.append(rewritten)
        if all(not bucket for bucket in per_child):
            return op, refused
        new_children = [
            self._absorb(child, bucket)
            for child, bucket in zip(children, per_child)
        ]
        return UnionAllOp(new_children), refused

    def _union_rewrites(
        self, conjunct: Expression, schema: Schema, children: list[Operator]
    ) -> list[Expression] | None:
        """Positional per-child rewrites of a union-level conjunct, or None
        if any ref fails to resolve uniquely in the union or any child."""
        positions = self._ref_positions(conjunct, schema)
        if positions is None:
            return None
        out: list[Expression] = []
        for child in children:
            mapping: dict[Expression, Expression] = {
                ref: ColumnRef(child.schema[pos].name, child.schema[pos].qualifier)
                for ref, pos in positions.items()
            }
            rewritten = _rewrite(conjunct, mapping)
            if not _refs_resolvable(rewritten, child.schema):
                return None
            out.append(rewritten)
        return out

    def _sink_into_alias(
        self, op: AliasOp, conjuncts: list[Expression]
    ) -> tuple[Operator, list[Expression]]:
        refused: list[Expression] = []
        pushed: list[Expression] = []
        for conjunct in conjuncts:
            positions = self._ref_positions(conjunct, op.schema)
            if positions is None:
                refused.append(conjunct)
                continue
            mapping: dict[Expression, Expression] = {
                ref: ColumnRef(op.child.schema[pos].name, op.child.schema[pos].qualifier)
                for ref, pos in positions.items()
            }
            rewritten = _rewrite(conjunct, mapping)
            if _refs_resolvable(rewritten, op.child.schema):
                pushed.append(rewritten)
            else:
                refused.append(conjunct)
        if not pushed:
            return op, refused
        return AliasOp(self._absorb(op.child, pushed), op.alias), refused

    def _sink_into_project(
        self, op: ProjectOp, conjuncts: list[Expression]
    ) -> tuple[Operator, list[Expression]]:
        refused: list[Expression] = []
        pushed: list[Expression] = []
        for conjunct in conjuncts:
            positions = self._ref_positions(conjunct, op.schema)
            if positions is None:
                refused.append(conjunct)
                continue
            mapping = {ref: op.exprs[pos] for ref, pos in positions.items()}
            rewritten = _rewrite(conjunct, mapping)
            if _refs_resolvable(rewritten, op.child.schema):
                pushed.append(rewritten)
            else:
                refused.append(conjunct)
        if not pushed:
            return op, refused
        child = self._absorb(op.child, pushed)
        return (
            ProjectOp(
                child,
                op.exprs,
                [coldef.name for coldef in op.schema],
                self.registry,
                qualifiers=[coldef.qualifier for coldef in op.schema],
            ),
            refused,
        )

    @staticmethod
    def _ref_positions(
        conjunct: Expression, schema: Schema
    ) -> dict[ColumnRef, int] | None:
        """Map each column ref in ``conjunct`` to its unique position in
        ``schema``, or None when refless / unresolvable / ambiguous."""
        refs = column_refs(conjunct)
        if not refs:
            return None
        try:
            return {ref: schema.index_of(ref.name, ref.qualifier) for ref in refs}
        except CatalogError:
            return None

    # ------------------------------------------------------------------
    # Star expansion
    # ------------------------------------------------------------------
    def _expand_stars(
        self, items: tuple[SelectItem, ...], schema: Schema
    ) -> list[SelectItem]:
        out: list[SelectItem] = []
        for item in items:
            if isinstance(item.expr, Star):
                matched = False
                for coldef in schema:
                    if coldef.name == "__dummy":
                        continue
                    if item.expr.qualifier is not None and coldef.qualifier != item.expr.qualifier:
                        continue
                    matched = True
                    out.append(SelectItem(ColumnRef(coldef.name, coldef.qualifier)))
                if item.expr.qualifier is not None and not matched:
                    raise PlanError(f"unknown table alias in {item.expr.qualifier}.*")
            else:
                out.append(item)
        if not out:
            raise PlanError("SELECT list is empty after * expansion")
        return out

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _resolve_group_aliases(
        self,
        group_by: tuple[Expression, ...],
        items: list[SelectItem],
        schema: Schema,
    ) -> list[Expression]:
        """GROUP BY may name a SELECT alias or an output position."""
        alias_map = {
            item.alias: item.expr for item in items if item.alias is not None
        }
        resolved: list[Expression] = []
        for expr in group_by:
            if isinstance(expr, Literal) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(items):
                    raise PlanError(f"GROUP BY position {position} out of range")
                resolved.append(items[position - 1].expr)
                continue
            if (
                isinstance(expr, ColumnRef)
                and expr.qualifier is None
                and expr.name in alias_map
                and not schema.has_column(expr.name)
            ):
                resolved.append(alias_map[expr.name])
                continue
            resolved.append(expr)
        return resolved

    def _find_aggregates(
        self, expr: Expression, aggregate_names: frozenset[str]
    ) -> list[FunctionCall]:
        found: list[FunctionCall] = []
        if isinstance(expr, FunctionCall) and expr.name.upper() in aggregate_names:
            for arg in expr.args:
                if self._find_aggregates(arg, aggregate_names):
                    raise PlanError("nested aggregate calls are not allowed")
            found.append(expr)
            return found
        for child in expr.children():
            found.extend(self._find_aggregates(child, aggregate_names))
        return found

    def _plan_aggregation(
        self,
        source: Operator,
        group_by: list[Expression],
        visible_exprs: list[Expression],
        having: Expression | None,
        order_exprs: list[Expression],
        aggregate_names: frozenset[str],
    ) -> tuple[Operator, dict[Expression, Expression]]:
        agg_calls: list[FunctionCall] = []
        seen: set[FunctionCall] = set()
        roots = list(visible_exprs) + ([having] if having is not None else []) + order_exprs
        for root in roots:
            for call in self._find_aggregates(root, aggregate_names):
                if call not in seen:
                    seen.add(call)
                    agg_calls.append(call)

        specs: list[AggregateSpec] = []
        names: list[str] = []
        mapping: dict[Expression, Expression] = {}
        for i, expr in enumerate(group_by):
            names.append(f"__g{i}")
            mapping[expr] = ColumnRef(f"__g{i}")
        for i, call in enumerate(agg_calls):
            func = call.name.upper()
            if func == "COUNT" and len(call.args) == 1 and isinstance(call.args[0], Star):
                specs.append(AggregateSpec("COUNT", None, distinct=False))
            else:
                if len(call.args) != 1:
                    raise PlanError(f"{func} expects exactly one argument")
                specs.append(AggregateSpec(func, call.args[0], call.distinct))
            name = f"__a{i}"
            names.append(name)
            mapping[call] = ColumnRef(name)
        plan = AggregateOp(source, group_by, specs, names, self.registry)
        return plan, mapping

    def _validated_rewrite(
        self, expr: Expression, mapping: dict[Expression, Expression], clause: str
    ) -> Expression:
        rewritten = _rewrite(expr, mapping)
        for ref in column_refs(rewritten):
            if not ref.name.startswith("__"):
                raise PlanError(
                    f"column {ref.display!r} in {clause} must appear in GROUP BY "
                    "or be inside an aggregate"
                )
        return rewritten


def _uniquified(names: list[str]) -> list[str]:
    """Disambiguate duplicate output names (``expr`` -> ``expr_1``, ...);
    SQL allows duplicate result names but the engine's schemas do not, so
    repeats get a positional suffix, as DuckDB does."""
    seen: dict[str, int] = {}
    out: list[str] = []
    for name in names:
        count = seen.get(name, 0)
        seen[name] = count + 1
        out.append(name if count == 0 else f"{name}_{count}")
    return out


def plan_select_columns(plan: Operator, indices: list[int]) -> Operator:
    """Project a plan down to the columns at ``indices`` (by position)."""

    class _SelectColumns(Operator):
        def __init__(self, child: Operator) -> None:
            self.child = child
            self.schema = child.schema.project(indices)

        def children(self) -> tuple[Operator, ...]:
            return (self.child,)

        def describe(self) -> str:
            return f"SelectColumns({indices})"

        def execute(self) -> RecordBatch:
            return self.child.execute().select(indices)

    return _SelectColumns(plan)
