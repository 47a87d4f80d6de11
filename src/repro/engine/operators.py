"""Physical operators: vectorized, batch-at-a-time execution.

Every operator materializes its full result as a
:class:`~repro.engine.batch.RecordBatch` — the engine is an in-memory
column store, so operator-at-a-time execution over whole columns (the
MonetDB/Vertica style) is both the simplest and the fastest model in
Python: all heavy lifting happens inside numpy.

The join, aggregation, and sort algorithms are implemented with
factorize/searchsorted/reduceat patterns rather than per-row Python loops;
string columns fall back to per-group loops only where numpy cannot help.
Every stable sort over integer keys goes through one kernel,
:func:`stable_int_order` (the keys packed into one ``uint64`` word per
row, sorted once: a merge of presorted runs, radix passes or numpy's
SIMD sort), and integer sets and ranks through :func:`unique_ints` and
:func:`value_ranks` — never numpy's hash-table ``np.unique``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.expressions import (
    Expression,
    Star,
    column_refs,
    evaluate,
    infer_type,
)
from repro.engine.functions import FunctionRegistry
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, VARCHAR, DataType
from repro.errors import ExecutionError, PlanError, TypeMismatchError

__all__ = [
    "Operator",
    "TableScanOp",
    "BatchSourceOp",
    "AliasOp",
    "FilterOp",
    "ProjectOp",
    "HashJoinOp",
    "CrossJoinOp",
    "UnionAllOp",
    "AggregateSpec",
    "AggregateOp",
    "SortOp",
    "LimitOp",
    "DistinctOp",
    "TransformOp",
    "factorize_columns",
    "hash_bucket_order",
    "int_runs",
    "run_starts",
    "stable_int_order",
    "unique_ints",
    "value_ranks",
    "explain_tree",
    "analyze_tree",
]


# ---------------------------------------------------------------------------
# Shared vectorized helpers
# ---------------------------------------------------------------------------
#: Below this many rows :func:`stable_int_order` lexsorts: the kernel's
#: fixed per-call work (~25-35 µs of span, order and packing passes) loses
#: to a comparison sort of fewer than ~1.1 k int64 rows (measured, one and
#: two keys).
_KERNEL_MIN_ROWS = 1536
#: Keys that arrive in at most this many ascending runs are merged
#: (numpy's stable 64-bit sort is a timsort, O(n log runs)) instead of
#: sorted from scratch: measured at 0.7 M rows, 2 runs merge in half the
#: time of the packed sort and 8 runs about break even with it.
_MERGE_MAX_RUNS = 8
#: :func:`unique_ints` marks values in a boolean mask when their span is
#: less than this many times their count, and sorts them otherwise.
#: Measured against the sort on uniform ids (20 k - 1.4 M rows): the mask
#: is 3.5-5x faster at a span of 1x the rows, 1.0-1.5x at 4x and
#: 0.65-1.0x at 8x; on a graph load's endpoints (1.4 M ids over 70 k) it
#: takes 9 ms against 36 ms.
_PRESENCE_MAX_SPAN = 4


def stable_int_order(
    keys: Sequence[np.ndarray],
    rows: np.ndarray | None = None,
    *,
    with_keys: bool = False,
) -> Any:
    """The stable sort permutation of rows keyed on ``keys``, ``keys[0]``
    primary — exactly ``np.lexsort(tuple(reversed(keys)))``.

    ``rows`` (strictly ascending int64 row ids, one per key row: a
    filter's selection) names the rows: the result is then
    ``rows[order]``, the selected rows' ids in key order.  With
    ``with_keys`` the call returns ``(order, sorted_keys)``, every key
    in that order.

    Integer and bool keys are shifted by their minimum, so each key's span
    has a known bit length.  A key with one distinct value drops out, and
    so does a presorted *last* key: a stable sort by it is the identity,
    so the stable sort by the other keys alone is the full order.  When
    the remaining spans add up to at most 64 bits, the shifted keys (last
    key lowest) are OR'ed into one ``uint64`` *word* per row, whose order
    is the keys' lexicographic order.  Then the first of these paths that
    applies runs:

    * *identity* — the words arrive in order: one linear check, no sort;
    * *merge* — they arrive in at most ``_MERGE_MAX_RUNS`` ascending runs
      (a union of sorted tables, per-shard buckets): numpy's stable
      timsort merges the runs;
    * *packed* — the word and the row-index bits fit in 64 bits: the row
      index goes into the low bits, so the words are distinct and one
      ``np.sort`` (numpy's SIMD sort) of them, with the index masked back
      out, is the stable order by construction.  Where they fit, the ids
      of ``rows`` take the index's place (they ascend as it does), and a
      single int64 key is read back from the word's high bits: a named,
      keyed sort is that one ``np.sort``, with no ``rows[order]`` and no
      ``key[order]`` gather;
    * *digit passes* — a word of at most 16 bits (one O(n) pass: measured
      faster than the packed sort up to 0.1 M rows and on par at 0.7 M),
      or one too wide to carry the row index: 16-bit
      least-significant-digit radix passes, numpy's stable argsort of a
      ``uint16`` (or, for a top digit of at most 8 bits, ``uint8``) array
      being an O(n) radix sort.  So ids near the int64 bounds stay off a
      comparison sort;
    * *lexsort* — ``np.lexsort`` itself, for fewer than
      ``_KERNEL_MIN_ROWS`` rows, where the kernel's fixed cost loses; for
      spans of more than 64 bits together; and for any non-integer key.

    The paths that order positions name them with one ``rows[order]``
    gather and, with ``with_keys``, one ``key[order]`` gather per key.

    Measured at 0.7 M rows (2-core x86-64, AVX-512, numpy 2.4): one
    17-bit key takes 18-20 ms packed, 37-43 ms as two digit passes and
    107-126 ms in ``np.lexsort``.
    """
    keys = [np.asarray(k) for k in keys]
    order, sorted_keys = _int_order(keys, rows, with_keys)
    if order is None:  # the rows arrive in order
        order = np.arange(len(keys[0]) if keys else 0) if rows is None else rows
        sorted_keys = keys
    elif sorted_keys is None:  # ``order`` holds row positions
        if with_keys:
            sorted_keys = [key[order] for key in keys]
        if rows is not None:
            order = rows[order]
    return (order, sorted_keys) if with_keys else order


def _int_order(
    keys: list[np.ndarray], rows: np.ndarray | None, with_keys: bool
) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """:func:`stable_int_order`'s paths: ``(order, sorted_keys)``.
    ``(None, None)`` means the rows are already in order; a ``None``
    ``sorted_keys`` means ``order`` holds row positions; otherwise
    ``order`` holds the named ids and ``sorted_keys`` the keys in that
    order (empty unless ``with_keys``)."""
    n = len(keys[0]) if keys else 0
    if n < _KERNEL_MIN_ROWS or any(k.dtype.kind not in "biu" for k in keys):
        return np.lexsort(tuple(reversed(keys))), None
    spans = []  # (key, minimum, bit length of its span)
    for key in keys:
        if key.dtype.kind == "b":
            key = key.view(np.uint8)
        lo = int(key.min())
        bits = (int(key.max()) - lo).bit_length()
        if bits:
            spans.append((key, lo, bits))
    descents = 0  # of the last key kept: a lone key's count is its word's
    while spans:
        last = spans[-1][0]
        descents = np.count_nonzero(last[1:] < last[:-1])
        if descents:
            break
        spans.pop()
    word_bits = sum(bits for _, _, bits in spans)
    if word_bits > 64:
        return np.lexsort(tuple(reversed(keys))), None
    if not spans:
        return None, None
    word = None
    shift = 0
    for key, lo, bits in reversed(spans):
        # Wraps in the key's own width; read unsigned it is key - lo.
        field = (key - key.dtype.type(lo)).view(f"u{key.itemsize}")
        field = field.astype(np.uint64, copy=False)
        if word is None:
            word = field
        else:
            field <<= np.uint64(shift)
            word |= field
        shift += bits
    if len(spans) > 1:
        descents = np.count_nonzero(word[1:] < word[:-1])
        if descents == 0:
            return None, None
    if descents < _MERGE_MAX_RUNS:
        return np.argsort(word, kind="stable"), None
    index_bits = (n - 1).bit_length()
    if word_bits <= 16 or index_bits + word_bits > 64:
        return _digit_pass_order(word, word_bits), None
    # The low bits name the rows (``rows`` where they fit, else the
    # positions) and the high bits give back one int64 key.  Several
    # keys are gathered by the caller, through positions.
    unpack = with_keys and len(keys) == 1 and keys[0].dtype == np.int64
    named = unpack or not with_keys
    index = np.arange(n, dtype=np.uint64)
    if named and rows is not None:
        row_bits = int(rows[-1]).bit_length()
        if row_bits + word_bits <= 64:
            index, index_bits = rows.view(np.uint64), row_bits
        else:
            named = False
    word <<= np.uint64(index_bits)
    word |= index
    word = np.sort(word)
    sorted_keys: list[np.ndarray] | None = [] if named else None
    if named and unpack:
        # The key, shifted by its minimum, in the high bits: adding the
        # minimum back wraps in uint64 exactly as the shift wrapped.
        high = word >> np.uint64(index_bits)
        high += np.uint64(spans[0][1] & 0xFFFF_FFFF_FFFF_FFFF)
        sorted_keys = [high.view(np.int64)]
    word &= np.uint64((1 << index_bits) - 1)
    return word.view(np.int64), sorted_keys


def _digit_pass_order(word: np.ndarray, bits: int) -> np.ndarray:
    """The stable order of ``uint64`` words of ``bits`` bits by 16-bit
    least-significant-digit radix passes, low digit first."""
    order = None
    for shift in range(0, bits, 16):
        # numpy radix-sorts a byte per pass: a top digit of at most 8 bits
        # takes one pass as uint8, not two.
        width = np.uint8 if bits - shift <= 8 else np.uint16
        digit = (word >> np.uint64(shift) if shift else word).astype(width)
        order = (
            np.argsort(digit, kind="stable")
            if order is None
            else order[np.argsort(digit[order], kind="stable")]
        )
    return order


def run_starts(ranked: Sequence[np.ndarray]) -> np.ndarray:
    """Over rows sorted on the keys ``ranked``: True at the first row of
    each run of equal keys."""
    starts = np.empty(len(ranked[0]), dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[0][1:], ranked[0][:-1], out=starts[1:])
    for key in ranked[1:]:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def int_runs(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the stable order :func:`stable_int_order`
    returns and, over the rows in that order, True at the first row of
    each run of equal keys.  ``order[starts]`` is each distinct key's
    first row in the input."""
    order, ranked = stable_int_order(keys, with_keys=True)
    return order, run_starts(ranked)


def unique_ints(*arrays: np.ndarray) -> np.ndarray:
    """The sorted distinct values of integer arrays, as int64 — the set
    ``np.union1d`` / ``np.unique`` returns, without numpy's hash table.

    Under numpy 2.x a plain ``np.unique`` of integers builds a hash
    table, several times slower than ``np.sort`` of the same ids.  A span
    of less than ``_PRESENCE_MAX_SPAN`` times the row count (dense vertex
    ids) is marked in a boolean mask and read back in order; a wider one
    is sorted once and kept at each run's first value.
    """
    parts = [np.asarray(a, dtype=np.int64).ravel() for a in arrays]
    parts = [part for part in parts if len(part)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    lo = min(int(part.min()) for part in parts)
    hi = max(int(part.max()) for part in parts)
    if hi - lo < _PRESENCE_MAX_SPAN * sum(len(part) for part in parts):
        present = np.zeros(hi - lo + 1, dtype=bool)
        for part in parts:
            present[part - lo] = True
        values = np.flatnonzero(present)
        values += lo
        return values
    values = np.sort(np.concatenate(parts))
    return values[run_starts((values,))]


def value_ranks(values: np.ndarray) -> np.ndarray:
    """Dense value-order ranks — exactly ``np.unique(values,
    return_inverse=True)[1]`` as int64.  Integer values rank through
    :func:`int_runs` (one sort, then a run count); others go to
    ``np.unique``."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        return np.unique(values, return_inverse=True)[1].astype(np.int64, copy=False)
    order, starts = int_runs((values,))
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.cumsum(starts) - 1
    return ranks


def _column_codes(column: Column) -> np.ndarray:
    """Dense value-order group codes for one column; NULLs form their own
    group, after every value's."""
    mask = column.valid
    if mask.all():
        return value_ranks(column.values)
    codes = np.zeros(len(column), dtype=np.int64)
    if mask.any():
        codes[mask] = value_ranks(column.values[mask])
        codes[~mask] = codes[mask].max() + 1
    return codes


def factorize_columns(columns: Sequence[Column]) -> tuple[np.ndarray, int]:
    """Dense group codes over rows of one or more aligned columns.

    Returns ``(codes, n_groups)`` with ``codes`` in ``[0, n_groups)``: the
    rank of each row's key tuple, in value order with NULL after every
    value in each column.  NULLs compare equal to each other (SQL GROUP BY
    semantics).
    """
    if not columns:
        raise ExecutionError("factorize_columns needs at least one column")
    combined = _column_codes(columns[0])
    for column in columns[1:]:
        nxt = _column_codes(column)
        width = int(nxt.max(initial=0)) + 1
        # Re-rank so the product never overflows across many columns.
        combined = value_ranks(combined * width + nxt)
    return combined, int(combined.max(initial=-1)) + 1


def hash_bucket_order(
    bucket_ids: np.ndarray,
    n_buckets: int,
    sort_keys: Sequence[np.ndarray] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Stable row order grouping by bucket, plus per-bucket slice bounds.

    One stable sort keyed on ``(bucket, *sort_keys)``
    (:func:`stable_int_order`) replaces filtering the input once per
    bucket; because the sort is stable, rows within a
    bucket keep their relative input order (after the optional per-bucket
    sort keys).  This is the partitioning primitive shared by
    :class:`TransformOp` and the shard-resident data plane's message
    router.

    Returns:
        ``(order, bounds)`` — bucket ``b`` owns
        ``order[bounds[b]:bounds[b + 1]]``.
    """
    order = stable_int_order((bucket_ids, *sort_keys))
    bounds = np.searchsorted(
        bucket_ids[order], np.arange(n_buckets + 1), side="left"
    )
    return order, bounds


def _sort_key_ranks(column: Column, ascending: bool) -> np.ndarray:
    """A numeric key whose ascending order equals the column's SQL order.

    Equal values share a dense rank (so ties fall through to later sort
    keys under both directions).  NULLs sort after all values in ascending
    order (NULLS LAST) and before them when descending — i.e. NULL behaves
    like the largest value.
    """
    if column.dtype is INTEGER and bool(column.valid.all()):
        # Fast path: non-null integers are already a valid sort key —
        # skip the rank compaction (an extra full sort).
        # ``~x == -x - 1`` reverses the order without negation's
        # overflow at the int64 minimum.
        return column.values if ascending else ~column.values
    ranks = _column_codes(column)
    return ranks if ascending else -ranks


# ---------------------------------------------------------------------------
# Operator base
# ---------------------------------------------------------------------------
class Operator:
    """Base physical operator: a tree node that produces a batch."""

    #: filled in by subclasses
    schema: Schema

    def execute(self) -> RecordBatch:
        """Produce the full result batch."""
        raise NotImplementedError

    def children(self) -> tuple["Operator", ...]:
        """Child operators (for EXPLAIN)."""
        return ()

    def describe(self) -> str:
        """One EXPLAIN line for this node."""
        return type(self).__name__


def explain_tree(op: Operator, indent: int = 0) -> str:
    """Render an operator tree as indented EXPLAIN text."""
    lines = ["  " * indent + op.describe()]
    for child in op.children():
        lines.append(explain_tree(child, indent + 1))
    return "\n".join(lines)


def analyze_tree(op: Operator) -> tuple[RecordBatch, str]:
    """EXPLAIN ANALYZE: execute the tree with per-operator instrumentation.

    Every node's ``execute`` is shadowed (instance attribute) with a timed
    wrapper; after the run the tree is rendered with inclusive wall time
    and output row count per operator.

    Returns:
        ``(result batch, annotated plan text)``.
    """
    import time as _time

    metrics: dict[int, tuple[float, int]] = {}

    def instrument(node: Operator) -> None:
        for child in node.children():
            instrument(child)
        original = node.execute

        def timed() -> RecordBatch:
            started = _time.perf_counter()
            batch = original()
            metrics[id(node)] = (_time.perf_counter() - started, batch.num_rows)
            return batch

        node.execute = timed  # type: ignore[method-assign]
        if isinstance(node, FilterOp):
            # A parent that reads the filter as a selection never calls
            # its execute; the filter still reports its rows.
            select = node.selection

            def timed_selection() -> tuple[RecordBatch, np.ndarray]:
                started = _time.perf_counter()
                batch, rows = select()
                metrics[id(node)] = (_time.perf_counter() - started, len(rows))
                return batch, rows

            node.selection = timed_selection  # type: ignore[method-assign]

    instrument(op)
    result = op.execute()

    def render(node: Operator, indent: int) -> list[str]:
        seconds, rows = metrics.get(id(node), (0.0, 0))
        line = (
            "  " * indent
            + f"{node.describe()}  [rows={rows}, time={seconds * 1000:.2f}ms]"
        )
        lines = [line]
        for child in node.children():
            lines.extend(render(child, indent + 1))
        return lines

    return result, "\n".join(render(op, 0))


class TableScanOp(Operator):
    """Scan a stored table (by reference, so it sees the version current
    at execution time) under an optional alias."""

    def __init__(self, table: "Table", qualifier: str | None) -> None:
        self.table = table
        self.qualifier = qualifier
        self.schema = table.schema.with_qualifier(qualifier)

    def execute(self) -> RecordBatch:
        return self.table.data().with_schema(self.schema)

    def describe(self) -> str:
        alias = f" AS {self.qualifier}" if self.qualifier else ""
        return f"TableScan({self.table.name}{alias}, rows={self.table.num_rows})"


class BatchSourceOp(Operator):
    """Wrap an already-materialized batch (derived tables, transform IO)."""

    def __init__(self, batch: RecordBatch, qualifier: str | None = None) -> None:
        self.batch = batch
        if qualifier is not None:
            self.schema = batch.schema.unqualified().with_qualifier(qualifier)
        else:
            self.schema = batch.schema

    def execute(self) -> RecordBatch:
        return self.batch.with_schema(self.schema)

    def describe(self) -> str:
        return f"BatchSource(rows={self.batch.num_rows})"


class AliasOp(Operator):
    """Re-qualify a child's output under a table alias (derived tables)."""

    def __init__(self, child: Operator, alias: str) -> None:
        self.child = child
        self.alias = alias
        self.schema = child.schema.unqualified().with_qualifier(alias)

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Alias({self.alias})"

    def execute(self) -> RecordBatch:
        return self.child.execute().with_schema(self.schema)


class FilterOp(Operator):
    """Keep rows whose predicate evaluates to exactly TRUE."""

    def __init__(self, child: Operator, predicate: Expression, registry: FunctionRegistry) -> None:
        self.child = child
        self.predicate = predicate
        self.registry = registry
        self.schema = child.schema
        if infer_type(predicate, child.schema, registry) is not BOOLEAN:
            raise TypeMismatchError("WHERE/HAVING predicate must be BOOLEAN")

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def execute(self) -> RecordBatch:
        batch = self.child.execute()
        return batch.filter(self._passes(batch))

    def selection(self) -> tuple[RecordBatch, np.ndarray]:
        """``(input, rows)``: the child's batch and the ascending ids of
        the rows that pass, with no column gathered — what a parent that
        reads only some columns (:class:`ProjectOp`,
        :class:`AggregateOp`) takes instead of :meth:`execute`."""
        batch = self.child.execute()
        return batch, np.flatnonzero(self._passes(batch))

    def _passes(self, batch: RecordBatch) -> np.ndarray:
        flags = evaluate(self.predicate, batch, self.registry)
        return flags.values.astype(bool) & flags.valid

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


def _selected_input(child: Operator) -> tuple[RecordBatch, np.ndarray | None]:
    """``(batch, rows)``: a filter's input and selection, or any other
    child's output with ``rows`` ``None`` (every row)."""
    if isinstance(child, FilterOp):
        return child.selection()
    return child.execute(), None


def _gather(
    batch: RecordBatch,
    exprs: Sequence[Expression],
    ids: np.ndarray | None,
    selected: np.ndarray | None = None,
) -> RecordBatch:
    """The columns ``exprs`` reference, each gathered once at ``ids``
    (the whole batch when ``None``, or when there is no expression): any
    of ``exprs`` evaluates over it to its value over ``batch``, taken at
    ``ids``.

    ``selected`` — ascending row ids, ``ids`` being a permutation of
    them — makes the NULL check sequential: a column with no NULL in the
    selected rows gets an all-valid mask instead of a validity gather.
    """
    if ids is None or not exprs:
        return batch
    if selected is None:
        selected = ids
    refs = [ref for expr in exprs for ref in column_refs(expr)]
    # A column-free expression (``SUM(1)``) still needs the row count.
    indices = sorted({batch.schema.index_of(r.name, r.qualifier) for r in refs}) or [0]
    columns = []
    for index in indices:
        column = batch.columns[index]
        if column.valid.all() or (
            selected is not ids and column.valid[selected].all()
        ):
            valid = np.ones(len(ids), dtype=bool)
        else:
            valid = column.valid[ids]
        columns.append(Column(column.dtype, column.values[ids], valid))
    return RecordBatch(batch.schema.project(indices), columns)


class ProjectOp(Operator):
    """Compute one output column per expression.

    ``qualifiers`` (parallel to ``names``) lets ``SELECT *`` over a join
    keep table aliases on otherwise-colliding bare names.
    """

    def __init__(
        self,
        child: Operator,
        exprs: Sequence[Expression],
        names: Sequence[str],
        registry: FunctionRegistry,
        qualifiers: Sequence[str | None] | None = None,
    ) -> None:
        self.child = child
        self.exprs = list(exprs)
        self.registry = registry
        if qualifiers is None:
            qualifiers = [None] * len(names)
        dtypes = [infer_type(expr, child.schema, registry) for expr in self.exprs]
        self.schema = Schema(
            ColumnDef(name, dtype, qualifier=qual)
            for name, dtype, qual in zip(names, dtypes, qualifiers)
        )

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def execute(self) -> RecordBatch:
        # Over a filter, only the projected columns are gathered.
        batch, rows = _selected_input(self.child)
        batch = _gather(batch, self.exprs, rows)
        columns = []
        for expr, coldef in zip(self.exprs, self.schema):
            column = evaluate(expr, batch, self.registry)
            if column.dtype is not coldef.dtype:
                column = column.cast(coldef.dtype)
            columns.append(column)
        return RecordBatch(self.schema, columns)

    def describe(self) -> str:
        return f"Project({', '.join(c.qualified_name for c in self.schema)})"


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------
def _join_codes(left_cols: Sequence[Column], right_cols: Sequence[Column]) -> tuple[np.ndarray, np.ndarray]:
    """Consistent group codes for the two sides of an equi-join.

    Codes are computed over the concatenation so equal keys share a code.
    Rows with any NULL key get code -1 (SQL: NULL never joins).
    """
    from repro.engine.column import concat_columns

    stacked = [
        concat_columns([lc, rc]) for lc, rc in zip(left_cols, right_cols)
    ]
    codes, _ = factorize_columns(stacked)
    null_mask = np.zeros(len(codes), dtype=bool)
    for col in stacked:
        null_mask |= ~col.valid
    codes = codes.copy()
    codes[null_mask] = -1
    n_left = len(left_cols[0])
    return codes[:n_left], codes[n_left:]


def _expand_matches(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All matching (left_index, right_index) pairs via sort + searchsorted."""
    order = stable_int_order((right_codes,))
    sorted_codes = right_codes[order]
    start = np.searchsorted(sorted_codes, left_codes, side="left")
    end = np.searchsorted(sorted_codes, left_codes, side="right")
    matchable = left_codes >= 0
    counts = np.where(matchable, end - start, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    left_idx = np.repeat(np.arange(len(left_codes)), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(offsets, counts)
    right_pos = np.repeat(start, counts) + within
    return left_idx, order[right_pos]


def _null_padded(column: Column, indices: np.ndarray, pad: int) -> Column:
    """Take ``indices`` rows then append ``pad`` NULL rows (left-join side)."""
    taken = column.take(indices)
    if pad == 0:
        return taken
    padding = Column.constant(column.dtype, None, pad)
    from repro.engine.column import concat_columns

    return concat_columns([taken, padding])


class HashJoinOp(Operator):
    """Equi-join (inner or left outer) with optional residual predicate.

    The planner extracts equality conjuncts between the two sides as hash
    keys; any remaining condition is evaluated over candidate pairs.  For
    LEFT joins the residual is part of the join condition (unmatched left
    rows still appear once, padded with NULLs), matching SQL semantics.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[Expression],
        right_keys: Sequence[Expression],
        kind: str,
        residual: Expression | None,
        registry: FunctionRegistry,
    ) -> None:
        if kind not in ("inner", "left"):
            raise PlanError(f"unsupported join kind {kind!r}")
        if not left_keys:
            raise PlanError("HashJoinOp requires at least one equi-key")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.kind = kind
        self.residual = residual
        self.registry = registry
        self.schema = left.schema.concat(right.schema)
        for lk, rk in zip(self.left_keys, self.right_keys):
            lt = infer_type(lk, left.schema, registry)
            rt = infer_type(rk, right.schema, registry)
            if lt is not rt and not (lt.is_numeric and rt.is_numeric):
                raise TypeMismatchError(
                    f"join keys have incompatible types: {lt.name} vs {rt.name}"
                )

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"HashJoin({self.kind}, keys={len(self.left_keys)}, residual={self.residual is not None})"

    def execute(self) -> RecordBatch:
        left_batch = self.left.execute()
        right_batch = self.right.execute()
        left_cols = [evaluate(k, left_batch, self.registry) for k in self.left_keys]
        right_cols = [evaluate(k, right_batch, self.registry) for k in self.right_keys]
        for i, (lc, rc) in enumerate(zip(left_cols, right_cols)):
            if lc.dtype is not rc.dtype:  # INTEGER vs FLOAT keys: widen both
                left_cols[i] = lc.cast(FLOAT)
                right_cols[i] = rc.cast(FLOAT)
        left_codes, right_codes = _join_codes(left_cols, right_cols)
        left_idx, right_idx = _expand_matches(left_codes, right_codes)

        if self.residual is not None and len(left_idx):
            candidate = self._combine(left_batch, right_batch, left_idx, right_idx, 0)
            flags = evaluate(self.residual, candidate, self.registry)
            keep = flags.values.astype(bool) & flags.valid
            left_idx = left_idx[keep]
            right_idx = right_idx[keep]

        pad = 0
        pad_indices: np.ndarray | None = None
        if self.kind == "left":
            matched = np.zeros(left_batch.num_rows, dtype=bool)
            matched[left_idx] = True
            pad_indices = np.flatnonzero(~matched)
            pad = len(pad_indices)
        return self._combine(left_batch, right_batch, left_idx, right_idx, pad, pad_indices)

    def _combine(
        self,
        left_batch: RecordBatch,
        right_batch: RecordBatch,
        left_idx: np.ndarray,
        right_idx: np.ndarray,
        pad: int,
        pad_indices: np.ndarray | None = None,
    ) -> RecordBatch:
        columns: list[Column] = []
        if pad and pad_indices is not None:
            full_left = np.concatenate([left_idx, pad_indices])
        else:
            full_left = left_idx
        for col in left_batch.columns:
            columns.append(col.take(full_left))
        for col in right_batch.columns:
            columns.append(_null_padded(col, right_idx, pad))
        return RecordBatch(self.schema, columns)


class CrossJoinOp(Operator):
    """Cartesian product (also the fallback for non-equi join conditions,
    which the planner expresses as CrossJoin + Filter)."""

    def __init__(self, left: Operator, right: Operator) -> None:
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema)

    def children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return "CrossJoin"

    def execute(self) -> RecordBatch:
        left_batch = self.left.execute()
        right_batch = self.right.execute()
        n_left, n_right = left_batch.num_rows, right_batch.num_rows
        left_idx = np.repeat(np.arange(n_left), n_right)
        right_idx = np.tile(np.arange(n_right), n_left)
        columns = [col.take(left_idx) for col in left_batch.columns]
        columns += [col.take(right_idx) for col in right_batch.columns]
        return RecordBatch(self.schema, columns)


class UnionAllOp(Operator):
    """Concatenate child results; the paper's Table Unions optimization is
    exactly this node feeding a TransformOp."""

    def __init__(self, children: Sequence[Operator]) -> None:
        if not children:
            raise PlanError("UNION ALL of zero inputs")
        head = children[0]
        for child in children[1:]:
            if not head.schema.union_compatible_with(child.schema):
                raise TypeMismatchError("UNION ALL between incompatible schemas")
        self._children = list(children)
        self.schema = head.schema.unqualified()

    def children(self) -> tuple[Operator, ...]:
        return tuple(self._children)

    def describe(self) -> str:
        return f"UnionAll({len(self._children)} inputs)"

    def execute(self) -> RecordBatch:
        batches = [child.execute().with_schema(self.schema) for child in self._children]
        return RecordBatch.concat(batches)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute: function name, argument, DISTINCT flag."""

    func: str
    arg: Expression | None  # None encodes COUNT(*)
    distinct: bool = False


class AggregateOp(Operator):
    """Vectorized GROUP BY: one stable integer sort, reduceat per agg.

    A single non-NULL ``INTEGER`` key is its own group code, so it is
    sorted directly (:func:`stable_int_order`) — the SQL plane's message
    ``GROUP BY dst`` every superstep; any other key set is factorized
    into dense codes first and the codes are sorted.  Either way groups
    come out in ascending key order (factorize codes are value ranks),
    rows within a group in input order.

    Over a :class:`FilterOp` (``… WHERE p GROUP BY k``) the aggregate
    takes the filter's selection, not its batch: the kernel sorts the
    selected row ids by the codes and hands the codes back in that order,
    and each column an aggregate reads is gathered once, through those
    ids.  Integer ``MIN`` / ``MAX`` over a dense single key (a span of
    less than ``_PRESENCE_MAX_SPAN`` times the rows) skip even that
    gather (:func:`_extremum_by_key`).  The sums and the order they are
    taken in are the materialising plan's, so results are bit-identical.

    Output columns are the group keys (in ``group_exprs`` order) followed
    by the aggregates (in ``specs`` order), named by ``names``.
    """

    def __init__(
        self,
        child: Operator,
        group_exprs: Sequence[Expression],
        specs: Sequence[AggregateSpec],
        names: Sequence[str],
        registry: FunctionRegistry,
    ) -> None:
        self.child = child
        self.group_exprs = list(group_exprs)
        self.specs = list(specs)
        self.registry = registry
        dtypes: list[DataType] = [
            infer_type(expr, child.schema, registry) for expr in self.group_exprs
        ]
        for spec in self.specs:
            dtypes.append(self._result_type(spec, child.schema))
        if len(names) != len(dtypes):
            raise PlanError("aggregate output names/arity mismatch")
        self.schema = Schema(ColumnDef(n, t) for n, t in zip(names, dtypes))

    def _result_type(self, spec: AggregateSpec, schema: Schema) -> DataType:
        if spec.func == "COUNT":
            return INTEGER
        assert spec.arg is not None
        arg_type = infer_type(spec.arg, schema, self.registry)
        if spec.func in ("AVG", "STDDEV"):
            return FLOAT
        return arg_type

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def describe(self) -> str:
        aggs = ", ".join(f"{s.func}" for s in self.specs)
        return f"Aggregate(groups={len(self.group_exprs)}, aggs=[{aggs}])"

    def execute(self) -> RecordBatch:
        batch, rows = _selected_input(self.child)
        n = batch.num_rows if rows is None else len(rows)
        if self.group_exprs and n == 0:
            return RecordBatch.empty(self.schema)
        keyed = _gather(batch, self.group_exprs, rows)
        key_cols = [evaluate(e, keyed, self.registry) for e in self.group_exprs]
        n_groups: int | None
        int_key = (
            len(key_cols) == 1 and key_cols[0].dtype is INTEGER and key_cols[0].valid.all()
        )
        if int_key:
            codes, n_groups = key_cols[0].values, None  # counted below
        elif key_cols:
            codes, n_groups = factorize_columns(key_cols)
        else:
            codes = np.zeros(n, dtype=np.int64)
            n_groups = 1  # global aggregate: one output row even on empty input
        # ``order`` holds row ids of ``batch``; the sorted codes come back
        # with it (from the packed word's high bits when that path runs).
        order, (sorted_codes,) = stable_int_order((codes,), rows, with_keys=True)
        boundaries = np.flatnonzero(run_starts((sorted_codes,)))
        group_sizes = np.diff(np.append(boundaries, n))
        if n_groups is None:
            n_groups = len(boundaries)
            present = np.arange(n_groups)
            out_columns = [Column(INTEGER, sorted_codes[boundaries])]
        else:
            present = sorted_codes[boundaries]
            firsts = _gather(batch, self.group_exprs, order[boundaries])
            out_columns = [evaluate(e, firsts, self.registry) for e in self.group_exprs]

        # Integer MIN / MAX over a dense integer key reduce order-free
        # into a key-indexed array; every other aggregate reads its
        # argument in group order.  Each side gathers a referenced column
        # once.
        dense = int_key and (
            int(sorted_codes[-1]) - int(sorted_codes[0]) < _PRESENCE_MAX_SPAN * n
        )
        out_types = [coldef.dtype for coldef in self.schema[len(key_cols):]]
        by_key = [
            dense and spec.func in ("MIN", "MAX") and not spec.distinct and out_type is INTEGER
            for spec, out_type in zip(self.specs, out_types)
        ]
        keyed_args = [spec.arg for spec, k in zip(self.specs, by_key) if k]
        ordered_args = [
            spec.arg for spec, k in zip(self.specs, by_key) if not k and spec.arg is not None
        ]
        in_rows = _gather(batch, keyed_args, rows)
        in_order = _gather(batch, ordered_args, order, rows)
        for spec, out_type, keyed_spec in zip(self.specs, out_types, by_key):
            if keyed_spec:
                arg = evaluate(spec.arg, in_rows, self.registry)
                out_columns.append(
                    _extremum_by_key(spec.func, arg, codes, sorted_codes, boundaries, group_sizes)
                )
                continue
            arg = None if spec.arg is None else evaluate(spec.arg, in_order, self.registry)
            out_columns.append(
                self._compute(spec, out_type, arg, boundaries, group_sizes, n_groups, present)
            )
        return RecordBatch(self.schema, out_columns)

    # -- per-aggregate computation -------------------------------------
    def _compute(
        self,
        spec: AggregateSpec,
        out_type: DataType,
        arg: Column | None,
        boundaries: np.ndarray,
        group_sizes: np.ndarray,
        n_groups: int,
        present: np.ndarray,
    ) -> Column:
        """One aggregate from its argument in group order (``None`` for
        ``COUNT(*)``).  An argument without NULLs skips the per-group
        count and the NULL masking: the group sizes are the counts."""
        n_out = n_groups
        if arg is None:
            counts = np.zeros(n_out, dtype=np.int64)
            counts[present] = group_sizes
            return Column(INTEGER, counts, np.ones(n_out, dtype=bool))
        if spec.distinct:
            return self._compute_distinct(spec, arg, boundaries, present, n_out)

        sorted_values, sorted_valid = arg.values, arg.valid
        nulls = not sorted_valid.all()
        if not nulls:
            counts_present = group_sizes
        elif len(boundaries) == 0:
            counts_present = np.empty(0, dtype=np.int64)
        else:
            counts_present = np.add.reduceat(sorted_valid.astype(np.int64), boundaries)
        counts = np.zeros(n_out, dtype=np.int64)
        counts[present] = counts_present

        if spec.func == "COUNT":
            return Column(INTEGER, counts, np.ones(n_out, dtype=bool))

        if spec.func == "SUM" and out_type is INTEGER:
            # Exact int64 sums: through float64 they round above 2^53.
            values = sorted_values.astype(np.int64, copy=False)
            if nulls:
                values = np.where(sorted_valid, values, 0)
            sums_int = np.zeros(n_out, dtype=np.int64)
            if len(boundaries):
                sums_int[present] = np.add.reduceat(values, boundaries)
            return Column(INTEGER, sums_int, counts > 0)

        if spec.func in ("SUM", "AVG", "STDDEV"):
            # Float sums stay pairwise reduceat sums in group order: a
            # sequential np.bincount / np.add.at sum rounds differently.
            values = sorted_values.astype(np.float64, copy=False)
            if nulls:
                values = np.where(sorted_valid, values, 0.0)
            sums = np.zeros(n_out, dtype=np.float64)
            if len(boundaries):
                sums[present] = np.add.reduceat(values, boundaries)
            if spec.func == "SUM":
                return Column(FLOAT, sums, counts > 0)
            if spec.func == "AVG":
                valid = counts > 0
                safe = np.where(valid, counts, 1)
                return Column(FLOAT, sums / safe, valid)
            # STDDEV (sample)
            sq = np.where(sorted_valid, sorted_values.astype(np.float64) ** 2, 0.0)
            sumsq = np.zeros(n_out, dtype=np.float64)
            if len(boundaries):
                sumsq[present] = np.add.reduceat(sq, boundaries)
            valid = counts > 1
            safe_n = np.where(valid, counts, 2).astype(np.float64)
            var = (sumsq - sums**2 / safe_n) / (safe_n - 1.0)
            return Column(FLOAT, np.sqrt(np.maximum(var, 0.0)), valid)

        if spec.func in ("MIN", "MAX"):
            return self._compute_extremum(
                spec.func, out_type, sorted_values, sorted_valid, nulls, boundaries, present, counts, n_out
            )
        raise PlanError(f"unknown aggregate {spec.func!r}")  # pragma: no cover

    def _compute_extremum(
        self,
        func: str,
        out_type: DataType,
        sorted_values: np.ndarray,
        sorted_valid: np.ndarray,
        nulls: bool,
        boundaries: np.ndarray,
        present: np.ndarray,
        counts: np.ndarray,
        n_out: int,
    ) -> Column:
        valid = counts > 0
        if out_type is VARCHAR:
            out = np.empty(n_out, dtype=object)
            out[:] = ""
            ends = np.append(boundaries, len(sorted_values))
            for g in range(len(boundaries)):
                chunk_vals = sorted_values[boundaries[g] : ends[g + 1]]
                chunk_ok = sorted_valid[boundaries[g] : ends[g + 1]]
                items = [v for v, ok in zip(chunk_vals, chunk_ok) if ok]
                if items:
                    out[present[g]] = min(items) if func == "MIN" else max(items)
            return Column(VARCHAR, out, valid)
        ufunc = np.minimum if func == "MIN" else np.maximum
        if out_type is INTEGER:
            # Exact in int64 (through float64, ids above 2^53 round).
            values = sorted_values.astype(np.int64, copy=False)
            info = np.iinfo(np.int64)
            identity = info.max if func == "MIN" else info.min
        else:
            values = sorted_values.astype(np.float64, copy=False)
            identity = np.inf if func == "MIN" else -np.inf
        if nulls:
            values = np.where(sorted_valid, values, identity)
        agg = np.full(n_out, identity, dtype=values.dtype)
        if len(boundaries):
            agg[present] = ufunc.reduceat(values, boundaries)
        if not valid.all():
            agg = np.where(valid, agg, 0)
        if out_type is INTEGER:
            return Column(INTEGER, agg, valid)
        if out_type is BOOLEAN:
            return Column(BOOLEAN, agg.astype(bool), valid)
        return Column(FLOAT, agg, valid)

    def _compute_distinct(
        self,
        spec: AggregateSpec,
        arg: Column,
        boundaries: np.ndarray,
        present: np.ndarray,
        n_out: int,
    ) -> Column:
        if spec.func != "COUNT":
            raise PlanError("DISTINCT is supported only for COUNT")
        codes_in_group = np.repeat(
            np.arange(len(boundaries)), np.diff(np.append(boundaries, len(arg)))
        )
        value_codes = _column_codes(arg)
        width = value_codes.max(initial=0) + 1
        pairs = codes_in_group * width + value_codes
        group_of_pair = unique_ints(pairs[arg.valid]) // width
        counts = np.zeros(n_out, dtype=np.int64)
        if len(group_of_pair):
            bin_counts = np.bincount(group_of_pair, minlength=len(boundaries))
            counts[present] = bin_counts
        return Column(INTEGER, counts, np.ones(n_out, dtype=bool))


def _extremum_by_key(
    func: str,
    arg: Column,
    keys: np.ndarray,
    sorted_keys: np.ndarray,
    boundaries: np.ndarray,
    group_sizes: np.ndarray,
) -> Column:
    """``MIN`` / ``MAX`` of an ``INTEGER`` argument over a dense ``INTEGER``
    key, with ``arg`` and ``keys`` in input order: each value folds into
    its key's slot of a key-indexed array (``ufunc.at``).  An integer
    extremum does not depend on the order it is taken in, so no gather
    through the sort order is needed."""
    ufunc = np.minimum if func == "MIN" else np.maximum
    info = np.iinfo(np.int64)
    identity = info.max if func == "MIN" else info.min
    lo = sorted_keys[0]
    span = int(sorted_keys[-1] - lo) + 1
    slots = sorted_keys[boundaries] - lo
    values = arg.values.astype(np.int64, copy=False)
    counts = group_sizes
    if not arg.valid.all():
        values = np.where(arg.valid, values, identity)
        counts = np.bincount(keys[arg.valid] - lo, minlength=span)[slots]
    acc = np.full(span, identity, dtype=np.int64)
    ufunc.at(acc, keys - lo, values)
    valid = counts > 0
    agg = acc[slots]
    if not valid.all():
        agg = np.where(valid, agg, 0)
    return Column(INTEGER, agg, valid)


# ---------------------------------------------------------------------------
# Sort / limit / distinct
# ---------------------------------------------------------------------------
class SortOp(Operator):
    """ORDER BY via rank conversion + one stable integer sort
    (:func:`stable_int_order`; every rank array is int64)."""

    def __init__(
        self,
        child: Operator,
        keys: Sequence[Expression],
        ascending: Sequence[bool],
        registry: FunctionRegistry,
    ) -> None:
        self.child = child
        self.keys = list(keys)
        self.ascending = list(ascending)
        self.registry = registry
        self.schema = child.schema
        for key in self.keys:
            infer_type(key, child.schema, registry)  # type check early

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def describe(self) -> str:
        dirs = ", ".join("ASC" if a else "DESC" for a in self.ascending)
        return f"Sort({dirs})"

    def execute(self) -> RecordBatch:
        batch = self.child.execute()
        if batch.num_rows <= 1:
            return batch
        rank_arrays = [
            _sort_key_ranks(evaluate(key, batch, self.registry), asc)
            for key, asc in zip(self.keys, self.ascending)
        ]
        return batch.take(stable_int_order(rank_arrays))


class LimitOp(Operator):
    """LIMIT/OFFSET."""

    def __init__(self, child: Operator, limit: int | None, offset: int) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset
        self.schema = child.schema

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"

    def execute(self) -> RecordBatch:
        batch = self.child.execute()
        stop = batch.num_rows if self.limit is None else self.offset + self.limit
        return batch.slice(self.offset, stop)


class DistinctOp(Operator):
    """SELECT DISTINCT / UNION dedup: keep the first row of each group,
    preserving first-occurrence order."""

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.schema = child.schema

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "Distinct"

    def execute(self) -> RecordBatch:
        batch = self.child.execute()
        if batch.num_rows == 0:
            return batch
        codes, _ = factorize_columns(list(batch.columns))
        order, starts = int_runs((codes,))
        first = np.zeros(batch.num_rows, dtype=bool)
        first[order[starts]] = True
        return batch.take(np.flatnonzero(first))


# ---------------------------------------------------------------------------
# Transform (table UDF) — the Vertexica worker container
# ---------------------------------------------------------------------------
class TransformOp(Operator):
    """Partitioned table-UDF execution, Vertica-style.

    The input batch is hash partitioned on ``partition_exprs`` into
    ``n_partitions`` buckets; each bucket is sorted by ``sort_exprs`` and
    handed to ``fn`` (one call per non-empty bucket).  Outputs are
    concatenated.  This is exactly the execution shape of the paper's
    workers: "hash partitions the table union on the vertex id into a fixed
    number of partitions; each partition is sorted on the vertex id".
    """

    def __init__(
        self,
        child: Operator,
        fn: Callable[[RecordBatch, int], RecordBatch],
        output_schema: Schema,
        partition_exprs: Sequence[Expression],
        sort_exprs: Sequence[Expression],
        n_partitions: int,
        registry: FunctionRegistry,
        executor: Callable[..., list[RecordBatch]] | None = None,
    ) -> None:
        if n_partitions < 1:
            raise PlanError("n_partitions must be >= 1")
        self.child = child
        self.fn = fn
        self.schema = output_schema
        self.partition_exprs = list(partition_exprs)
        self.sort_exprs = list(sort_exprs)
        self.n_partitions = n_partitions
        self.registry = registry
        self.executor = executor

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Transform(partitions={self.n_partitions})"

    def execute(self) -> RecordBatch:
        batch = self.child.execute()
        tasks = self._partitioned_tasks(batch)
        if self.executor is not None:
            outputs = self.executor(self.fn, tasks)
        else:
            outputs = [self.fn(piece, index) for piece, index in tasks]
        outputs = [out for out in outputs if out.num_rows]
        if not outputs:
            return RecordBatch.empty(self.schema)
        return RecordBatch.concat([out.with_schema(self.schema) for out in outputs])

    def _partitioned_tasks(self, batch: RecordBatch) -> list[tuple[RecordBatch, int]]:
        """Hash-partitioned, sorted buckets in one vectorized pass.

        Instead of filtering the batch once per partition and argsorting
        each bucket (``n_partitions`` full-column gathers), the rows are
        ordered by a single stable sort keyed on (partition id,
        sort keys...), after which every bucket is a zero-copy slice of
        the reordered batch.  Row order within a bucket is identical to
        the filter-then-sort formulation because both are stable.
        """
        if batch.num_rows == 0:
            return []
        hashes = self._partition_ids(batch)
        sort_keys = [
            _sort_key_ranks(evaluate(e, batch, self.registry), True)
            for e in self.sort_exprs
        ]
        if hashes is None:
            if sort_keys:
                batch = batch.take(stable_int_order(sort_keys))
            return [(batch, 0)]
        order, bounds = hash_bucket_order(hashes, self.n_partitions, sort_keys)
        ordered = batch.take(order)
        return [
            (_slice_rows(ordered, int(bounds[p]), int(bounds[p + 1])), p)
            for p in range(self.n_partitions)
            if bounds[p + 1] > bounds[p]
        ]

    def _partition_ids(self, batch: RecordBatch) -> np.ndarray | None:
        """Partition id per row, or ``None`` for a single bucket."""
        if self.n_partitions == 1 or not self.partition_exprs:
            return None
        key_cols = [evaluate(e, batch, self.registry) for e in self.partition_exprs]
        if len(key_cols) == 1 and key_cols[0].dtype is INTEGER:
            return key_cols[0].values % self.n_partitions
        codes, _ = factorize_columns(key_cols)
        return codes % self.n_partitions


def _slice_rows(batch: RecordBatch, start: int, stop: int) -> RecordBatch:
    """A contiguous row range as zero-copy column views."""
    return RecordBatch(
        batch.schema,
        [
            Column(col.dtype, col.values[start:stop], col.valid[start:stop])
            for col in batch.columns
        ],
    )
