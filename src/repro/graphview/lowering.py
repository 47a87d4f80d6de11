"""Graph-view lowering: every compiled statement runs over pinned rows.

Each spec compiles (:mod:`repro.graphview.compiler`) to one or two SQL
statements that name the spec's own base table.  One function runs
them: :func:`run_spec` hands each statement to :func:`run_statement`,
which registers the :class:`~repro.engine.database.PinnedTable` under
its base table's own name in a private :class:`Database` — built as a
snapshot reader's shadow is, by :meth:`Database.from_pins` — runs the
SQL there, and converts the one result batch to the spec's node ids,
edge triples or co-occurrence side rows.  The pin holds one of:

* **the whole base table** — a full extraction (:func:`lower_view`);
* **a change log's inserted or deleted delta rows** — an incremental
  refresh (:mod:`repro.graphview.maintenance`).

:func:`lower_view` arms change capture on the view's base tables and pins
them under one lock acquisition, so the extraction reads one consistent
cut and its bookmarks name exactly the versions it read.  It then runs
every spec in-process, in declaration order; no statement ever touches
the live catalog.  The private catalog holds only built-in functions: a
spec expression cannot call a function added with
``db.register_function``.

A :class:`CoEdgeSpec` without a ``weight`` (a ``COUNT(*)`` of joined
rows) is lowered through :func:`expand_co_occurrence`, a group-by-``via``
pairwise expansion that replaces the quadratic SQL self-join.  A custom
aggregate ``weight`` keeps the self-join (:func:`co_edge_query`): only a
count decomposes per group.  Spelling the default out as
``weight="COUNT(*)"`` reaches the self-join too, which is how the tests
hold the expansion to the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.batch import RecordBatch
from repro.engine.database import Database, PinnedTable
from repro.engine.operators import run_starts, stable_int_order, value_ranks
from repro.errors import EngineError, GraphViewError
from repro.graphview.compiler import (
    co_edge_query,
    co_edge_side_query,
    edge_spec_queries,
    node_query,
)
from repro.graphview.spec import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec

__all__ = [
    "EdgeSpecResult",
    "LoweredExtraction",
    "edge_triples_from_batch",
    "expand_co_occurrence",
    "involved_tables",
    "lower_view",
    "node_ids_from_batch",
    "run_spec",
    "run_statement",
    "side_rows_from_batch",
    "spec_statements",
]

#: Pair buffer size above which the streamed expansion compacts its
#: accumulated per-group contributions into one summed array.
_EXPANSION_FLUSH_PAIRS = 1 << 21


@dataclass
class EdgeSpecResult:
    """Extraction output of one edge spec.

    ``triples`` holds one ``(src, dst, weight)`` array triple per lowered
    statement (undirected :class:`EdgeSpec` contributes two).  For
    expansion-lowered co-occurrence specs, ``side_member`` / ``side_via``
    carry the filtered side rows (NULLs already dropped) so incremental
    maintenance can seed its ledger without re-scanning the base table.
    """

    spec: object
    triples: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    side_member: np.ndarray | None = None
    side_via: np.ndarray | None = None


@dataclass
class LoweredExtraction:
    """Everything one pass over the base tables produced.

    ``bookmarks`` holds the ``(uid, version)`` of every base table the
    pass read, as pinned: the versions its arrays reflect.
    """

    node_parts: list[np.ndarray] = field(default_factory=list)
    edge_parts: list[EdgeSpecResult] = field(default_factory=list)
    num_queries: int = 0
    bookmarks: dict[str, tuple[int, int]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Co-occurrence expansion
# ---------------------------------------------------------------------------
def expand_co_occurrence(
    members: np.ndarray, vias: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise co-occurrence counts, group by group.

    Equivalent to the SQL self-join ``... ON a.via = b.via WHERE
    a.member <> b.member GROUP BY a.member, b.member`` with a ``COUNT(*)``
    weight: within each ``via`` group, every ordered pair of *distinct*
    members ``(a, b)`` receives ``rows(a) * rows(b)`` joined row pairs,
    summed across groups.  Runs in O(sum of group-pair counts) instead of
    materializing the join.  Per-group contributions stream through a
    pair buffer compacted at a fixed budget, so peak memory is bounded by
    the output size plus one flush buffer.

    Args:
        members: integer member ids (already cast, NULL rows dropped).
        vias: group keys, any comparable dtype, parallel to ``members``.

    Returns:
        ``(src, dst, weight)`` — one row per ordered pair, sorted by
        ``(src, dst)``; weights are float counts.
    """
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )
    if len(members) == 0:
        return empty
    # Per (group, member) row counts: one stable integer sort puts each
    # group in a contiguous slice with its members sorted, then run-length
    # boundaries give the distinct rows.  (Plain int columns through the
    # engine's order kernel throughout — never a structured array, which
    # numpy can only comparison-sort, record by record.)
    group_codes = value_ranks(vias)
    m_arr = np.asarray(members, dtype=np.int64)
    order = stable_int_order((group_codes, m_arr))
    g_sorted, m_sorted = group_codes[order], m_arr[order]
    starts = np.flatnonzero(run_starts((g_sorted, m_sorted)))
    gm_g, gm_m = g_sorted[starts], m_sorted[starts]
    gm_counts = np.diff(np.append(starts, len(m_sorted)))
    boundaries = np.flatnonzero(np.diff(gm_g, prepend=gm_g[0] - 1))
    boundaries = np.append(boundaries, len(gm_g))

    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    buffered = 0
    for g in range(len(boundaries) - 1):
        uniq = gm_m[boundaries[g]:boundaries[g + 1]]
        counts = gm_counts[boundaries[g]:boundaries[g + 1]]
        if len(uniq) < 2:
            continue
        a_idx = np.repeat(np.arange(len(uniq)), len(uniq))
        b_idx = np.tile(np.arange(len(uniq)), len(uniq))
        off_diag = a_idx != b_idx
        a_idx, b_idx = a_idx[off_diag], b_idx[off_diag]
        src_parts.append(uniq[a_idx])
        dst_parts.append(uniq[b_idx])
        count_parts.append(counts[a_idx] * counts[b_idx])
        buffered += len(a_idx)
        if buffered > _EXPANSION_FLUSH_PAIRS:
            src_parts, dst_parts, count_parts = _compact_pairs(
                src_parts, dst_parts, count_parts
            )
            buffered = len(src_parts[0])
    if not src_parts:
        return empty
    (src,), (dst,), (counts,) = _compact_pairs(src_parts, dst_parts, count_parts)
    return src, dst, counts.astype(np.float64)


def _compact_pairs(
    src_parts: list[np.ndarray],
    dst_parts: list[np.ndarray],
    count_parts: list[np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Merge buffered per-group pair contributions into one summed array,
    sorted by ``(src, dst)`` (so the final compaction's order IS the
    canonical output order)."""
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    counts = np.concatenate(count_parts)
    order = stable_int_order((src, dst))
    src, dst, counts = src[order], dst[order], counts[order]
    starts = np.flatnonzero(run_starts((src, dst)))
    return [src[starts]], [dst[starts]], [np.add.reduceat(counts, starts)]


# ---------------------------------------------------------------------------
# Batch -> array helpers (full extraction and incremental refresh both
# convert through them, so both apply identical NULL semantics: NULL
# endpoints drop the edge, NULL weights default to 1.0, NULL ids drop the
# node row, a NULL member or via drops the side row)
# ---------------------------------------------------------------------------
def node_ids_from_batch(batch) -> np.ndarray:
    """The non-NULL ``id`` values of a node-query result (multiplicity
    preserved — one entry per surviving row)."""
    col = batch.column("id")
    values = np.asarray(col.values, dtype=np.int64)
    return values[np.asarray(col.valid, dtype=bool)]


def edge_triples_from_batch(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, weight)`` arrays of an edge-query result with NULL
    endpoints dropped and NULL weights defaulted to 1.0."""
    src_col = batch.column("src")
    dst_col = batch.column("dst")
    weight_col = batch.column("weight")
    src = np.asarray(src_col.values, dtype=np.int64)
    dst = np.asarray(dst_col.values, dtype=np.int64)
    weight = np.asarray(weight_col.values, dtype=np.float64).copy()
    weight[~np.asarray(weight_col.valid, dtype=bool)] = 1.0
    keep = np.asarray(src_col.valid, dtype=bool) & np.asarray(dst_col.valid, dtype=bool)
    return src[keep], dst[keep], weight[keep]


def side_rows_from_batch(batch) -> tuple[np.ndarray, np.ndarray]:
    """``(member, via)`` arrays of a co-occurrence side-query result, in
    row order, with the rows holding a NULL member or via dropped (a NULL
    never equi-joins).  ``via`` keeps its column's dtype."""
    member_col = batch.column("member")
    via_col = batch.column("via")
    keep = np.asarray(member_col.valid, dtype=bool) & np.asarray(via_col.valid, dtype=bool)
    return np.asarray(member_col.values, dtype=np.int64)[keep], np.asarray(via_col.values)[keep]


# ---------------------------------------------------------------------------
# Statements and the one runner
# ---------------------------------------------------------------------------
def spec_statements(spec) -> list[tuple[str, str]]:
    """The ``(error label, SQL)`` statements one spec lowers to: a node
    query, one or two edge projections (an undirected :class:`EdgeSpec`
    adds the reversed one), or a :class:`CoEdgeSpec`'s side query — its
    self-join when it has a custom ``weight``."""
    if isinstance(spec, NodeSpec):
        return [("node spec", node_query(spec))]
    if isinstance(spec, EdgeSpec):
        return [("edge spec", sql) for sql in edge_spec_queries(spec)]
    if isinstance(spec, CoEdgeSpec):
        # Expansion cannot reproduce a custom aggregate weight — only
        # COUNT(*) decomposes per group — so such specs keep the join.
        sql = co_edge_side_query(spec) if spec.weight is None else co_edge_query(spec)
        return [("co-occurrence spec", sql)]
    raise GraphViewError(f"unknown spec type {type(spec).__name__}")


def run_statement(what: str, sql: str, pin: PinnedTable | None) -> RecordBatch:
    """Run one compiled statement over ``pin`` in a private catalog
    holding nothing else (see the module docstring); ``pin`` is ``None``
    when the base table does not exist, so the statement fails naming it.

    Raises:
        GraphViewError: the statement failed — naming the spec kind
            ``what`` and the SQL, chained to the engine error.
    """
    try:
        return Database.from_pins([pin] if pin is not None else []).query_batch(sql)
    except EngineError as exc:
        raise GraphViewError(f"graph-view {what} failed: {exc}\n  SQL: {sql}") from exc


def run_spec(spec, pin: PinnedTable | None):
    """Run one spec's compiled statements over one pin and convert them.

    The one driver of a spec's statements: a full extraction passes the
    whole base table's pin, an incremental refresh an inserted or a
    deleted delta pin.  Returns, by spec kind:

    * :class:`NodeSpec` — its non-NULL node ids;
    * :class:`EdgeSpec`, or a :class:`CoEdgeSpec` with a custom
      ``weight`` — one ``(src, dst, weight)`` triple per statement;
    * a :class:`CoEdgeSpec` without one — its ``(member, via)`` side rows.
    """
    batches = [run_statement(what, sql, pin) for what, sql in spec_statements(spec)]
    if isinstance(spec, NodeSpec):
        return node_ids_from_batch(batches[0])
    if isinstance(spec, CoEdgeSpec) and spec.weight is None:
        return side_rows_from_batch(batches[0])
    return [edge_triples_from_batch(batch) for batch in batches]


def involved_tables(view: GraphView) -> list[str]:
    """The distinct base tables a view reads, in first-use order."""
    seen: dict[str, None] = {}
    for spec in (*view.vertices, *view.edges):
        seen.setdefault(spec.table, None)
    return list(seen)


def _pin_base_tables(db: Database, view: GraphView) -> dict[str, PinnedTable]:
    """Arm change capture on the view's existing base tables and pin them,
    under one lock acquisition: capture covers every write after the
    pinned versions, so a refresh from those bookmarks misses none."""
    with db.lock:
        tables = [t for t in involved_tables(view) if db.has_table(t)]
        for table in tables:
            db.table_state(table)
        pins = db.pin_tables(tables)  # keyed by the catalog's spelling
        return {t: pins[db.table(t).name] for t in tables}


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
def lower_view(db: Database, view: GraphView) -> LoweredExtraction:
    """Run every spec of ``view`` over its pinned base table and convert
    the results (see the module docstring)."""
    pins = _pin_base_tables(db, view)
    specs = [*view.vertices, *view.edges]
    lowered = LoweredExtraction(
        num_queries=sum(len(spec_statements(spec)) for spec in specs),
        bookmarks={t: (pin.uid, pin.version) for t, pin in pins.items()},
    )
    for spec in view.vertices:
        lowered.node_parts.append(run_spec(spec, pins.get(spec.table)))
    for spec in view.edges:
        rows = run_spec(spec, pins.get(spec.table))
        if isinstance(spec, CoEdgeSpec) and spec.weight is None:
            member, via = rows
            lowered.edge_parts.append(
                EdgeSpecResult(
                    spec=spec,
                    triples=[expand_co_occurrence(member, via)],
                    side_member=member,
                    side_via=via,
                )
            )
        else:
            lowered.edge_parts.append(EdgeSpecResult(spec=spec, triples=rows))
    return lowered
