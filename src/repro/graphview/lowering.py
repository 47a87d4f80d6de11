"""Executor-parallel spec lowering for graph-view extraction.

The serial extraction path runs each compiled query through
:meth:`Database.query_batch` one after another.  This module fans that
work across the engine's :data:`~repro.engine.parallel.PartitionExecutor`
seam instead, at two grains:

* **independent specs** — every node query, edge query, and co-occurrence
  side query is its own task;
* **partition-sliced scans** — a single-table query over a large base
  table is split into row slices (registered as short-lived scratch
  tables, one per slice) whose results concatenate back in slice order.
  Scans, filters, and projections preserve row order, so the
  concatenation is bit-identical to the unsliced query.

Two executor-specific tricks keep parallelism real:

* **threads** — :meth:`Database.execute` serializes on the database lock,
  so every task is *planned* up front under one lock acquisition
  (:meth:`Database.plan_query`) and only the lock-free ``plan.execute()``
  runs on the pool.  Scratch slice tables live only for the duration of
  planning (plans hold direct table references) and are dropped in a
  ``finally`` even when a later spec fails to plan.
* **processes** — each task ships ``(sql, tables)`` with exactly the
  slice of data it scans; the worker rebuilds a throwaway
  :class:`Database`, runs the query, and pickles the batch back.

A full extraction runs on the session's
:class:`~repro.core.config.VertexicaConfig`: ``n_workers > 1`` fans out
on ``config.executor``, leased from the session's pools as a run's is
(so process-parallel extraction needs ``data_plane="shards"``, as process
runs do), and one worker lowers serially.

A :class:`CoEdgeSpec` without a ``weight`` (a ``COUNT(*)`` of joined
rows) is lowered through :func:`expand_co_occurrence`, a group-by-``via``
pairwise expansion that replaces the quadratic SQL self-join.  A custom
aggregate ``weight`` keeps the self-join (:func:`co_edge_query`): only a
count decomposes per group.  Spelling the default out as
``weight="COUNT(*)"`` reaches the self-join too, which is how the tests
hold the expansion to the same rows.

Every path produces bit-identical per-spec arrays; the determinism suite
in ``tests/graphview/test_parallel_extraction.py`` locks serial, thread,
and process lowering to the same bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.config import VertexicaConfig
from repro.engine.database import Database
from repro.engine.operators import run_starts, stable_int_order, unique_ints, value_ranks
from repro.engine.parallel import NO_SESSION, PartitionExecutor, SessionPools
from repro.engine.table import Table
from repro.errors import EngineError, GraphViewError
from repro.graphview.compiler import (
    co_edge_query,
    co_edge_side_query,
    edge_spec_queries,
    node_query,
)
from repro.graphview.maintenance import edge_triples_from_batch, node_ids_from_batch
from repro.graphview.spec import CoEdgeSpec, EdgeSpec, GraphView

__all__ = [
    "EdgeSpecResult",
    "LoweredExtraction",
    "expand_co_occurrence",
    "lower_view",
]

#: Pair buffer size above which the streamed expansion compacts its
#: accumulated per-group contributions into one summed array.
_EXPANSION_FLUSH_PAIRS = 1 << 21

#: Largest distinct-member universe expanded through the dense
#: ``member x member`` count matrix (4096**2 int64 = 128 MiB); bigger
#: universes take the bounded-memory streaming path instead.
_DENSE_MEMBER_LIMIT = 4096

#: A parallel lowering splits a single-table scan into row slices only
#: when its base table has at least this many rows (below it, per-task
#: overhead beats the parallelism).
_SLICE_MIN_ROWS = 50_000

_slice_counter = itertools.count()


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
    """Everything one pass over the base tables produced."""

    node_parts: list[np.ndarray] = field(default_factory=list)
    edge_parts: list[EdgeSpecResult] = field(default_factory=list)
    num_queries: int = 0
    parallelism: int = 1


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
    materializing the join.  When the distinct-member universe is small
    enough for a dense ``member x member`` accumulator
    (:data:`_DENSE_MEMBER_LIMIT`), groups sum straight into it via
    ``np.ix_`` outer products; otherwise per-group contributions stream
    through a pair buffer compacted at a fixed budget, so peak memory is
    bounded by the output size plus one flush buffer.

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

    univ = unique_ints(gm_m)
    if len(univ) <= _DENSE_MEMBER_LIMIT:
        return _expand_dense(univ, gm_m, gm_counts, boundaries)

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


def _expand_dense(
    univ: np.ndarray,
    gm_m: np.ndarray,
    gm_counts: np.ndarray,
    boundaries: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum every group's ``outer(counts, counts)`` into one dense
    ``member x member`` matrix — each group touches only its own
    submatrix (``np.ix_``), so the work is O(sum of group-pair counts)
    with array constants instead of repeated sort-and-merge passes.
    ``np.nonzero`` walks the matrix row-major, which IS the canonical
    ``(src, dst)`` order (``univ`` is sorted ascending)."""
    matrix = np.zeros((len(univ), len(univ)), dtype=np.int64)
    codes = np.searchsorted(univ, gm_m)
    for g in range(len(boundaries) - 1):
        group_codes = codes[boundaries[g]:boundaries[g + 1]]
        if len(group_codes) < 2:
            continue
        counts = gm_counts[boundaries[g]:boundaries[g + 1]]
        matrix[np.ix_(group_codes, group_codes)] += np.outer(counts, counts)
    np.fill_diagonal(matrix, 0)
    src_idx, dst_idx = np.nonzero(matrix)
    return univ[src_idx], univ[dst_idx], matrix[src_idx, dst_idx].astype(np.float64)


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
# Query jobs
# ---------------------------------------------------------------------------
@dataclass
class _QueryJob:
    """One compiled statement of the extraction, with a table override
    hook so the same lowering can run over scratch slice tables."""

    what: str  # error label: "node spec" / "edge spec" / "co-occurrence spec"
    sql_for: Callable[[str | None], str]
    base_table: str | None  # None: not sliceable (join-shaped query)
    convert: str  # "ids" | "triples" | "side"


def _build_jobs(view: GraphView) -> list[_QueryJob]:
    jobs: list[_QueryJob] = []
    for spec in view.vertices:
        jobs.append(
            _QueryJob(
                "node spec",
                lambda t, s=spec: node_query(s, table=t),
                spec.table,
                "ids",
            )
        )
    for spec in view.edges:
        if isinstance(spec, EdgeSpec):
            n_directions = 1 if spec.directed else 2
            for k in range(n_directions):
                jobs.append(
                    _QueryJob(
                        "edge spec",
                        lambda t, s=spec, k=k: edge_spec_queries(s, table=t)[k],
                        spec.table,
                        "triples",
                    )
                )
        elif isinstance(spec, CoEdgeSpec):
            # Expansion cannot reproduce a custom aggregate weight — only
            # COUNT(*) decomposes per group — so such specs keep the join.
            if spec.weight is not None:
                jobs.append(
                    _QueryJob(
                        "co-occurrence spec",
                        lambda t, s=spec: co_edge_query(s, table=t),
                        None,
                        "triples",
                    )
                )
            else:
                jobs.append(
                    _QueryJob(
                        "co-occurrence spec",
                        lambda t, s=spec: co_edge_side_query(s, table=t),
                        spec.table,
                        "side",
                    )
                )
        else:  # pragma: no cover - GraphView.validate rejects this
            raise GraphViewError(f"unknown edge spec type {type(spec).__name__}")
    return jobs


def _slice_bounds(num_rows: int, n_slices: int) -> list[tuple[int, int]]:
    edges = [round(num_rows * i / n_slices) for i in range(n_slices + 1)]
    return [(a, b) for a, b in zip(edges, edges[1:]) if a < b]


def _plan_slices(
    db: Database, job: _QueryJob, workers: int
) -> list[tuple[str | None, tuple[int, int] | None]]:
    """Decide the (table_override, row_range) units one job runs as."""
    if job.base_table is None or workers <= 1:
        return [(None, None)]
    num_rows = db.table(job.base_table).num_rows
    if num_rows < _SLICE_MIN_ROWS:
        return [(None, None)]
    n_slices = min(workers, max(1, num_rows // _SLICE_MIN_ROWS))
    if n_slices < 2:
        return [(None, None)]
    return [(None, bounds) for bounds in _slice_bounds(num_rows, n_slices)]


# ---------------------------------------------------------------------------
# Execution strategies
# ---------------------------------------------------------------------------
def _wrap_engine_error(what: str, sql: str, exc: EngineError) -> GraphViewError:
    return GraphViewError(f"graph-view {what} failed: {exc}\n  SQL: {sql}")


def _run_serial(db: Database, jobs: list[_QueryJob]) -> tuple[list[list], int]:
    """The historical path: one ``query_batch`` per compiled statement."""
    per_job: list[list] = []
    for job in jobs:
        sql = job.sql_for(None)
        try:
            per_job.append([db.query_batch(sql)])
        except EngineError as exc:
            raise _wrap_engine_error(job.what, sql, exc) from exc
    return per_job, len(jobs)


def _run_threads(
    db: Database,
    jobs: list[_QueryJob],
    workers: int,
    executor: PartitionExecutor,
) -> tuple[list[list], int]:
    """Plan every unit under the database lock, execute lock-free on the
    thread pool.  Scratch slice tables exist only while their unit plans."""
    units: list[tuple[int, object]] = []  # (job index, plan)
    with db.lock:
        for job_index, job in enumerate(jobs):
            for _, bounds in _plan_slices(db, job, workers):
                if bounds is None:
                    sql = job.sql_for(None)
                    try:
                        plan = db.plan_query(sql)
                    except EngineError as exc:
                        raise _wrap_engine_error(job.what, sql, exc) from exc
                else:
                    plan = _plan_over_slice(db, job, bounds)
                units.append((job_index, plan))
    try:
        batches = executor(
            lambda plan, index: plan.execute(),
            [(plan, index) for index, (_, plan) in enumerate(units)],
        )
    except EngineError as exc:
        raise GraphViewError(f"graph-view extraction failed: {exc}") from exc
    per_job: list[list] = [[] for _ in jobs]
    for (job_index, _), batch in zip(units, batches):
        per_job[job_index].append(batch)
    return per_job, len(units)


def _plan_over_slice(db: Database, job: _QueryJob, bounds: tuple[int, int]):
    """Register one scratch slice table, plan against it, and drop it —
    the plan keeps a direct reference to the slice, so the catalog entry
    only needs to exist for the duration of planning."""
    base = db.table(job.base_table)
    scratch = f"_gvslice_{next(_slice_counter)}"
    sql = job.sql_for(scratch)
    db.catalog.register(
        Table(scratch, base.schema, base.data().slice(bounds[0], bounds[1]))
    )
    try:
        return db.plan_query(sql)
    except EngineError as exc:
        raise _wrap_engine_error(job.what, sql, exc) from exc
    finally:
        db.catalog.drop(scratch, if_exists=True)


def _execute_remote_unit(item, index):
    """Process-worker task body: rebuild a throwaway database holding
    exactly the shipped tables, run the query, return the batch.
    Module-level so it pickles into spawned workers."""
    sql, tables = item
    db = Database()
    for name, schema, batch in tables:
        db.catalog.register(Table(name, schema, batch))
    return db.query_batch(sql)


def _run_processes(
    db: Database,
    jobs: list[_QueryJob],
    workers: int,
    executor: PartitionExecutor,
) -> tuple[list[list], int]:
    """Ship each unit's slice of base data to the worker processes."""
    units: list[tuple[int, tuple]] = []  # (job index, (sql, tables))
    with db.lock:
        for job_index, job in enumerate(jobs):
            for _, bounds in _plan_slices(db, job, workers):
                if bounds is None:
                    tables = sorted(_job_tables(job))
                    payload_tables = [
                        (t, db.table(t).schema, db.table(t).data()) for t in tables
                    ]
                    sql = job.sql_for(None)
                else:
                    base = db.table(job.base_table)
                    scratch = f"_gvslice_{next(_slice_counter)}"
                    payload_tables = [
                        (scratch, base.schema, base.data().slice(bounds[0], bounds[1]))
                    ]
                    sql = job.sql_for(scratch)
                units.append((job_index, (sql, payload_tables)))
    try:
        batches = executor(
            _execute_remote_unit,
            [(payload, index) for index, (_, payload) in enumerate(units)],
        )
    except EngineError as exc:
        raise GraphViewError(f"graph-view extraction failed: {exc}") from exc
    per_job: list[list] = [[] for _ in jobs]
    for (job_index, _), batch in zip(units, batches):
        per_job[job_index].append(batch)
    return per_job, len(units)


def _job_tables(job: _QueryJob) -> set[str]:
    """Base tables a job's query reads (what a process worker must have
    registered).  Sliceable jobs name theirs; a join-shaped co-occurrence
    query reads its spec table under two aliases, so take the token after
    every FROM/JOIN keyword (compiled SQL never nests derived tables)."""
    if job.base_table is not None:
        return {job.base_table}
    tokens = job.sql_for(None).split()
    return {
        tokens[i + 1]
        for i, token in enumerate(tokens[:-1])
        if token.upper() in ("FROM", "JOIN")
    }


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
def lower_view(
    db: Database,
    view: GraphView,
    config: VertexicaConfig | None = None,
    pools: SessionPools | None = None,
) -> LoweredExtraction:
    """Run every compiled query of ``view`` and convert the results.

    ``config`` (the session's; ``None`` lowers serially) supplies the
    executor and worker count.  Serial, thread, and process execution
    produce bit-identical per-spec arrays; see the module docstring for
    how each strategy works.  A parallel lowering leases its pool from
    ``pools`` — the session's, the same one its runs use — or, without
    one, a private pool.
    """
    config = config or VertexicaConfig()
    jobs = _build_jobs(view)
    workers = config.n_workers
    if workers == 1:
        per_job, num_queries = _run_serial(db, jobs)
    else:
        run = _run_threads if config.executor == "threads" else _run_processes
        with (pools or NO_SESSION).lease(config.executor, workers) as executor:
            per_job, num_queries = run(db, jobs, workers, executor)

    result = LoweredExtraction(num_queries=num_queries, parallelism=workers)
    job_iter = iter(zip(jobs, per_job))

    for _ in view.vertices:
        job, batches = next(job_iter)
        result.node_parts.append(
            _concat_int([node_ids_from_batch(b) for b in batches])
        )
    for spec in view.edges:
        if isinstance(spec, EdgeSpec):
            triples = []
            n_directions = 1 if spec.directed else 2
            for _ in range(n_directions):
                _, batches = next(job_iter)
                triples.append(_concat_triples([edge_triples_from_batch(b) for b in batches]))
            result.edge_parts.append(EdgeSpecResult(spec=spec, triples=triples))
        else:
            job, batches = next(job_iter)
            if job.convert == "triples":  # custom weight: the self-join
                result.edge_parts.append(
                    EdgeSpecResult(
                        spec=spec,
                        triples=[_concat_triples(
                            [edge_triples_from_batch(b) for b in batches]
                        )],
                    )
                )
                continue
            member, via = _concat_side(batches)
            result.edge_parts.append(
                EdgeSpecResult(
                    spec=spec,
                    triples=[expand_co_occurrence(member, via)],
                    side_member=member,
                    side_via=via,
                )
            )
    return result


def _concat_int(parts: Sequence[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def _concat_triples(
    triples: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(triples) == 1:
        return triples[0]
    return (
        np.concatenate([t[0] for t in triples]),
        np.concatenate([t[1] for t in triples]),
        np.concatenate([t[2] for t in triples]),
    )


def _concat_side(batches: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Valid ``(member, via)`` rows of the side-query batches, in row
    order (NULL member or via rows never join — drop them here once)."""
    member_parts: list[np.ndarray] = []
    via_parts: list[np.ndarray] = []
    for batch in batches:
        member_col = batch.column("member")
        via_col = batch.column("via")
        keep = np.asarray(member_col.valid, dtype=bool) & np.asarray(
            via_col.valid, dtype=bool
        )
        member_parts.append(np.asarray(member_col.values, dtype=np.int64)[keep])
        via_parts.append(np.asarray(via_col.values)[keep])
    member = (
        np.concatenate(member_parts) if member_parts else np.empty(0, dtype=np.int64)
    )
    via = np.concatenate(via_parts) if via_parts else np.empty(0, dtype=np.int64)
    return member, via
