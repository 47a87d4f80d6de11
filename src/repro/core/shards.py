"""The shard-resident superstep data plane (``data_plane="shards"``).

The paper's workers "hash partition the table union on the vertex id"
**every superstep** — the SQL plane faithfully pays that cost each
iteration: re-run the union input query, lexsort the whole relation into
partitions, stage worker output into a table, and apply it back with SQL.
This module keeps the run state resident instead:

1. **Partition once.**  The graph is hash-partitioned into
   ``n_partitions`` vid-hash shards (``vid % n_shards`` — the same
   bucketing :class:`~repro.engine.operators.TransformOp` uses, so both
   planes compute over identical vertex groupings).  Each
   :class:`VertexShard` owns its sorted vertex ids, halt flags,
   storage-encoded values, and a CSR view of its out-edges (built once
   per graph version — see **Lifetime**).
2. **Compute shard-local.**  Every superstep builds a
   :class:`~repro.core.worker._DecodedPartition` view straight over the
   resident arrays — no SQL, no decode — and runs the *same* layer-2
   compute as the SQL plane (:meth:`VertexWorker.compute_decoded`), so
   batch and scalar programs work unchanged.  Shard tasks have no global
   sort barrier and need nothing from the engine, which is what lets
   ``n_workers > 1`` run them in worker processes (below).
3. **Route messages in-plane, delivering once.**  A destination shard
   receives its messages ordered by (destination id, source shard,
   emission order) — exactly the delivery order the SQL plane produces
   via the staging table and the per-superstep lexsort, which is what
   keeps float reductions (``sum(messages)``) bit-identical across
   planes.  The edge-aligned sends (``VertexBatch.send_to_all_neighbors``
   / ``send_along_edges``) emit a CSR-order subsequence of their shard's
   out-edge list, so for them that order is a property of the edges
   alone: the :class:`DeliveryPlan` lists, per destination shard, every
   edge in delivery order with its sender's row, and the run-constant
   combine boundaries.  A superstep in which every task sent that way is
   then one gather plus one ``reduceat`` per destination (the plan
   filtered under the sender mask first when most, but not all, edges
   sent).  ``send_to_all_neighbors`` keeps one payload per vertex, and
   its gather reads each edge's payload at the sender's row, so no
   per-edge payload is ever built for it.  Arbitrary ``send()`` traffic,
   multi-block tasks, the scalar ``compute`` path and sparser frontiers
   sort each destination's rows at the barrier with
   :func:`~repro.engine.operators.stable_int_order`; both give the same
   order.  Combiners are applied at the destination shard with the same
   ``reduceat`` arithmetic, in the message column's own type, that the
   SQL ``GROUP BY`` uses.

**Lifetime.**  Nothing in points 1 and 3 depends on a run: the vid-hash
split of the vertex ids, the CSR out-edges and the delivery plan form a
:class:`ShardIndex` of the ``(edge table, node table, n_partitions)``
version, kept in the edge table's derived-state slot
(:attr:`~repro.engine.table.Table.derived`), which every mutation of the
edge table clears.  :func:`shard_index` is its one fetch, and both data
planes use it: this plane for its shards, the SQL plane for the out-edges
of its union input's partitions (partition ``p`` of ``vid % n`` is shard
``p``).  A run on either plane reuses the index while both tables'
``(uid, version)`` and ``n_partitions`` match, and otherwise rebuilds it;
a run allocates only its own state — values, halt flags and inboxes.
Rollback and resume restore only the vertex and message tables, so they
reuse it too.

Relational interop: :meth:`ShardedDataPlane.sync_tables` mirrors the
resident state into the vertex and message tables.  The coordinator
calls it before each checkpoint write and once at completion (quiescence
or the superstep cap) unless a checkpoint sync already wrote that state,
under its rollback guard; between those points the tables hold the last
sync's state.

**Process-parallel execution** (``n_workers > 1``): when the
coordinator binds a :class:`~repro.engine.parallel.ProcessExecutor`
(:meth:`ShardedDataPlane.bind_executor`), the fixed-width shard arrays —
ids, halt flags, encoded values, validity, CSR edges — are copied into
``multiprocessing.shared_memory`` segments (:mod:`repro.core.shmem`) and
the run's vertex state is rebound to views over them (the index's arrays
are only copied: they outlive the run's segments).  A picklable
bootstrap ships the program closure, segment descriptors, and the armed
fault plan to every worker process of the session's pool exactly once
per plane (at run start and on plane rebuilds), and closing the plane
tells the workers to drop it again, so an idle pool maps no segment
between runs; per superstep only a tiny :class:`_ProcessStep`
descriptor crosses the pipe.  Message inboxes are published into fresh
shared segments each superstep.  Every shard task returns a
:class:`ShardTaskOutput` whose aggregator partials are already reduced
to *scalars* — the shard-resident aggregator fast path, shared with
the serial path — so the barrier reduces a handful of floats, not arrays.
Parent-side apply/route/reduce run in the exact same order as the
in-process path, which is what keeps process execution bit-identical to
serial execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import faults
from repro.core.config import VertexicaConfig
from repro.core.metrics import StepStats
from repro.core.program import VertexProgram
from repro.core.shmem import GroupDescriptor, SharedArrayGroup, new_segment_name
from repro.core.storage import GraphHandle, GraphStorage, storage_form
from repro.core.worker import (
    EmittedMessages,
    StagedRows,
    VertexWorker,
    _csr_align,
    _DecodedPartition,
)
from repro.engine.database import Database
from repro.engine.operators import hash_bucket_order, run_starts, stable_int_order
from repro.engine.parallel import PartitionExecutor, ProcessExecutor

__all__ = [
    "ShardedDataPlane",
    "ShardIndex",
    "shard_index",
    "DeliveryPlan",
    "VertexShard",
    "ShardTaskOutput",
    "EmittedMessages",
    "PlaneMeta",
]


def _read_only(*arrays: np.ndarray) -> None:
    """Freeze arrays that outlive a run: a run copies what it mutates."""
    for array in arrays:
        array.setflags(write=False)


@dataclass(frozen=True)
class DeliveryPlan:
    """Message delivery for the edge-aligned sends, precomputed.

    A *position* is an edge's index in the concatenation of every shard's
    CSR out-edge list, in shard order (:attr:`ShardIndex.targets`); a
    *sender row* is a vertex's index in the concatenation of every shard's
    vertex ids, in shard order (:attr:`ids`).  For destination shard
    ``d``, ``order[d]`` lists the positions of the edges whose target
    lands in ``d`` in delivery order — ``(target, source shard, CSR
    position)``, i.e. ``(target, position)`` — which is the order a stable
    ``(destination shard, destination id)`` sort of each source shard's
    messages followed by a stable merge by destination id gives when every
    edge sends, and ``sender_rows[d]`` the sender row of each of those
    edges: a vertex-aligned send's payloads, laid end to end like
    :attr:`ids`, are gathered through it.  ``starts[d]`` are the combine
    boundaries (where each target's run begins in ``order[d]``),
    ``senders[d]`` the ``MIN(sender)`` of each run and ``targets[d]`` its
    destination id.
    """

    order: tuple[np.ndarray, ...]
    sender_rows: tuple[np.ndarray, ...]
    starts: tuple[np.ndarray, ...]
    senders: tuple[np.ndarray, ...]
    targets: tuple[np.ndarray, ...]
    ids: np.ndarray


def _index_dtype(n: int) -> type:
    """int32 when every index below ``n`` fits, else int64."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _build_delivery_plan(index: "ShardIndex") -> DeliveryPlan:
    """Per destination shard, one stable sort of its edges' positions by
    target: ties keep position order, which within a target is (source
    shard, CSR position) — the same permutation as a stable ``(dest
    shard, dest id)`` sort of all positions, sorted one bucket at a time
    so that only one bucket's temporaries are alive at once."""
    n = index.n_shards
    targets = index.targets
    buckets = (targets % n).astype(np.min_scalar_type(n))
    ids = np.concatenate(index.vertex_ids)
    # The sender row of every position: shard s's rows follow shard s - 1's
    # in both concatenations, and a row repeats once per out-edge.
    source_rows = np.repeat(
        np.arange(len(ids), dtype=_index_dtype(len(ids))),
        np.concatenate([np.diff(indptr) for indptr in index.edge_indptr]),
    )
    orders, sender_rows, starts, senders, group_targets = [], [], [], [], []
    for d in range(n):
        positions = np.flatnonzero(buckets == d)
        dst = targets[positions]
        by_target = stable_int_order((dst,))
        positions, dst = positions[by_target], dst[by_target]
        rows = source_rows[positions]
        runs = np.flatnonzero(run_starts((dst,)))
        orders.append(positions.astype(_index_dtype(len(targets))))
        sender_rows.append(rows)
        starts.append(runs)
        senders.append(
            np.minimum.reduceat(ids[rows], runs) if len(runs) else np.empty(0, np.int64)
        )
        group_targets.append(dst[runs])
    _read_only(ids, *orders, *sender_rows, *starts, *senders, *group_targets)
    return DeliveryPlan(
        tuple(orders), tuple(sender_rows), tuple(starts), tuple(senders), tuple(group_targets), ids
    )


class ShardIndex:
    """The run-independent topology of one graph version, read by both
    data planes.

    Built from the vertex ids (the sorted vertex table) and the edge table
    for ``n_shards`` shards: the vid-hash split (shard ``s`` owns
    ``vertex_ids[s]``, which are ``all_ids[split_order[split_bounds[s]:
    split_bounds[s + 1]]]``) and each shard's CSR out-edges, laid end to
    end in shard order so that :attr:`targets` / :attr:`weights` are the
    concatenation of every shard's edge list and shard ``s`` owns
    ``[edge_offsets[s]:edge_offsets[s + 1]]`` of them.  Edges sort by
    source within a shard and equal sources keep table order.  Edges from
    ids with no vertex row are dropped.  The :class:`DeliveryPlan` is built on
    first use.

    :func:`shard_index` keeps the index in the edge table's derived-state
    slot under :attr:`key`, and both data planes reuse it across runs;
    every array is read-only, and process execution copies them into
    shared memory instead of rebinding them.
    """

    def __init__(
        self,
        key: tuple,
        all_ids: np.ndarray,
        esrc: np.ndarray,
        edst: np.ndarray,
        eweight: np.ndarray,
        n_shards: int,
    ) -> None:
        n = n_shards
        self.key = key
        self.n_shards = n
        self.all_ids = all_ids = np.array(all_ids, dtype=np.int64)  # own it: frozen below
        self.split_order, self.split_bounds = hash_bucket_order(all_ids % n, n)
        e_order, e_bounds = hash_bucket_order(esrc % n, n, (esrc,))
        self.vertex_ids: list[np.ndarray] = []
        self.edge_indptr: list[np.ndarray] = []
        kept = []  # per shard, the table rows of its CSR edges in order
        for s in range(n):
            shard_ids = all_ids[self.split_order[self.split_bounds[s] : self.split_bounds[s + 1]]]
            e_sel = e_order[e_bounds[s] : e_bounds[s + 1]]
            indptr, (e_sel,), _ = _csr_align(esrc[e_sel], shard_ids, (e_sel,))
            self.vertex_ids.append(shard_ids)
            self.edge_indptr.append(indptr)
            kept.append(e_sel)
        self.edge_offsets = np.concatenate(([0], np.cumsum([len(k) for k in kept])))
        rows = np.concatenate(kept)
        del e_order, kept
        self.targets = edst[rows]
        self.weights = eweight[rows]
        _read_only(
            all_ids, self.split_order, self.split_bounds, self.edge_offsets,
            self.targets, self.weights, *self.vertex_ids, *self.edge_indptr,
        )
        self._plan: DeliveryPlan | None = None

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    def shard_edges(self, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shard ``s``'s CSR ``(indptr, targets, weights)``."""
        lo, hi = self.edge_offsets[s], self.edge_offsets[s + 1]
        return self.edge_indptr[s], self.targets[lo:hi], self.weights[lo:hi]

    def delivery_plan(self) -> DeliveryPlan:
        """The plan, built on first use (concurrent first uses may each
        build one; they are equal, and the last one stays)."""
        if self._plan is None:
            self._plan = _build_delivery_plan(self)
        return self._plan


def shard_index(db: Database, graph: GraphHandle, n_shards: int) -> tuple[ShardIndex, np.ndarray]:
    """The graph version's :class:`ShardIndex` over ``n_shards`` shards, and
    the order that sorts the vertex table's rows by id (the index splits
    the sorted ids) — the one topology both data planes read.

    The index kept on the edge table is reused when its key — both
    tables' ``(uid, version)`` and the shard count — matches and it split
    these vertex ids (a vertex table restored from a checkpoint need not
    be the node table's); otherwise a fresh one is built and left on the
    table for later runs.
    """
    ids = np.asarray(db.table(graph.vertex_table).data().column("id").values, dtype=np.int64)
    order = stable_int_order((ids,))  # a linear check: setup_run writes id order
    ids = ids[order]
    with db.lock:  # key and contents read together
        edges = db.table(graph.edge_table)
        nodes = db.table(graph.node_table)
        key = (edges.uid, edges.version, nodes.uid, nodes.version, n_shards)
        index = edges.derived
        if (
            isinstance(index, ShardIndex)
            and index.key == key
            and np.array_equal(index.all_ids, ids)
        ):
            return index, order
        edata = edges.data()
    index = ShardIndex(
        key,
        ids,
        np.asarray(edata.column("src").values, dtype=np.int64),
        np.asarray(edata.column("dst").values, dtype=np.int64),
        np.asarray(edata.column("weight").values, dtype=np.float64),
        n_shards,
    )
    with db.lock:
        if (edges.uid, edges.version) == key[:2]:
            edges.derived = index
    return index, order


@dataclass
class VertexShard:
    """One vid-hash shard's state for a run.

    Vertex arrays are aligned and sorted by vertex id; edges are CSR
    against ``vertex_ids`` (the :class:`ShardIndex`'s arrays, shared by
    every run of the graph version).  Pending messages are kept stably
    sorted by destination id, preserving arrival order within a
    destination.  Values are *storage-encoded* (the vertex/message table
    representation), exactly like the SQL plane's columns.  Under
    process-parallel execution the fixed-width arrays are views into
    shared-memory segments; the layout is identical either way.
    """

    index: int
    vertex_ids: np.ndarray  # int64, sorted
    halted: np.ndarray  # bool
    raw_values: np.ndarray  # storage dtype (float64/int64; (nv, k) for vectors)
    value_valid: np.ndarray  # bool
    edge_indptr: np.ndarray  # int64 [nv + 1]
    edge_targets: np.ndarray  # int64
    edge_weights: np.ndarray  # float64
    msg_src: np.ndarray  # int64 senders (MIN(vid) once combined)
    msg_dst: np.ndarray  # int64, stably sorted
    msg_raw: np.ndarray  # storage dtype ((nm, k) for vector codecs)
    msg_valid: np.ndarray  # bool

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def pending_messages(self) -> int:
        return len(self.msg_dst)

    @property
    def active_vertices(self) -> int:
        return int(np.count_nonzero(~self.halted))

    def decoded(self) -> _DecodedPartition:
        """A layer-2 view over the resident arrays — the shard plane's
        replacement for the SQL plane's decode layer.  Messages to ids
        with no vertex row are dropped here (and counted), exactly like
        the relational decode."""
        msg_indptr, (msg_src, msg_raw, msg_valid), dropped = _csr_align(
            self.msg_dst, self.vertex_ids, (self.msg_src, self.msg_raw, self.msg_valid)
        )
        return _DecodedPartition(
            self.vertex_ids,
            self.halted,
            self.raw_values,
            self.value_valid,
            self.edge_indptr,
            self.edge_targets,
            self.edge_weights,
            msg_indptr,
            msg_src,
            msg_raw,
            msg_valid,
            dropped,
        )

    def clear_messages(self, empty_raw: np.ndarray) -> None:
        empty_i64 = np.empty(0, dtype=np.int64)
        self.msg_src = empty_i64
        self.msg_dst = empty_i64
        self.msg_raw = empty_raw
        self.msg_valid = np.empty(0, dtype=bool)


@dataclass(frozen=True)
class PlaneMeta:
    """The picklable, immutable description of a plane's storage shapes.

    Everything a worker process needs to run a shard task — storage
    dtypes, the message width, retry budget — without holding a reference
    to the plane itself.  The parent plane and every child plane share
    one instance, so both sides run the exact same code paths.
    """

    task_retries: int
    retry_backoff: float
    msg_dtype: np.dtype
    msg_width: int

    def empty_msg_raw(self) -> np.ndarray:
        """A zero-length message storage array of the run's shape."""
        shape = (0, self.msg_width) if self.msg_width else 0
        return np.empty(shape, dtype=self.msg_dtype)


@dataclass
class ShardTaskOutput:
    """One shard task's result, in wire-friendly (picklable) form: the
    three roles of :meth:`~repro.core.worker._Outputs.to_staged`.

    ``agg_partials`` carries each aggregator partial as an already
    reduced *scalar* — the shard-resident aggregator fast path: the
    superstep barrier applies updates and reduces a few floats, and under
    process execution the pipe ships updates and messages as their
    columns, aggregates as scalars.
    """

    updates: StagedRows
    messages: EmittedMessages | None
    agg_partials: list[tuple[str, float]]
    ran: int
    dropped: int
    rows_out: int
    retried: int
    seconds: float


# ---------------------------------------------------------------------------
# Shard-task primitives (shared verbatim by the parent plane and worker
# processes — one implementation is what keeps every executor bit-identical)
# ---------------------------------------------------------------------------
def _apply_updates_to_shard(shard: VertexShard, updates: StagedRows) -> int:
    """Vertex updates mutate the owning shard directly — the in-memory
    equivalent of the paper's Update-vs-Replace choice (``"memory"``
    in the metrics)."""
    if updates.num_rows == 0:
        return 0
    pos = np.searchsorted(shard.vertex_ids, updates.vid)
    shard.halted[pos] = updates.halted
    shard.raw_values[pos] = updates.values
    shard.value_valid[pos] = updates.valid
    return updates.num_rows


def _run_shard_task(
    shard: VertexShard, index: int, worker: VertexWorker, meta: PlaneMeta
) -> ShardTaskOutput:
    """Execute one shard's superstep: trip/retry, compute, stage.

    A shard task is a pure function of resident state (kernels never
    mutate their input views; fancy-indexed copies back them), so a
    transient fault — injected or real — can be retried in place without
    touching the checkpoint layer.  Run counters are *not* recorded here:
    the caller accounts exactly once after the task commits.
    """
    started = time.perf_counter()
    retried = [0]

    def attempt() -> tuple:
        faults.trip("shard.compute", superstep=worker.superstep, shard=index)
        part = shard.decoded()
        out, ran = worker.compute_decoded(part)
        return (*out.to_staged(), ran, part.dropped)

    def on_retry(exc: BaseException, attempt_no: int, delay: float) -> None:
        retried[0] = attempt_no

    try:
        updates, messages, agg_partials, ran, dropped = faults.retry_call(
            attempt,
            retries=meta.task_retries,
            backoff=meta.retry_backoff,
            on_retry=on_retry,
        )
    except Exception as exc:
        exc.add_note(
            f"shard {index} failed at superstep {worker.superstep} "
            f"after {retried[0]} retries"
        )
        raise
    return ShardTaskOutput(
        updates=updates,
        messages=messages,
        agg_partials=agg_partials,
        ran=ran,
        dropped=dropped,
        rows_out=updates.num_rows
        + (0 if messages is None else messages.num_rows)
        + len(agg_partials),
        retried=retried[0],
        seconds=time.perf_counter() - started,
    )


#: A superstep whose tasks all sent edge-aligned blocks delivers through
#: the plan once its messages cover at least this share of the graph's
#: edges; below that, sorting them per destination beats filtering the
#: plan, which costs O(edges) (measured, MIN combiner on 4 shards: a tie
#: at 0.9 of the edges, sorting 1.3-2x faster at 0.25-0.55, the filtered
#: plan 1.1-1.2x faster at 0.95-0.99, at 8 k-70 k vertices and 0.12-0.73 M
#: edges).  When every edge sent, the plan needs no filter and wins 5-9x.
_PLAN_MIN_EDGE_SHARE = 0.9

_INT64 = np.iinfo(np.int64)

#: combiner -> (ufunc, the identity a NULL message contributes as a float64,
#: as an int64 — the engine's exact INTEGER aggregates use the same)
_COMBINE_UFUNCS = {
    "SUM": (np.add, 0.0, 0),
    "MIN": (np.minimum, np.inf, _INT64.max),
    "MAX": (np.maximum, -np.inf, _INT64.min),
}


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _deliver(
    index: ShardIndex,
    emitted: list[EmittedMessages | None],
    combiner: str | None,
) -> tuple[list[tuple | None], int]:
    """Every destination shard's inbox ``(senders, dst, values, valid)``
    (``None`` when it receives nothing) from the source shards' messages
    ``emitted`` (indexed by source shard), plus the number of messages
    sent.

    Ordering contract (what makes the planes bit-identical): the SQL
    plane concatenates partition outputs in partition-index order into
    the staging table, and its next-superstep sort is stable — so vertex
    ``v`` receives its messages ordered by (source partition, emission
    order).  Here each destination takes its rows in ``(dst, source
    shard, emission order)`` order, which is that order, one of two ways:

    * **the plan** — every task sent one edge-aligned block, together
      over at least :data:`_PLAN_MIN_EDGE_SHARE` of the edges
      (:func:`_plan_rows`);
    * **a sort** — anything else: per destination, its rows from every
      source in (source shard, emission) order, stably sorted by
      destination id (:func:`_sorted_rows`).
    """
    chunks = [c for c in emitted if c is not None]
    if not chunks:
        return [None] * index.n_shards, 0
    sent = sum(c.num_rows for c in chunks)
    # NULL messages need masking only where a combiner reduces them.
    all_valid = combiner is not None and all(bool(c.valid.all()) for c in chunks)
    if (
        all(c.route_senders is not None for c in chunks)
        and sent >= _PLAN_MIN_EDGE_SHARE * index.num_edges
    ):
        rows = _plan_rows(index, emitted, sent, combiner is not None, all_valid)
    else:
        rows = _sorted_rows(
            [_edge_rows(index, s, c) for s, c in enumerate(emitted) if c is not None],
            index.n_shards,
            all_valid,
        )
    inboxes = [None if r is None else _inbox(*r, combiner) for r in rows]
    return inboxes, sent


def _edge_rows(index: ShardIndex, s: int, messages: EmittedMessages) -> EmittedMessages:
    """Source shard ``s``'s messages with one row per message."""
    return messages.edge_rows(index.vertex_ids[s], index.edge_indptr[s], index.shard_edges(s)[1])


def _plan_rows(
    index: ShardIndex,
    emitted: list[EmittedMessages | None],
    sent: int,
    combined: bool,
    all_valid: bool,
):
    """Each destination's ``(senders, dst, values, valid, groups)`` through
    the :class:`DeliveryPlan` (``None`` for a destination that receives
    nothing; ``valid`` is ``None`` when ``all_valid``).

    The tasks' messages, concatenated in shard order, are the edges of the
    flagged senders in order: a subsequence of the index's edge list.
    When every edge sent, ``order[d]`` lists destination ``d``'s messages,
    and the plan's runs, senders and targets are the combined groups
    (``groups``; no per-message senders or destinations are gathered for
    a combiner then).  Otherwise dropping the edges that did not send from
    ``order[d]`` (and ``sender_rows[d]``) leaves the ones that did in the
    same relative order — the order of the subsequence.  A message's
    sender and destination are its edge's, read from the topology.  Its
    payload is gathered at its sender row when every task sent
    vertex-aligned (one payload per vertex, no per-edge copy); otherwise
    at its place in the concatenated rows, where edge ``e`` sits at
    ``cumsum(edge_mask)[e] - 1``.
    """
    # Built (once per graph version) before the concatenations below, so
    # that its temporaries and theirs are never alive together.
    plan = index.delivery_plan()
    full = sent == index.num_edges
    edge_mask = None
    if not full:
        edge_mask = np.concatenate(
            [
                np.repeat(c.route_senders, np.diff(index.edge_indptr[s]))
                if c is not None
                else np.zeros(index.edge_offsets[s + 1] - index.edge_offsets[s], dtype=bool)
                for s, c in enumerate(emitted)
            ]
        )
    by_sender = all(c is None or c.vertex_aligned for c in emitted)
    if by_sender:
        like = next(c for c in emitted if c is not None)
        blocks = [
            (c.values, c.valid)
            if c is not None
            else (
                np.zeros((len(ids), *like.values.shape[1:]), dtype=like.values.dtype),
                np.zeros(len(ids), dtype=bool),
            )
            for ids, c in zip(index.vertex_ids, emitted)
        ]
    else:
        blocks = [_edge_rows(index, s, c)[2:4] for s, c in enumerate(emitted) if c is not None]
        position = None if full else np.cumsum(edge_mask, dtype=plan.order[0].dtype) - 1
    values = _concat([v for v, _ in blocks])
    valid = None if all_valid else _concat([ok for _, ok in blocks])
    for d, (order, rows) in enumerate(zip(plan.order, plan.sender_rows)):
        if not full:
            keep = edge_mask[order]
            order, rows = order[keep], rows[keep]
        if not len(order):
            yield None
            continue
        take = rows if by_sender else order if full else position[order]
        # A full send's combined groups are the plan's: no senders or dst then.
        bare = full and combined
        yield (
            None if bare else plan.ids[rows],
            None if bare else index.targets[order],
            values[take],
            None if valid is None else valid[take],
            (plan.starts[d], plan.senders[d], plan.targets[d]) if full else None,
        )


def _sorted_rows(chunks: list[EmittedMessages], n: int, all_valid: bool):
    """Each destination's ``(senders, dst, values, valid, None)`` by a
    stable sort of its rows on destination id (``None`` for a destination
    that receives nothing; ``valid`` is ``None`` when ``all_valid``)."""
    buckets = [(c.dst % n).astype(np.min_scalar_type(n)) for c in chunks]
    for d in range(n):
        picks = [np.flatnonzero(b == d) for b in buckets]
        if not any(len(p) for p in picks):
            yield None
            continue

        def rows(column: str) -> np.ndarray:
            return _concat([getattr(c, column)[p] for c, p in zip(chunks, picks)])

        dst = rows("dst")
        order = stable_int_order((dst,))
        yield (
            rows("senders")[order],
            dst[order],
            rows("values")[order],
            None if all_valid else rows("valid")[order],
            None,
        )


def _inbox(senders, dst, values, valid, groups, combiner: str | None) -> tuple:
    """One destination's inbox from its ordered rows: as they are, or
    combined per destination id (over ``groups`` — run starts, senders,
    targets — when the plan already holds them)."""
    if combiner is None:
        return senders, dst, values, valid
    if groups is None:
        starts = np.flatnonzero(run_starts((dst,)))
        groups = (starts, np.minimum.reduceat(senders, starts), dst[starts])
    starts, group_senders, group_dst = groups
    raw, ok = _combine(values, valid, starts, combiner)
    return group_senders, group_dst, raw, ok


def _combine(
    values: np.ndarray,
    valid: np.ndarray | None,
    starts: np.ndarray,
    combiner: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce each run ``values[starts[i]:starts[i + 1]]`` with the
    program's combiner; returns ``(values, valid)`` per run.

    Reproduces the SQL plane's ``SELECT MIN(vid), dst, OP(...) ...
    GROUP BY dst`` arithmetic exactly: ``reduceat`` in arrival order in
    the message storage dtype — int64 for INTEGER codecs, so sums and
    extrema stay exact above 2^53, float64 otherwise — with NULLs
    replaced by the reduction identity and a group of NULLs NULL.  Vector
    message codecs arrive as 2-D ``(rows, k)`` blocks and reduce
    element-wise with the same ``reduceat`` call over ``axis=0`` —
    bit-identical to the SQL plane's per-column aggregates (whole-vector
    validity broadcasts across the row).  ``valid=None`` says every
    message is valid: replacing nothing and masking nothing, the reduction
    is the same.
    """
    ufunc, float_identity, int_identity = _COMBINE_UFUNCS[combiner]
    if valid is None:
        return ufunc.reduceat(values, starts, axis=0), np.ones(len(starts), dtype=bool)
    identity = int_identity if values.dtype.kind == "i" else float_identity
    out_valid = np.add.reduceat(valid.astype(np.int64), starts) > 0
    two_d = values.ndim == 2
    values = np.where(valid[:, None] if two_d else valid, values, identity)
    agg = ufunc.reduceat(values, starts, axis=0)
    return np.where(out_valid[:, None] if two_d else out_valid, agg, 0), out_valid


class ShardedDataPlane:
    """Resident shards for one run over the graph version's
    :class:`ShardIndex`: set up once, stepped per superstep, synced back
    to the relational tables at checkpoint boundaries and at completion.
    :meth:`bind_executor` copies the resident arrays into shared memory
    when the run executes on worker processes."""

    def __init__(
        self,
        storage: GraphStorage,
        graph: GraphHandle,
        program: VertexProgram,
        config: VertexicaConfig,
        use_batch: bool | None = None,
    ) -> None:
        self.storage = storage
        self.graph = graph
        self.program = program
        #: compute path of every superstep's worker (``None`` auto-detects)
        self.use_batch = use_batch
        self.n_shards = config.n_partitions
        self.use_combiner = config.use_combiner and program.combiner is not None
        self.aggregated: dict[str, float] = {}
        self.meta = PlaneMeta(
            task_retries=config.task_retries,
            retry_backoff=config.retry_backoff,
            msg_dtype=np.dtype(program.message_codec.sql_type.numpy_dtype),
            msg_width=program.message_codec.width,
        )
        self.shards = self._build_shards()
        # Process-parallel state (armed by bind_executor).
        self._proc_executor: ProcessExecutor | None = None
        self._token: str | None = None
        self._shard_groups: list[SharedArrayGroup] = []
        self._msg_groups: list[SharedArrayGroup | None] = [None] * self.n_shards
        self._closed = False

    def _empty_msg_raw(self) -> np.ndarray:
        """A zero-length message storage array of the run's shape."""
        return self.meta.empty_msg_raw()

    # ------------------------------------------------------------------
    # Partition once (run setup)
    # ------------------------------------------------------------------
    def _build_shards(self) -> list[VertexShard]:
        """The run's shards: the freshly set-up vertex state split by the
        graph version's :class:`ShardIndex` (:func:`shard_index`)."""
        db = self.storage.db
        vdata = db.table(self.graph.vertex_table).data()
        index, order = shard_index(db, self.graph, self.n_shards)
        self.index = index
        halted = np.asarray(vdata.column("halted").values, dtype=bool)
        codec = self.program.vertex_codec
        raw_values, value_valid = storage_form(
            codec, [vdata.column(name) for name in codec.column_names()]
        )
        shards: list[VertexShard] = []
        for s in range(self.n_shards):
            # Shard s's rows of the vertex table, in the index's id order.
            v_sel = order[index.split_order[index.split_bounds[s] : index.split_bounds[s + 1]]]
            edge_indptr, edge_targets, edge_weights = index.shard_edges(s)
            shard = VertexShard(
                index=s,
                vertex_ids=index.vertex_ids[s],
                halted=halted[v_sel],
                raw_values=raw_values[v_sel],
                value_valid=value_valid[v_sel],
                edge_indptr=edge_indptr,
                edge_targets=edge_targets,
                edge_weights=edge_weights,
                msg_src=np.empty(0, dtype=np.int64),
                msg_dst=np.empty(0, dtype=np.int64),
                msg_raw=self._empty_msg_raw(),
                msg_valid=np.empty(0, dtype=bool),
            )
            shards.append(shard)
        self._load_messages(shards)
        return shards

    def _load_messages(self, shards: list[VertexShard]) -> None:
        """Adopt the message table's pending rows into the shard inboxes.

        Empty on a fresh run (``setup_run`` recreates the table); non-empty
        when the plane is (re)built from restored checkpoint state or a
        prior sync.  ``sync_tables`` wrote the rows globally stable-sorted
        by destination id — and every destination id lives in exactly one
        shard — so the stable re-bucketing below reproduces each shard's
        inbox bit-for-bit, including the (source shard, emission order)
        tie order that keeps float reductions deterministic.
        """
        mdata = self.storage.db.table(self.graph.message_table).data()
        if mdata.num_rows == 0:
            return
        src = np.asarray(mdata.column("src").values, dtype=np.int64)
        dst = np.asarray(mdata.column("dst").values, dtype=np.int64)
        codec = self.program.message_codec
        raw, valid = storage_form(codec, [mdata.column(name) for name in codec.column_names()])
        n = self.n_shards
        order, bounds = hash_bucket_order(dst % n, n, (dst,))
        for shard in shards:
            sel = order[bounds[shard.index] : bounds[shard.index + 1]]
            if not len(sel):
                continue
            shard.msg_src = src[sel]
            shard.msg_dst = dst[sel]
            shard.msg_raw = raw[sel]
            shard.msg_valid = np.asarray(valid[sel], dtype=bool)

    # ------------------------------------------------------------------
    # Process-parallel wiring: shared segments + pickled-once bootstrap
    # ------------------------------------------------------------------
    def bind_executor(self, executor: PartitionExecutor) -> None:
        """Arm the plane for its run executor.

        For a multi-process :class:`ProcessExecutor` over more than one
        shard, this moves every fixed-width shard array into shared
        memory and installs the plane bootstrap — program closure,
        segment descriptors, armed fault plan — into the worker
        processes, pickled exactly once.  (Called again after a plane
        rebuild: the fresh bootstrap replaces the workers' stale plane.)
        For the serial executor it is a no-op, and the plane computes its
        shards in-process.
        """
        if not isinstance(executor, ProcessExecutor):
            return
        if self.n_shards <= 1 or executor.n_processes <= 1:
            return  # the executor serial-fallbacks anyway; nothing to share
        token = new_segment_name("vxplane")
        groups: list[SharedArrayGroup] = []
        descriptors: list[GroupDescriptor] = []
        try:
            for shard in self.shards:
                arrays = {
                    "vertex_ids": shard.vertex_ids,
                    "halted": shard.halted,
                    "value_valid": shard.value_valid,
                    "edge_indptr": shard.edge_indptr,
                    "edge_targets": shard.edge_targets,
                    "edge_weights": shard.edge_weights,
                    "raw_values": shard.raw_values,
                }
                group = SharedArrayGroup.create(f"{token}s{shard.index}", arrays)
                groups.append(group)
                descriptors.append(group.descriptor)
                # Rebind the parent's vertex state to the shared views: parent-
                # side vertex updates become visible to the workers with no
                # copy.  The topology stays the index's own (read-only) arrays:
                # the index outlives these segments.
                shard.halted = group.arrays["halted"]
                shard.value_valid = group.arrays["value_valid"]
                shard.raw_values = group.arrays["raw_values"]
            bootstrap = _PlaneBootstrap(
                token=token,
                program=self.program,
                num_vertices=self.graph.num_vertices,
                meta=self.meta,
                shard_groups=tuple(descriptors),
                fault_plan=faults.active_plan_json(),
            )
            executor.install(bootstrap)
        except BaseException:
            # Until install returns nothing records the segments: unlink
            # them here, or a failed bind (the first one or a rollback's
            # rebuild) leaves them in /dev/shm past the run.
            for group in groups:
                group.unlink()
            raise
        self._token = token
        self._shard_groups = groups
        self._proc_executor = executor

    def _publish_inboxes(self) -> list:
        """Expose each shard's pending inbox to the worker processes.

        Fixed-width message arrays are copied into a fresh shared
        segment per shard (the previous superstep's segment is unlinked
        — workers copy their inbox out at task start, so nothing still
        references it).
        """
        descriptors: list = []
        for shard in self.shards:
            old = self._msg_groups[shard.index]
            if old is not None:
                old.unlink()
                self._msg_groups[shard.index] = None
            if shard.pending_messages == 0:
                descriptors.append(None)
                continue
            group = SharedArrayGroup.create(
                f"{self._token}m{shard.index}",
                {
                    "msg_src": shard.msg_src,
                    "msg_dst": shard.msg_dst,
                    "msg_raw": shard.msg_raw,
                    "msg_valid": shard.msg_valid,
                },
            )
            self._msg_groups[shard.index] = group
            descriptors.append(group.descriptor)
        return descriptors

    def close(self) -> None:
        """Release the plane (idempotent): the worker processes drop their
        views of its segments — the pool outlives the run — and the
        segments are unlinked.  A plane without process execution holds
        none — no-op."""
        executor, self._proc_executor = self._proc_executor, None
        if executor is not None:
            executor.reset(_release_child_planes)
        self._unlink_segments()

    def _unlink_segments(self) -> None:
        """Unlink the plane's shared segments (creator side; idempotent)."""
        if self._closed:
            return
        self._closed = True
        for group in self._msg_groups:
            if group is not None:
                group.unlink()
        for group in self._shard_groups:
            group.unlink()
        self._msg_groups = [None] * self.n_shards
        self._shard_groups = []

    def __del__(self) -> None:  # best-effort: never leak shm segments
        # Unlink only: talking to a pool from the collector could cut into
        # another run's exchange with it.
        try:
            self._unlink_segments()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Run-state queries (the coordinator's halt condition)
    # ------------------------------------------------------------------
    @property
    def pending_messages(self) -> int:
        return sum(shard.pending_messages for shard in self.shards)

    @property
    def active_vertices(self) -> int:
        return sum(shard.active_vertices for shard in self.shards)

    # ------------------------------------------------------------------
    # One superstep
    # ------------------------------------------------------------------
    def run_superstep(self, superstep: int, aggregated: dict[str, float]) -> StepStats:
        """Compute every shard (on the worker processes when
        :meth:`bind_executor` armed the plane, else serially), then apply
        vertex updates, route messages, and reduce aggregators (into
        :attr:`aggregated`) — the synchronous superstep barrier, minus
        all the SQL.  Tasks hand their messages over in emission order;
        the barrier delivers them through the graph version's delivery
        plan or one sort (:func:`_deliver`).
        """
        worker = VertexWorker(
            self.program,
            superstep,
            self.graph.num_vertices,
            aggregated=aggregated,
            use_batch=self.use_batch,
        )
        messages_in = self.pending_messages
        if self._proc_executor is not None:
            # Only a tiny descriptor crosses the pipe; the inboxes go
            # through fresh shared segments.
            step = _ProcessStep(
                token=self._token,
                superstep=superstep,
                use_batch=worker.use_batch,
                aggregated=dict(worker.aggregated),
                inboxes=tuple(self._publish_inboxes()),
            )
            outputs = self._proc_executor(
                step, [(shard.index, shard.index) for shard in self.shards]
            )
        else:
            outputs = [
                _run_shard_task(shard, shard.index, worker, self.meta)
                for shard in self.shards
            ]
        for out in outputs:
            worker.record_partition_counts(out.ran, out.dropped)
        return self._finish_superstep(worker, outputs, messages_in)

    def _finish_superstep(
        self,
        worker: VertexWorker,
        outputs: list[ShardTaskOutput],
        messages_in: int,
    ) -> StepStats:
        """The superstep barrier: apply updates, route, reduce — same
        order for every executor (which is what parity rests on)."""
        vertex_updates = self._apply_vertex_updates([out.updates for out in outputs])
        faults.trip("shard.route", superstep=worker.superstep)
        messages_precombine, messages_out = self._route_messages(
            [out.messages for out in outputs]
        )
        self.aggregated = self._reduce_aggregators(
            [out.agg_partials for out in outputs]
        )
        rows_in = self.graph.num_vertices + messages_in
        if worker.superstep == 0:
            rows_in += self.graph.num_edges
        return StepStats(
            vertices_ran=worker.vertices_ran,
            vertex_updates=vertex_updates,
            messages_out=messages_out,
            rows_in=rows_in,
            rows_out=sum(out.rows_out for out in outputs),
            update_path="memory" if vertex_updates else "none",
            messages_precombine=messages_precombine,
            shard_seconds=tuple(out.seconds for out in outputs),
            retries=sum(out.retried for out in outputs),
        )

    # ------------------------------------------------------------------
    # Apply staged vertex updates in place
    # ------------------------------------------------------------------
    def _apply_vertex_updates(self, staged: list[StagedRows]) -> int:
        """Each shard's kind-0 rows mutate the owning shard directly (see
        :func:`_apply_updates_to_shard`)."""
        total = 0
        for shard, updates in zip(self.shards, staged):
            total += _apply_updates_to_shard(shard, updates)
        return total

    # ------------------------------------------------------------------
    # In-plane message routing
    # ------------------------------------------------------------------
    def _route_messages(self, emitted: list[EmittedMessages | None]) -> tuple[int, int]:
        """Deliver every task's messages to their destination shards (see
        :func:`_deliver`).  Returns ``(rows_before_combining,
        rows_delivered)``."""
        combiner = self.program.combiner if self.use_combiner else None
        inboxes, staged = _deliver(self.index, emitted, combiner)
        total = 0
        for shard, inbox in zip(self.shards, inboxes):
            if inbox is None:
                shard.clear_messages(self._empty_msg_raw())
                continue
            shard.msg_src, shard.msg_dst, shard.msg_raw, shard.msg_valid = inbox
            total += len(inbox[1])
        return staged, total

    # ------------------------------------------------------------------
    # Aggregators
    # ------------------------------------------------------------------
    def _reduce_aggregators(
        self, partials_per_shard: list[list[tuple[str, float]]]
    ) -> dict[str, float]:
        """Reduce the per-shard scalar partials across shards.

        The SQL plane runs ``OP(f1)`` over the partials in staging
        (shard-index) order through ``ufunc.reduceat``; the same ufunc
        reduction over the same float64 sequence keeps the result
        bit-equal (numpy's pairwise float summation is deterministic for
        a given length, but differs from a naive sequential loop).
        """
        names = self.program.aggregators
        if not names:
            return {}
        partials: dict[str, list[float]] = {name: [] for name in names}
        for shard_partials in partials_per_shard:
            for name, value in shard_partials:
                partials[name].append(value)
        start = np.zeros(1, dtype=np.int64)
        ufuncs = {"SUM": np.add, "MIN": np.minimum, "MAX": np.maximum}
        out: dict[str, float] = {}
        for name, op in names.items():
            values = partials[name]
            if not values:
                continue
            array = np.asarray(values, dtype=np.float64)
            out[name] = float(ufuncs[op].reduceat(array, start)[0])
        return out

    # ------------------------------------------------------------------
    # Sync: mirror resident state into the relational tables
    # ------------------------------------------------------------------
    def sync_tables(self, superstep: int | None = None) -> float:
        """Write the vertex and message tables from resident shard state
        (returns seconds spent).  Runs before each checkpoint write and
        once at completion."""
        started = time.perf_counter()
        faults.trip("storage.sync", superstep=superstep)
        shards = self.shards
        ids = np.concatenate([s.vertex_ids for s in shards])
        values = np.concatenate([s.raw_values for s in shards])
        value_valid = np.concatenate([s.value_valid for s in shards])
        halted = np.concatenate([s.halted for s in shards])
        order = stable_int_order((ids,))
        self.storage.sync_vertex_state(
            self.graph,
            self.program,
            ids[order],
            values[order],
            value_valid[order],
            halted[order],
        )
        src = np.concatenate([s.msg_src for s in shards])
        dst = np.concatenate([s.msg_dst for s in shards])
        raw = np.concatenate([s.msg_raw for s in shards])
        valid = np.concatenate([s.msg_valid for s in shards])
        morder = stable_int_order((dst,))
        self.storage.sync_message_state(
            self.graph,
            self.program,
            src[morder],
            dst[morder],
            raw[morder],
            valid[morder],
        )
        return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Worker-process side: the child plane and its pickled task descriptors
# ---------------------------------------------------------------------------
#: Planes installed in *this* process by a ProcessExecutor bootstrap,
#: keyed by plane token.  In the coordinator process this stays empty.
_CHILD_PLANES: dict[str, "_ChildPlane"] = {}


def _release_child_planes() -> None:
    """Worker-process side of handing the pool back: drop every installed
    plane's segment views and disarm the run's fault plan."""
    for plane in _CHILD_PLANES.values():
        plane.close()
    _CHILD_PLANES.clear()
    faults.deactivate()


@dataclass(frozen=True)
class _PlaneBootstrap:
    """The pickled-once worker bootstrap a plane installs at pool start.

    Carries everything per-superstep dispatch must not re-ship: the
    program closure, the shared-segment descriptors, and the armed
    fault plan so injection sites trip inside the worker that actually
    runs the shard.
    """

    token: str
    program: VertexProgram
    num_vertices: int
    meta: PlaneMeta
    shard_groups: tuple[GroupDescriptor, ...]
    fault_plan: str | None

    def __call__(self) -> None:
        _release_child_planes()
        if self.fault_plan is not None:
            faults.activate(faults.FaultPlan.from_json(self.fault_plan))
        _CHILD_PLANES[self.token] = _ChildPlane(self)


class _ChildPlane:
    """One worker process's view of a plane: shards whose arrays are
    views into the shared segments, so every worker sees the
    coordinator's vertex updates as they are written."""

    def __init__(self, boot: _PlaneBootstrap) -> None:
        self.meta = boot.meta
        self.program = boot.program
        self.num_vertices = boot.num_vertices
        self.groups: list[SharedArrayGroup] = []
        self.shards: list[VertexShard] = []
        for index, descriptor in enumerate(boot.shard_groups):
            group = SharedArrayGroup.attach(descriptor)
            self.groups.append(group)
            arrays = group.arrays
            self.shards.append(
                VertexShard(
                    index=index,
                    vertex_ids=arrays["vertex_ids"],
                    halted=arrays["halted"],
                    raw_values=arrays["raw_values"],
                    value_valid=arrays["value_valid"],
                    edge_indptr=arrays["edge_indptr"],
                    edge_targets=arrays["edge_targets"],
                    edge_weights=arrays["edge_weights"],
                    msg_src=np.empty(0, dtype=np.int64),
                    msg_dst=np.empty(0, dtype=np.int64),
                    msg_raw=self.meta.empty_msg_raw(),
                    msg_valid=np.empty(0, dtype=bool),
                )
            )

    def close(self) -> None:
        self.shards = []
        for group in self.groups:
            group.close()
        self.groups = []

    def _load_inbox(self, shard: VertexShard, descriptor) -> None:
        if descriptor is None:
            shard.clear_messages(self.meta.empty_msg_raw())
            return
        group = SharedArrayGroup.attach(descriptor)
        try:
            arrays = group.arrays
            # Copy out immediately: the coordinator replaces the segment
            # next superstep, so the shard must not keep views into it.
            shard.msg_src = np.array(arrays["msg_src"])
            shard.msg_dst = np.array(arrays["msg_dst"])
            shard.msg_raw = np.array(arrays["msg_raw"])
            shard.msg_valid = np.array(arrays["msg_valid"])
        finally:
            group.close()

    def run_task(
        self,
        superstep: int,
        use_batch: bool,
        aggregated: dict[str, float],
        inbox,
        index: int,
    ) -> ShardTaskOutput:
        shard = self.shards[index]
        self._load_inbox(shard, inbox)
        worker = VertexWorker(
            self.program,
            superstep,
            self.num_vertices,
            aggregated=aggregated,
            use_batch=use_batch,
        )
        return _run_shard_task(shard, index, worker, self.meta)


@dataclass(frozen=True)
class _ProcessStep:
    """The per-superstep task descriptor — the only thing pickled per
    dispatch: superstep scalars, the aggregated dict, and per-shard inbox
    segment descriptors."""

    token: str
    superstep: int
    use_batch: bool
    aggregated: dict[str, float]
    inboxes: tuple

    def __call__(self, item, index: int) -> ShardTaskOutput:
        plane = _CHILD_PLANES.get(self.token)
        if plane is None:
            raise RuntimeError(
                f"worker process has no installed shard plane {self.token!r}; "
                "the executor bootstrap did not run"
            )
        return plane.run_task(
            self.superstep, self.use_batch, self.aggregated, self.inboxes[index], index
        )
