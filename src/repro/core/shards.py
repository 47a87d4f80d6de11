"""The shard-resident superstep data plane (``data_plane="shards"``).

The paper's workers "hash partition the table union on the vertex id"
**every superstep** — the SQL plane faithfully pays that cost each
iteration: re-run the union input query, lexsort the whole relation into
partitions, stage worker output into a table, and apply it back with SQL.
This module keeps the run state resident instead:

1. **Partition once.**  At run setup the graph is hash-partitioned into
   ``n_partitions`` vid-hash shards (``vid % n_shards`` — the same
   bucketing :class:`~repro.engine.operators.TransformOp` uses, so both
   planes compute over identical vertex groupings).  Each
   :class:`VertexShard` owns its sorted vertex ids, halt flags,
   storage-encoded values, and a CSR view of its out-edges (the PR 2
   edge-cache layout, built once instead of decoded at superstep 0).
2. **Compute shard-local.**  Every superstep builds a
   :class:`~repro.core.worker._DecodedPartition` view straight over the
   resident arrays — no SQL, no decode — and runs the *same* layer-2
   compute as the SQL plane (:meth:`VertexWorker.compute_decoded`), so
   batch and scalar programs work unchanged.  Shard tasks have no global
   sort barrier and the kernels are numpy-heavy (GIL released), which is
   what lets ``n_workers > 1`` actually scale.
3. **Route messages in-plane, sorting once.**  Emitted messages
   scatter to their destination shards in stable ``(destination shard,
   destination id)`` order per source shard; each destination
   concatenates its inbound buffers in source-shard order and segment-
   sorts them by destination id.  That ordering — (destination, source
   shard, emission order) — is exactly the delivery order the SQL plane
   produces via the staging table and the per-superstep lexsort, which
   is what keeps float reductions (``sum(messages)``) bit-identical
   across planes.  The per-source order is *not* re-sorted every
   superstep: edges are immutable for the run, and the edge-aligned
   sends (``VertexBatch.send_to_all_neighbors`` / ``send_along_edges``)
   emit a CSR-order subsequence of the shard's out-edge list, so each
   shard sorts that list once (:meth:`VertexShard.route_plan`, on first
   use) and every later superstep filters the plan under the sender
   mask (:func:`_route_order`) — "partition once" extended to "sort
   once".  Arbitrary ``send()`` traffic, multi-block tasks, the scalar
   ``compute`` path and near-empty frontiers sort their emitted rows
   with :func:`~repro.engine.operators.hash_bucket_order` as before;
   both give the same permutation.  Combiners are applied at the
   destination shard with the same float64 ``reduceat`` arithmetic the
   SQL ``GROUP BY`` uses.

Relational interop is preserved by an explicit sync policy
(``superstep_sync``): ``"every"`` mirrors the vertex/message tables
after each superstep (the legacy plane's observable behavior — hybrid
SQL queries, the demo console, and checkpoints see fresh state),
``"halt"`` materializes once at completion (the fast path).

**Process-parallel execution** (``executor="processes"``): when the
coordinator binds a :class:`~repro.engine.parallel.ProcessExecutor`
(:meth:`ShardedDataPlane.bind_executor`), the fixed-width shard arrays —
ids, halt flags, encoded values, validity, CSR edges — move into
``multiprocessing.shared_memory`` segments (:mod:`repro.core.shmem`) and
the parent's shards are rebound to views over them.  A picklable
bootstrap ships the program closure, segment descriptors, and the armed
fault plan to every worker process exactly once (at pool start and on
plane rebuilds); per superstep only a tiny :class:`_ProcessStep`
descriptor crosses the pipe.  Message inboxes are published into fresh
shared segments each superstep (VARCHAR-codec payloads, which have no
fixed width, ship inline by pickle instead).  Every shard task returns a
:class:`ShardTaskOutput` whose aggregator partials are already reduced
to *scalars* — the shard-resident aggregator fast path, shared by all
executors — so the barrier reduces a handful of floats, not arrays.
Parent-side apply/route/reduce run in the exact same order as the
in-process path, which is what keeps ``executor="processes"``
bit-identical to serial and threaded execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import faults
from repro.core.config import VertexicaConfig
from repro.core.metrics import StepStats
from repro.core.program import VertexProgram
from repro.core.shmem import GroupDescriptor, SharedArrayGroup, new_segment_name
from repro.core.storage import GraphHandle, GraphStorage
from repro.core.worker import (
    StagedRows,
    VertexWorker,
    _csr_align,
    _DecodedPartition,
)
from repro.engine.operators import hash_bucket_order, stable_int_order
from repro.engine.parallel import PartitionExecutor, ProcessExecutor
from repro.engine.types import VARCHAR

__all__ = [
    "ShardedDataPlane",
    "VertexShard",
    "ShardTaskOutput",
    "PlaneMeta",
]


@dataclass
class VertexShard:
    """One vid-hash shard's resident state.

    Vertex arrays are aligned and sorted by vertex id; edges are CSR
    against ``vertex_ids`` (built once — the edge relation is immutable
    during a run).  Pending messages are kept stably sorted by
    destination id, preserving arrival order within a destination.
    Values are *storage-encoded* (the vertex/message table
    representation), exactly like the SQL plane's columns.  Under
    process-parallel execution the fixed-width arrays are views into
    shared-memory segments; the layout is identical either way.
    """

    index: int
    vertex_ids: np.ndarray  # int64, sorted
    halted: np.ndarray  # bool
    raw_values: np.ndarray  # storage dtype (float64/int64/object; (nv, k) for vectors)
    value_valid: np.ndarray  # bool
    edge_indptr: np.ndarray  # int64 [nv + 1]
    edge_targets: np.ndarray  # int64
    edge_weights: np.ndarray  # float64
    msg_src: np.ndarray  # int64 senders (MIN(vid) once combined)
    msg_dst: np.ndarray  # int64, stably sorted
    msg_raw: np.ndarray  # storage dtype ((nm, k) for vector codecs)
    msg_valid: np.ndarray  # bool
    #: :meth:`route_plan`'s result, once a task has asked for it
    _route_plan: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    def route_plan(self, n_shards: int) -> tuple[np.ndarray, np.ndarray]:
        """The shard's sort-once route: the stable ``(dest shard, dest
        id)`` permutation of *all* its out-edges, as ``(order, bounds)``
        with destination shard ``d`` owning ``order[bounds[d]:bounds[d +
        1]]``.  The edge list is immutable for the run, so this is a run
        constant: it is sorted on the first call — inside the first shard
        task that routes through it, never at shard build — and kept
        with the shard, i.e. until the plane is rebuilt (next run,
        rollback) and once per worker process that runs the shard."""
        if self._route_plan is None:
            targets = self.edge_targets
            self._route_plan = hash_bucket_order(targets % n_shards, n_shards, (targets,))
        return self._route_plan

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

    Everything a worker process needs to run a shard task — widths,
    storage dtypes, retry budget — without holding a reference to the
    plane itself.  The parent plane and every child plane share one
    instance, so both sides run the exact same code paths.
    """

    n_shards: int
    task_retries: int
    retry_backoff: float
    value_width: int
    msg_width: int
    value_is_varchar: bool
    msg_is_varchar: bool
    value_dtype: str  # numpy dtype .str for numeric codecs ("|O8"-free)
    msg_dtype: str

    @property
    def value_storage_dtype(self):
        return object if self.value_is_varchar else np.dtype(self.value_dtype)

    @property
    def msg_storage_dtype(self):
        return object if self.msg_is_varchar else np.dtype(self.msg_dtype)

    def empty_msg_raw(self) -> np.ndarray:
        """A zero-length message storage array of the run's shape."""
        if self.msg_width:
            return np.empty((0, self.msg_width), dtype=np.float64)
        return np.empty(0, dtype=self.msg_storage_dtype)


@dataclass
class ShardTaskOutput:
    """One shard task's result, in wire-friendly (picklable) form.

    ``updates`` carries the kind-0 vertex-update rows only and
    ``agg_partials`` carries each aggregator partial as an already
    reduced *scalar* — the shard-resident aggregator fast path: the
    superstep barrier applies updates and reduces a few floats instead
    of re-scanning whole staged-row arrays (and, under process
    execution, the pipe never ships kind-1/kind-2 rows at all — routed
    messages travel pre-bucketed, aggregates as scalars).
    """

    updates: StagedRows
    routed: tuple | None
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
def _mask_staged(rows: StagedRows, kind: int) -> StagedRows:
    """The subset of ``rows`` with the given kind, order preserved."""
    mask = rows.kind == kind
    return StagedRows(
        rows.kind[mask],
        rows.vid[mask],
        rows.dst[mask],
        rows.f1[mask],
        rows.f1_valid[mask],
        rows.s1[mask],
        rows.s1_valid[mask],
        rows.halted[mask],
        rows.pay[mask] if rows.pay is not None else None,
        rows.pay_valid[mask] if rows.pay_valid is not None else None,
    )


def _staged_agg_partials(rows: StagedRows) -> list[tuple[str, float]]:
    """Kind-2 rows as ``(name, scalar)`` pairs in staging order."""
    mask = rows.kind == 2
    if not mask.any():
        return []
    return list(zip(rows.s1[mask].tolist(), rows.f1[mask].tolist()))


#: An edge-aligned task routes through the shard's plan once it emits at
#: least one message per this many out-edges of the shard; below that,
#: sorting the few messages beats the plan's O(edges) filter pass
#: (measured crossover: 1/8 to 1/10 of the edges, at 0.18 M and 1 M edges).
_PLAN_MIN_EDGE_SHARE = 8


def _route_order(
    dst: np.ndarray, route_senders: np.ndarray | None, shard: VertexShard, n_shards: int
) -> tuple[np.ndarray, np.ndarray]:
    """The stable ``(dest shard, dest id)`` order of one task's emitted
    destinations ``dst`` plus its per-destination-shard bounds — always
    equal to ``hash_bucket_order(dst % n_shards, n_shards, (dst,))``,
    which is also how it is computed when the task's messages are not one
    edge-aligned block (``route_senders is None``) or are few.

    Otherwise ``dst`` is, in order, the targets of the out-edges of the
    vertices in ``route_senders`` — a subsequence of the shard's CSR edge
    list — and no sort is needed.  A stable sort orders rows by ``(key,
    input position)``; :meth:`VertexShard.route_plan` lists *every* edge
    in that order, and dropping the edges that did not send from that
    list leaves the ones that did in the same relative order — which is
    the stable sort of the subsequence.  What remains is renumbering:
    edge ``e`` sits at position ``cumsum(edge_mask)[e] - 1`` of ``dst``.
    When every edge sent, the plan is the answer as it stands.
    """
    n_edges = len(shard.edge_targets)
    if route_senders is None or len(dst) * _PLAN_MIN_EDGE_SHARE < n_edges:
        return hash_bucket_order(dst % n_shards, n_shards, (dst,))
    plan_order, plan_bounds = shard.route_plan(n_shards)
    if len(dst) == n_edges:
        return plan_order, plan_bounds
    edge_mask = np.repeat(route_senders, np.diff(shard.edge_indptr))
    keep = edge_mask[plan_order]
    order = np.cumsum(edge_mask)[plan_order[keep]] - 1
    bounds = np.concatenate(([0], np.cumsum(keep)))[plan_bounds]
    return order, bounds


def _bucket_staged(staged: StagedRows, meta: PlaneMeta, shard: VertexShard) -> tuple | None:
    """One source shard's emitted messages, bucketed stably by
    ``(destination shard, destination id)`` — runs *inside* the shard
    task, so per-source routing lands in the parallel section.  The
    order comes from :func:`_route_order`: the shard's sort-once plan for
    edge-aligned sends, a lexsort of the emitted rows otherwise — the
    same permutation either way, so everything downstream (the gathers
    here, :meth:`ShardedDataPlane._route_messages`, combining) sees the
    rows it always saw.
    Returns ``(senders, dst, values, valid, bounds)`` with destination
    shard ``d`` owning ``[bounds[d]:bounds[d+1]]``, or ``None`` when the
    shard emitted nothing."""
    rows = staged
    mask = rows.kind == 1
    if not mask.any():
        return None
    if meta.msg_width:
        values = rows.pay[mask][:, : meta.msg_width]
        valid = rows.pay_valid[mask]
    elif meta.msg_is_varchar:
        values, valid = rows.s1[mask], rows.s1_valid[mask]
    else:
        # Mirror the SQL plane's apply_messages cast into the
        # message table's column type.
        values = rows.f1[mask].astype(meta.msg_storage_dtype)
        valid = rows.f1_valid[mask]
    senders, dst = rows.vid[mask], rows.dst[mask]
    order, bounds = _route_order(dst, rows.route_senders, shard, meta.n_shards)
    return senders[order], dst[order], values[order], valid[order], bounds


def _apply_updates_to_shard(shard: VertexShard, rows: StagedRows, meta: PlaneMeta) -> int:
    """Kind-0 rows mutate the owning shard directly — the in-memory
    equivalent of the paper's Update-vs-Replace choice (``"memory"``
    in the metrics)."""
    mask = rows.kind == 0
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0
    vids = rows.vid[mask]
    pos = np.searchsorted(shard.vertex_ids, vids)
    shard.halted[pos] = rows.halted[mask]
    if meta.value_width:
        values = rows.pay[mask][:, : meta.value_width]
        valid = rows.pay_valid[mask]
    elif meta.value_is_varchar:
        values, valid = rows.s1[mask], rows.s1_valid[mask]
    else:
        # Numeric payloads stage as float64; the SQL plane casts
        # them back on the way into the vertex table
        # (CAST(f1 AS INTEGER) for integral codecs) — mirror it.
        values = rows.f1[mask].astype(meta.value_storage_dtype)
        valid = rows.f1_valid[mask]
    shard.raw_values[pos] = values
    shard.value_valid[pos] = valid
    return count


def _run_shard_task(
    shard: VertexShard, index: int, worker: VertexWorker, meta: PlaneMeta
) -> ShardTaskOutput:
    """Execute one shard's superstep: trip/retry, compute, pre-bucket.

    A shard task is a pure function of resident state (kernels never
    mutate their input views; fancy-indexed copies back them), so a
    transient fault — injected or real — can be retried in place without
    touching the checkpoint layer.  Run counters are *not* recorded here:
    the caller accounts exactly once after the task commits.
    """
    started = time.perf_counter()
    retried = [0]

    def attempt() -> tuple[StagedRows, tuple | None, int, int]:
        faults.trip("shard.compute", superstep=worker.superstep, shard=index)
        part = shard.decoded()
        out, ran = worker.compute_decoded(part, record=False)
        staged = out.to_staged()
        return staged, _bucket_staged(staged, meta, shard), ran, part.dropped

    def on_retry(exc: BaseException, attempt_no: int, delay: float) -> None:
        retried[0] = attempt_no

    try:
        staged, routed, ran, dropped = faults.retry_call(
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
        updates=_mask_staged(staged, 0),
        routed=routed,
        agg_partials=_staged_agg_partials(staged),
        ran=ran,
        dropped=dropped,
        rows_out=staged.num_rows,
        retried=retried[0],
        seconds=time.perf_counter() - started,
    )


class ShardedDataPlane:
    """Resident shards for one run: built once, stepped per superstep,
    synced back to the relational tables per the ``superstep_sync``
    policy.  :meth:`bind_executor` moves the resident arrays into shared
    memory when the run executes on worker processes."""

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
        v_codec = program.vertex_codec
        m_codec = program.message_codec
        v_sql = v_codec.sql_type
        m_sql = m_codec.sql_type
        self.meta = PlaneMeta(
            n_shards=self.n_shards,
            task_retries=config.task_retries,
            retry_backoff=config.retry_backoff,
            value_width=v_codec.width,
            msg_width=m_codec.width,
            value_is_varchar=v_sql is VARCHAR,
            msg_is_varchar=m_sql is VARCHAR,
            value_dtype="f8" if v_sql is VARCHAR else np.dtype(v_sql.numpy_dtype).str,
            msg_dtype="f8" if m_sql is VARCHAR else np.dtype(m_sql.numpy_dtype).str,
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
        """Hash-partition the freshly set-up vertex/edge tables into
        resident shards — the single partitioning pass of the run."""
        db = self.storage.db
        graph = self.graph
        meta = self.meta
        vdata = db.table(graph.vertex_table).data()
        ids = np.asarray(vdata.column("id").values, dtype=np.int64)
        halted = np.asarray(vdata.column("halted").values, dtype=bool)
        if meta.value_width:
            names = self.program.vertex_codec.column_names()
            raw_values = np.column_stack(
                [np.asarray(vdata.column(c).values, np.float64) for c in names]
            ) if len(ids) else np.empty((0, meta.value_width), dtype=np.float64)
            value_valid = np.asarray(vdata.column(names[0]).valid, dtype=bool)
        else:
            value_col = vdata.column("value")
            raw_values = value_col.values
            value_valid = value_col.valid
        if len(ids) > 1 and np.any(ids[1:] < ids[:-1]):  # setup_run sorts; stay safe
            order = np.argsort(ids, kind="stable")
            ids, halted = ids[order], halted[order]
            raw_values, value_valid = raw_values[order], value_valid[order]

        edata = db.table(graph.edge_table).data()
        esrc = np.asarray(edata.column("src").values, dtype=np.int64)
        edst = np.asarray(edata.column("dst").values, dtype=np.int64)
        eweight = np.asarray(edata.column("weight").values, dtype=np.float64)

        n = self.n_shards
        v_order, v_bounds = hash_bucket_order(ids % n, n)
        # Edges sort by src *within* each bucket (`_csr_align` needs
        # sorted owners): `load_graph` stores canonical (src, dst,
        # weight) order, but SQL DML on the edge table between runs may
        # have appended rows out of order.  The sort is stable, so rows
        # with equal src keep table order — exactly what the SQL plane's
        # stable per-superstep lexsort delivers.
        e_order, e_bounds = hash_bucket_order(esrc % n, n, (esrc,))
        shards: list[VertexShard] = []
        for s in range(n):
            v_sel = v_order[v_bounds[s] : v_bounds[s + 1]]
            shard_ids = ids[v_sel]
            e_sel = e_order[e_bounds[s] : e_bounds[s + 1]]
            edge_indptr, (edge_targets, edge_weights), _ = _csr_align(
                esrc[e_sel], shard_ids, (edst[e_sel], eweight[e_sel])
            )
            shard = VertexShard(
                index=s,
                vertex_ids=shard_ids,
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
        if self.meta.msg_width:
            names = self.program.message_codec.column_names()
            raw = np.column_stack(
                [np.asarray(mdata.column(c).values, np.float64) for c in names]
            )
            valid = np.asarray(mdata.column(names[0]).valid, dtype=bool)
        else:
            value_col = mdata.column("value")
            raw = value_col.values
            valid = value_col.valid
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
        For serial/thread executors it is a no-op.
        """
        if not isinstance(executor, ProcessExecutor):
            return
        if self.n_shards <= 1 or executor.n_processes <= 1:
            return  # the executor serial-fallbacks anyway; nothing to share
        token = new_segment_name("vxplane")
        groups: list[SharedArrayGroup] = []
        descriptors: list[GroupDescriptor] = []
        object_values: list[np.ndarray | None] = []
        for shard in self.shards:
            arrays = {
                "vertex_ids": shard.vertex_ids,
                "halted": shard.halted,
                "value_valid": shard.value_valid,
                "edge_indptr": shard.edge_indptr,
                "edge_targets": shard.edge_targets,
                "edge_weights": shard.edge_weights,
            }
            if not self.meta.value_is_varchar:
                arrays["raw_values"] = np.asarray(shard.raw_values)
            group = SharedArrayGroup.create(f"{token}s{shard.index}", arrays)
            groups.append(group)
            descriptors.append(group.descriptor)
            # Rebind the parent's shard to the shared views: parent-side
            # vertex updates become visible to the workers with no copy.
            shard.vertex_ids = group.arrays["vertex_ids"]
            shard.halted = group.arrays["halted"]
            shard.value_valid = group.arrays["value_valid"]
            shard.edge_indptr = group.arrays["edge_indptr"]
            shard.edge_targets = group.arrays["edge_targets"]
            shard.edge_weights = group.arrays["edge_weights"]
            if not self.meta.value_is_varchar:
                shard.raw_values = group.arrays["raw_values"]
                object_values.append(None)
            else:
                object_values.append(shard.raw_values)
        bootstrap = _PlaneBootstrap(
            token=token,
            program=self.program,
            num_vertices=self.graph.num_vertices,
            meta=self.meta,
            shard_groups=tuple(descriptors),
            object_values=tuple(object_values),
            fault_plan=faults.active_plan_json(),
        )
        executor.install(bootstrap)
        self._token = token
        self._shard_groups = groups
        self._proc_executor = executor

    def _publish_inboxes(self) -> list:
        """Expose each shard's pending inbox to the worker processes.

        Fixed-width message arrays are copied into a fresh shared
        segment per shard (the previous superstep's segment is unlinked
        — workers copy their inbox out at task start, so nothing still
        references it); VARCHAR payloads ship inline by pickle.
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
            if self.meta.msg_is_varchar:
                descriptors.append(
                    ("inline", (shard.msg_src, shard.msg_dst, shard.msg_raw, shard.msg_valid))
                )
                continue
            group = SharedArrayGroup.create(
                f"{self._token}m{shard.index}",
                {
                    "msg_src": shard.msg_src,
                    "msg_dst": shard.msg_dst,
                    "msg_raw": np.asarray(shard.msg_raw),
                    "msg_valid": shard.msg_valid,
                },
            )
            self._msg_groups[shard.index] = group
            descriptors.append(("shm", group.descriptor))
        return descriptors

    def close(self) -> None:
        """Release the plane's shared segments (creator side; idempotent).
        A plane without process execution holds none — no-op."""
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
        self._proc_executor = None

    def __del__(self) -> None:  # best-effort: never leak shm segments
        try:
            self.close()
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
    def run_superstep(
        self,
        superstep: int,
        aggregated: dict[str, float],
        executor: PartitionExecutor,
    ) -> StepStats:
        """Compute every shard (optionally in parallel), then apply
        vertex updates, route messages, and reduce aggregators (into
        :attr:`aggregated`) — the synchronous superstep barrier, minus
        all the SQL.

        Each shard task also *pre-buckets* its own emitted messages by
        destination shard (inside the parallel section, through the
        shard's route plan where the send was edge-aligned), so the
        barrier-side router only concatenates per-destination inboxes
        and segment-sorts them.
        """
        worker = VertexWorker(
            self.program,
            superstep,
            self.graph.num_vertices,
            aggregated=aggregated,
            use_batch=self.use_batch,
        )
        if self._proc_executor is not None:
            return self._run_superstep_processes(worker)
        messages_in = self.pending_messages
        meta = self.meta

        def run_shard(shard: VertexShard, index: int) -> ShardTaskOutput:
            out = _run_shard_task(shard, index, worker, meta)
            worker.record_partition_counts(out.ran, out.dropped)
            return out

        outputs = executor(
            run_shard, [(shard, shard.index) for shard in self.shards]
        )
        return self._finish_superstep(worker, outputs, messages_in)

    def _run_superstep_processes(self, worker: VertexWorker) -> StepStats:
        """One superstep on the bound :class:`ProcessExecutor`: publish
        inboxes, dispatch tiny task descriptors, gather
        :class:`ShardTaskOutput` results, then run the exact same
        barrier as the in-process path."""
        messages_in = self.pending_messages
        step = _ProcessStep(
            token=self._token,
            superstep=worker.superstep,
            use_batch=worker.use_batch,
            aggregated=dict(worker.aggregated),
            inboxes=tuple(self._publish_inboxes()),
        )
        outputs = self._proc_executor(
            step, [(shard.index, shard.index) for shard in self.shards]
        )
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
            [out.routed for out in outputs]
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
        for shard, rows in zip(self.shards, staged):
            total += _apply_updates_to_shard(shard, rows, self.meta)
        return total

    # ------------------------------------------------------------------
    # In-plane message routing
    # ------------------------------------------------------------------
    def _route_messages(self, routed: list[tuple | None]) -> tuple[int, int]:
        """Deliver the pre-bucketed messages to their destination shards.
        Returns ``(rows_before_combining, rows_delivered)``.

        Ordering contract (what makes the planes bit-identical): the SQL
        plane concatenates partition outputs in partition-index order
        into the staging table, and its next-superstep lexsort is stable
        — so vertex ``v`` receives messages ordered by (source
        partition, emission order).  Here each source shard has already
        put its own messages in stable ``(destination shard,
        destination id)`` order (:func:`_bucket_staged` — through the
        shard's sort-once route plan or a lexsort, the same permutation
        either way, so ties keep emission order); a destination
        concatenates its per-source buckets in shard-index order (the
        staging order) and one stable segment-sort by destination id
        restores exactly that delivery order — the ties within a
        destination id keep (source shard, emission order).
        """
        chunks = [c for c in routed if c is not None]
        if not chunks:
            for shard in self.shards:
                shard.clear_messages(self._empty_msg_raw())
            return 0, 0

        staged = 0
        total = 0
        for shard in self.shards:
            d = shard.index
            parts = [
                (c[0][c[4][d]:c[4][d + 1]], c[1][c[4][d]:c[4][d + 1]],
                 c[2][c[4][d]:c[4][d + 1]], c[3][c[4][d]:c[4][d + 1]])
                for c in chunks
            ]
            parts = [p for p in parts if len(p[1])]
            if not parts:
                shard.clear_messages(self._empty_msg_raw())
                continue
            if len(parts) == 1:
                # A single contributing source's bucket is already sorted
                # by destination id — no merge sort needed.
                inbox = parts[0]
            else:
                senders = np.concatenate([p[0] for p in parts])
                dst = np.concatenate([p[1] for p in parts])
                values = np.concatenate([p[2] for p in parts])
                valid = np.concatenate([p[3] for p in parts])
                order = stable_int_order((dst,))
                inbox = (senders[order], dst[order], values[order], valid[order])
            staged += sum(len(p[1]) for p in parts)
            if self.use_combiner:
                inbox = self._combine(*inbox)
            shard.msg_src, shard.msg_dst, shard.msg_raw, shard.msg_valid = inbox
            total += len(inbox[1])
        return staged, total

    def _combine(
        self,
        senders: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray,
        valid: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Apply the program's combiner per destination.

        Reproduces the SQL plane's ``SELECT MIN(vid), dst, OP(...) ...
        GROUP BY dst`` arithmetic exactly: reductions run over float64
        with ``reduceat`` in arrival order, NULLs replaced by the
        reduction identity, and the result cast back to the message
        column's storage type.  Vector message codecs arrive as 2-D
        ``(rows, k)`` blocks and reduce element-wise with the same
        ``reduceat`` call over ``axis=0`` — bit-identical to the SQL
        plane's per-column aggregates (whole-vector validity broadcasts
        across the row).
        """
        boundaries = np.flatnonzero(
            np.r_[True, dst[1:] != dst[:-1]] if len(dst) else np.empty(0, bool)
        )
        out_dst = dst[boundaries]
        out_src = np.minimum.reduceat(senders, boundaries)
        valid_counts = np.add.reduceat(valid.astype(np.int64), boundaries)
        out_valid = valid_counts > 0
        floats = values.astype(np.float64)
        two_d = floats.ndim == 2
        row_valid = valid[:, None] if two_d else valid
        op = self.program.combiner
        if op == "SUM":
            floats = np.where(row_valid, floats, 0.0)
            agg = np.add.reduceat(floats, boundaries, axis=0)
        elif op == "MIN":
            floats = np.where(row_valid, floats, np.inf)
            agg = np.minimum.reduceat(floats, boundaries, axis=0)
        else:  # MAX (validate() admits nothing else)
            floats = np.where(row_valid, floats, -np.inf)
            agg = np.maximum.reduceat(floats, boundaries, axis=0)
        agg = np.where(out_valid[:, None] if two_d else out_valid, agg, 0.0)
        return out_src, out_dst, agg.astype(self.meta.msg_storage_dtype), out_valid

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
    # Sync policy: mirror resident state into the relational tables
    # ------------------------------------------------------------------
    def sync_tables(self, superstep: int | None = None) -> float:
        """Write the vertex and message tables from resident shard state
        (returns seconds spent).  Under ``superstep_sync="every"`` this
        runs per superstep; under ``"halt"`` at checkpoint boundaries
        (when checkpointing) and once at completion."""
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


@dataclass(frozen=True)
class _PlaneBootstrap:
    """The pickled-once worker bootstrap a plane installs at pool start.

    Carries everything per-superstep dispatch must not re-ship: the
    program closure, the shared-segment descriptors, VARCHAR value
    arrays (object dtype cannot live in shared memory), and the armed
    fault plan so injection sites trip inside the worker that actually
    runs the shard.
    """

    token: str
    program: VertexProgram
    num_vertices: int
    meta: PlaneMeta
    shard_groups: tuple[GroupDescriptor, ...]
    object_values: tuple[np.ndarray | None, ...]
    fault_plan: str | None

    def __call__(self) -> None:
        for plane in _CHILD_PLANES.values():
            plane.close()
        _CHILD_PLANES.clear()
        if self.fault_plan is not None:
            faults.activate(faults.FaultPlan.from_json(self.fault_plan))
        else:
            faults.deactivate()
        _CHILD_PLANES[self.token] = _ChildPlane(self)


class _ChildPlane:
    """One worker process's view of a plane: shards whose fixed-width
    arrays are views into the shared segments, VARCHAR values as local
    copies kept in lockstep by replaying the same kind-0 updates."""

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
            raw_values = (
                boot.object_values[index]
                if boot.object_values[index] is not None
                else arrays["raw_values"]
            )
            self.shards.append(
                VertexShard(
                    index=index,
                    vertex_ids=arrays["vertex_ids"],
                    halted=arrays["halted"],
                    raw_values=raw_values,
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
        tag, payload = descriptor
        if tag == "inline":
            shard.msg_src, shard.msg_dst, shard.msg_raw, shard.msg_valid = payload
            return
        group = SharedArrayGroup.attach(payload)
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
        out = _run_shard_task(shard, index, worker, self.meta)
        if self.meta.value_is_varchar and out.updates.num_rows:
            # VARCHAR values live process-locally (object dtype cannot be
            # shared); replaying the shard's own committed updates keeps
            # this copy in lockstep with the coordinator's apply.
            _apply_updates_to_shard(shard, out.updates, self.meta)
        return out


@dataclass(frozen=True)
class _ProcessStep:
    """The per-superstep task descriptor — the only thing pickled per
    dispatch: superstep scalars, the aggregated dict, and per-shard inbox
    descriptors (segment references, or inline VARCHAR payloads)."""

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
