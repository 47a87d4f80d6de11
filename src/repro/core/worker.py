"""The worker: a transform UDF that runs vertex programs over partitions.

Mirrors §2.2/§2.3 of the paper: the engine hash-partitions the worker
input on vertex id, sorts each partition, and calls the worker once per
partition ("Vertex Batching").  The worker rebuilds per-vertex context
(value, out-edges, incoming messages) from the unified tuple stream,
invokes the program, and emits vertex updates and outgoing messages in
the staging schema.

The data plane is vectorized end-to-end in three layers:

1. **Batch decode** — each partition is split by ``kind`` with numpy
   masks into vertex/message sub-arrays once, and group extents are
   derived with a single ``searchsorted`` pass into CSR-style
   ``indptr`` arrays.  No per-row Python dispatch.
2. **Batch compute** — programs implementing
   :class:`~repro.core.program.BatchVertexProgram` receive one
   :class:`~repro.core.program.VertexBatch` of dense numpy views per
   partition and run whole-array kernels; other programs fall back to
   the per-vertex scalar path, which now assembles each
   :class:`~repro.core.api.Vertex` from pre-decoded array slices.
3. **Batch staging** — outputs accumulate per role (vertex updates,
   messages, aggregator partials) as numpy array blocks in the codecs'
   storage form (the batch path never touches Python scalars) and are
   assembled into columns directly, skipping per-item
   ``coerce_python_value``.

Measured on the Figure-2 harness this made PageRank/SSSP supersteps
roughly an order of magnitude faster than a row-at-a-time worker (the
measurement is recorded in CHANGES.md).

Two input formats are supported, matching the Table Unions ablation:

* ``union``  — NULL-padded rows ``(vid, kind, i1, p0..p{K-1})`` from a
  UNION ALL of the vertex and message tables (kind 0/2 =
  vertex/message), each value in its codec's own storage type in the
  payload lane (:func:`~repro.core.storage.payload_layout`).  The edge
  relation does not change during a run, so it is not re-read: partition
  ``p`` (``vid % n``) takes its CSR out-edges from shard ``p`` of the
  graph version's :class:`~repro.core.shards.ShardIndex`, the topology
  the shard plane runs on;
* ``join``   — wide rows from the naive three-way join, one per
  (vertex x out-edge x incoming-message) combination, each value in its
  codec's own storage columns, which the worker must de-duplicate.

Both formats decode into the same :class:`_DecodedPartition`, so the
batch and scalar compute paths run on either.  The shard-resident data
plane (:mod:`repro.core.shards`) skips layer 1 entirely: it builds
:class:`_DecodedPartition` views over resident arrays and enters at
:meth:`VertexWorker.compute_decoded`, consuming outputs as
:class:`StagedRows` and :class:`EmittedMessages` instead of a staging
table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

import numpy as np

from repro.core.api import OutEdge, Vertex
from repro.core.codecs import ValueCodec, encoded_storage
from repro.core.program import VertexBatch, VertexProgram, supports_batch
from repro.core.storage import (
    PayloadLayout,
    payload_layout,
    storage_arrays,
    storage_form,
    worker_output_columns,
)
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.operators import run_starts
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import DataType
from repro.errors import ProgramError

if TYPE_CHECKING:
    from repro.core.shards import ShardIndex

__all__ = [
    "EmittedMessages",
    "StagedRows",
    "VertexWorker",
    "worker_output_schema",
    "segment_sum",
    "segment_min",
    "segment_max",
    "segment_mean",
]


def worker_output_schema(layout: PayloadLayout) -> Schema:
    """The staging schema worker calls must produce for a run's payload
    lane."""
    return Schema(
        ColumnDef(name, dtype, nullable=nullable)
        for name, dtype, nullable in worker_output_columns(layout)
    )


# ---------------------------------------------------------------------------
# Segment-reduction kernels (sorted-segment reduceat machinery)
# ---------------------------------------------------------------------------
def _segment_prepare(values: Any, segments: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (values, indptr) pair for the ``segment_*`` kernels.

    ``segments`` is a CSR-style index pointer of length ``n_segments + 1``:
    segment ``i`` owns rows ``values[segments[i]:segments[i+1]]``.  The
    segments must tile ``values`` exactly (``segments[0] == 0`` and
    ``segments[-1] == len(values)``) — the compact layout ``reduceat``
    needs, and the one :class:`~repro.core.program.VertexBatch` exposes
    via ``msg_indptr``.
    """
    values = np.asarray(values, dtype=np.float64)
    indptr = np.asarray(segments, dtype=np.int64)
    if indptr.ndim != 1 or len(indptr) == 0:
        raise ProgramError("segments must be a 1-D indptr array of length >= 1")
    if indptr[0] != 0 or indptr[-1] != len(values):
        raise ProgramError(
            "segments must tile values exactly: expected segments[0] == 0 and "
            f"segments[-1] == len(values) ({len(values)}), got "
            f"[{indptr[0]}, {indptr[-1]}]"
        )
    if np.any(np.diff(indptr) < 0):
        raise ProgramError("segments must be non-decreasing")
    return values, indptr


def _segment_reduce_kernel(
    ufunc: np.ufunc, values: Any, segments: Any, identity: float
) -> np.ndarray:
    values, indptr = _segment_prepare(values, segments)
    n_segments = len(indptr) - 1
    shape = (n_segments,) + values.shape[1:]
    out = np.full(shape, identity, dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(indptr))
    if len(nonempty):
        # Compact segments: each nonempty start doubles as the previous
        # stop, exactly the index vector ``reduceat`` wants.
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty], axis=0)
    return out


def segment_sum(values: Any, segments: Any) -> np.ndarray:
    """Per-segment sum over a 1-D or 2-D ``(rows, k)`` float array.

    Runs the same float64 ``np.add.reduceat`` the data planes' SUM
    combiner uses, so a batch kernel reducing messages with this helper
    is bit-identical with and without combining.  Empty segments yield
    0.0; NaN rows propagate.
    """
    return _segment_reduce_kernel(np.add, values, segments, 0.0)


def segment_min(values: Any, segments: Any) -> np.ndarray:
    """Per-segment (element-wise for 2-D) minimum; empty segments yield
    ``+inf``, NaN rows propagate.  Matches the MIN combiner bitwise."""
    return _segment_reduce_kernel(np.minimum, values, segments, np.inf)


def segment_max(values: Any, segments: Any) -> np.ndarray:
    """Per-segment (element-wise for 2-D) maximum; empty segments yield
    ``-inf``, NaN rows propagate.  Matches the MAX combiner bitwise."""
    return _segment_reduce_kernel(np.maximum, values, segments, -np.inf)


def segment_mean(values: Any, segments: Any) -> np.ndarray:
    """Per-segment mean (``segment_sum`` divided by the member count —
    the SQL ``AVG`` arithmetic).  Empty segments yield NaN."""
    sums = _segment_reduce_kernel(np.add, values, segments, 0.0)
    counts = np.diff(np.asarray(segments, dtype=np.int64)).astype(np.float64)
    if sums.ndim == 2:
        counts = counts[:, None]
    empty = counts == 0.0
    out = sums / np.where(empty, 1.0, counts)
    return np.where(empty, np.nan, out)


# ---------------------------------------------------------------------------
# Decoded partitions (layer 1: batch decode)
# ---------------------------------------------------------------------------
@dataclass
class _DecodedPartition:
    """One partition split into aligned vertex/edge/message arrays.

    ``vertex_ids`` is sorted and covers exactly the vertices that have a
    vertex row; edges and messages are compacted CSR-style against it.
    Values are still *encoded* (storage representation) — decoding is the
    compute paths' job, so each path decodes only what it needs.
    """

    vertex_ids: np.ndarray  # int64 [nv]
    halted: np.ndarray  # bool  [nv]
    raw_values: np.ndarray  # storage values aligned to vertex_ids ((nv, k) for vector codecs)
    value_valid: np.ndarray  # bool  [nv]
    edge_indptr: np.ndarray  # int64 [nv + 1]
    edge_targets: np.ndarray  # int64 [ne]
    edge_weights: np.ndarray  # float64 [ne]
    msg_indptr: np.ndarray  # int64 [nv + 1]
    msg_src: np.ndarray  # int64 senders [nm] (the message table's src column)
    msg_raw: np.ndarray  # storage values [nm] ((nm, k) for vector codecs)
    msg_valid: np.ndarray  # bool [nm]
    dropped: int  # messages addressed to ids with no vertex row

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    def active_mask(self, superstep: int) -> np.ndarray:
        """Vertices that run this superstep: everyone at superstep 0,
        afterwards any vertex with messages or not yet halted."""
        if superstep == 0:
            return np.ones(self.num_vertices, dtype=bool)
        has_messages = np.diff(self.msg_indptr) > 0
        return has_messages | ~self.halted


def _csr_align(
    owners: np.ndarray, vertex_ids: np.ndarray, payloads: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, tuple[np.ndarray, ...], int]:
    """Compact rows owned by sorted ``owners`` into CSR extents aligned to
    ``vertex_ids``; rows owned by unknown ids are dropped (counted)."""
    nv = len(vertex_ids)
    starts = np.searchsorted(owners, vertex_ids, side="left")
    stops = np.searchsorted(owners, vertex_ids, side="right")
    counts = stops - starts
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    dropped = len(owners) - int(indptr[-1])
    if dropped == 0:
        # Every row is owned: the segments already tile the arrays in order.
        return indptr, payloads, 0
    gather = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    return indptr, tuple(p[gather] for p in payloads), dropped


def _csr_select(
    indptr: np.ndarray, mask: np.ndarray, payloads: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Restrict CSR segments to the vertices selected by ``mask``."""
    if bool(mask.all()):
        return indptr, payloads
    starts = indptr[:-1][mask]
    counts = indptr[1:][mask] - starts
    new_indptr = np.zeros(int(mask.sum()) + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    gather = np.repeat(starts - new_indptr[:-1], counts) + np.arange(new_indptr[-1])
    return new_indptr, tuple(p[gather] for p in payloads)


# ---------------------------------------------------------------------------
# Columnar output staging (layer 3: batch staging)
# ---------------------------------------------------------------------------
@dataclass
class StagedRows:
    """One partition's vertex updates (the staging table's kind-0 rows)
    as plain aligned arrays in emission order, ``values`` in the vertex
    codec's storage form and type: 1-D for a scalar codec, ``(n, k)`` for
    a vector codec."""

    vid: np.ndarray  # int64
    halted: np.ndarray  # bool halt votes
    values: np.ndarray
    valid: np.ndarray  # bool

    @property
    def num_rows(self) -> int:
        return len(self.vid)


class EmittedMessages(NamedTuple):
    """One partition's messages (the staging table's kind-1 rows) in
    emission order, ``values`` in the message codec's storage form and
    type.

    ``route_senders`` is a per-vertex bool mask (partition positions) of
    who sent, set only when the rows are one edge-aligned block — one row
    per out-edge of the flagged vertices, in the partition's CSR edge
    order (``VertexBatch.send_to_all_neighbors`` / ``send_along_edges``);
    ``None`` for ``send()``, several blocks, or the scalar path.

    A *vertex-aligned* block (one ``send_to_all_neighbors`` call) carries
    no per-edge array: ``senders`` and ``dst`` are ``None``, and
    ``values`` / ``valid`` hold one payload per partition vertex, read
    only where ``route_senders`` is set.  :meth:`edge_rows` expands it to
    one row per message.  ``num_rows`` counts the rows either way.
    """

    senders: np.ndarray | None
    dst: np.ndarray | None
    values: np.ndarray
    valid: np.ndarray
    route_senders: np.ndarray | None
    num_rows: int

    @property
    def vertex_aligned(self) -> bool:
        return self.dst is None

    def edge_rows(
        self, vertex_ids: np.ndarray, edge_indptr: np.ndarray, edge_targets: np.ndarray
    ) -> EmittedMessages:
        """The block with one row per message — each sender's payload
        repeated along its out-edges in CSR order — given the partition's
        sorted vertex ids and CSR out-edges (the block itself when it
        already has its rows)."""
        if self.dst is not None:
            return self
        sending = self.route_senders
        degrees = np.diff(edge_indptr)
        if bool(sending.all()):
            counts, dst = degrees, edge_targets
        else:
            counts = np.where(sending, degrees, 0)
            dst = edge_targets[np.repeat(sending, degrees)]
        return EmittedMessages(
            np.repeat(vertex_ids, counts),
            dst,
            np.repeat(self.values, counts, axis=0),
            np.repeat(self.valid, counts),
            sending,
            self.num_rows,
        )


def _lane(
    batch: RecordBatch, codec: ValueCodec, names: Sequence[str], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One codec's storage form and validity, read from the input columns
    ``names`` of ``batch`` at ``rows``."""
    return storage_form(codec, [batch.column(name).take(rows) for name in names])


def _storage(codec: ValueCodec, values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Decoded values in the codec's storage form and its column type."""
    return np.asarray(codec.encode_array(values, valid), dtype=codec.sql_type.numpy_dtype)


def _stack(blocks: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Blocks of aligned arrays, concatenated array by array."""
    return tuple(
        parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in zip(*blocks)
    )


def _staged_column(dtype: DataType, n: int, segments: list[tuple]) -> Column:
    """An ``n``-row staging column, NULL except where a ``(start, values,
    valid)`` segment writes."""
    values = np.full(n, dtype.default_value(), dtype=dtype.numpy_dtype)
    valid = np.zeros(n, dtype=bool)
    for start, part, part_valid in segments:
        values[start : start + len(part)] = part
        valid[start : start + len(part)] = part_valid
    return Column(dtype, values, valid)


class _Outputs:
    """Columnar accumulators for one worker invocation, one per role.

    Vertex updates and messages arrive as numpy array blocks, values in
    their codec's storage form (the batch path adds one block per call,
    the scalar path one of each at the end); aggregator contributions are
    reduced to one partial per aggregator before staging.  Within each
    role rows keep emission order, which both planes' delivery order
    rests on.  :meth:`to_staged` hands the arrays to the shard plane as
    they are; :meth:`to_batch` writes the same arrays into the staging
    table's columns.  ``part`` is the partition computed over: its vertex
    ids and CSR out-edges expand a vertex-aligned message block into rows
    where rows are read.
    """

    __slots__ = ("v_codec", "part", "updates", "messages", "agg_partials")

    def __init__(self, v_codec: ValueCodec, part: _DecodedPartition) -> None:
        self.v_codec = v_codec
        self.part = part
        self.updates: list[tuple[np.ndarray, ...]] = []  # (vid, halted, values, valid)
        self.messages: list[EmittedMessages] = []
        self.agg_partials: list[tuple[str, float]] = []

    def add_vertex_block(
        self, vids: np.ndarray, halted: np.ndarray, values: np.ndarray, valid: np.ndarray
    ) -> None:
        """A block of kind-0 rows (no per-item work)."""
        if len(vids):
            self.updates.append(
                (np.asarray(vids, dtype=np.int64), np.asarray(halted, dtype=bool), values, valid)
            )

    def add_message_block(
        self,
        senders: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
        valid: np.ndarray,
        route_senders: np.ndarray | None = None,
    ) -> None:
        """A block of kind-1 rows (no per-item work)."""
        if len(senders):
            self.messages.append(
                EmittedMessages(
                    np.asarray(senders, dtype=np.int64),
                    np.asarray(targets, dtype=np.int64),
                    values,
                    valid,
                    route_senders,
                    len(senders),
                )
            )

    def add_vertex_aligned_block(
        self, values: np.ndarray, valid: np.ndarray, route_senders: np.ndarray, num_rows: int
    ) -> None:
        """A vertex-aligned block: one payload per partition vertex, sent
        along the out-edges of the ``route_senders`` (``num_rows`` edges)."""
        self.messages.append(EmittedMessages(None, None, values, valid, route_senders, num_rows))

    def _edge_rows(self, block: EmittedMessages) -> EmittedMessages:
        part = self.part
        return block.edge_rows(part.vertex_ids, part.edge_indptr, part.edge_targets)

    def to_staged(self) -> tuple[StagedRows, EmittedMessages | None, list[tuple[str, float]]]:
        """The accumulated rows per role as plain arrays (the shard
        plane's path — no :class:`~repro.engine.column.Column` wrapping,
        no staging table): the vertex updates, the messages (``None`` when
        none were sent; one block as it was emitted, several stacked row
        by row, untagged) and the aggregator partials."""
        if self.updates:
            updates = StagedRows(*_stack(self.updates))
        else:
            flags = np.empty(0, dtype=bool)
            updates = StagedRows(
                np.empty(0, dtype=np.int64), flags, _storage(self.v_codec, np.empty(0), flags), flags
            )
        messages = None
        if len(self.messages) == 1:
            messages = self.messages[0]
        elif self.messages:
            blocks = [self._edge_rows(block) for block in self.messages]
            messages = EmittedMessages(
                *_stack([block[:4] for block in blocks]),
                None,
                sum(block.num_rows for block in blocks),
            )
        return updates, messages, self.agg_partials

    def to_batch(
        self, schema: Schema, layout: PayloadLayout, aggregators: dict[str, str]
    ) -> RecordBatch:
        """The staging rows: vertex updates, then messages, then aggregator
        partials (``dst`` = the aggregator's position in ``aggregators``),
        each payload in its role's lane columns."""
        updates, messages, partials = self.to_staged()
        if messages is not None:
            messages = self._edge_rows(messages)
        at_messages = updates.num_rows
        at_partials = at_messages + (0 if messages is None else messages.num_rows)
        n = at_partials + len(partials)
        segments: dict[str, list[tuple]] = {name: [] for name in schema.names()}
        rows_per_kind = (at_messages, at_partials - at_messages, len(partials))
        segments["kind"] = [(0, np.repeat(np.arange(3), rows_per_kind), True)]
        segments["vid"].append((0, updates.vid, True))
        segments["halted"].append((0, updates.halted, True))
        for name, part in zip(layout.vertex, storage_arrays(updates.values)):
            segments[name].append((0, part, updates.valid))
        if messages is not None:
            segments["vid"].append((at_messages, messages.senders, True))
            segments["dst"].append((at_messages, messages.dst, True))
            for name, part in zip(layout.message, storage_arrays(messages.values)):
                segments[name].append((at_messages, part, messages.valid))
        if partials:
            names = list(aggregators)
            segments["vid"].append((at_partials, np.zeros(len(partials), np.int64), True))
            segments["dst"].append((at_partials, [names.index(name) for name, _ in partials], True))
            segments["f1"].append((at_partials, [value for _, value in partials], True))
        return RecordBatch(
            schema, [_staged_column(c.dtype, n, segments[c.name]) for c in schema]
        )


# ---------------------------------------------------------------------------
# The worker
# ---------------------------------------------------------------------------
class VertexWorker:
    """One superstep's worker UDF over a program.

    Thread-safe across partitions: per-partition state is local; shared
    counters are guarded by a lock (cheap — updated once per partition).

    Args:
        input_format: how :meth:`__call__` decodes its relational rows —
            ``"union"`` or ``"join"``; ``None`` (the shard plane) for a
            worker entered only through :meth:`compute_decoded`.
        use_batch: run :meth:`BatchVertexProgram.compute_batch` instead of
            per-vertex ``compute``.  ``None`` (default) auto-detects from
            the program; the coordinator passes the configured strategy.
        topology: the graph version's :class:`~repro.core.shards.ShardIndex`
            (:func:`~repro.core.shards.shard_index`), whose shard ``p``
            holds partition ``p``'s CSR out-edges.  Required by the union
            format, whose rows carry no edges.
    """

    def __init__(
        self,
        program: VertexProgram,
        superstep: int,
        num_vertices: int,
        input_format: str | None = None,
        aggregated: dict[str, float] | None = None,
        use_batch: bool | None = None,
        topology: ShardIndex | None = None,
    ) -> None:
        if input_format not in (None, "union", "join"):
            raise ProgramError(f"unknown worker input format {input_format!r}")
        if input_format == "union" and topology is None:
            raise ProgramError(
                "the union input format reads its out-edges from the graph "
                "version's topology: pass topology=shard_index(...)[0]"
            )
        if use_batch is None:
            use_batch = supports_batch(program)
        if use_batch and not supports_batch(program):
            raise ProgramError(
                f"{type(program).__name__} does not implement compute_batch; "
                "use the scalar path"
            )
        self.program = program
        self.superstep = superstep
        self.num_vertices = num_vertices
        self.input_format = input_format
        self.use_batch = use_batch
        self.topology = topology
        self.aggregated = aggregated or {}
        self.layout = payload_layout(program)
        self.schema = worker_output_schema(self.layout)
        self._lock = threading.Lock()
        #: vertices whose compute function ran this superstep
        self.vertices_ran = 0
        #: messages addressed to ids with no vertex row (dropped)
        self.messages_dropped = 0
        #: relational input rows seen across all partitions
        self.rows_in = 0

    # ------------------------------------------------------------------
    def __call__(self, partition: RecordBatch, partition_index: int) -> RecordBatch:
        """Process one sorted partition; returns staged output rows."""
        if self.input_format == "union":
            part = self._decode_union(partition, partition_index)
        elif self.input_format == "join":
            part = self._decode_join(partition)
        else:
            raise ProgramError("a worker without an input format only computes decoded partitions")
        out, _ = self.compute_decoded(part)
        with self._lock:
            self.rows_in += partition.num_rows
        return out.to_batch(self.schema, self.layout, self.program.aggregators)

    def compute_decoded(
        self, part: _DecodedPartition, record: bool = True
    ) -> tuple[_Outputs, int]:
        """Layer 2 alone: run the program over an already-decoded
        partition and return the staged outputs plus the number of
        vertices that ran.

        The SQL-staged path reaches here through :meth:`__call__` (layer
        1 decodes the partition from relational rows); the shard plane
        builds :class:`_DecodedPartition` views straight from resident
        arrays and calls this directly.  Thread-safe across partitions.

        ``record=False`` skips the shared run counters so a caller that
        may *retry* the partition (the shard plane's transient-fault
        retry loop) can account exactly once via
        :meth:`record_partition_counts` after it commits to a result.
        """
        out = _Outputs(self.program.vertex_codec, part)
        active = part.active_mask(self.superstep)
        if self.use_batch:
            ran = self._run_batch(out, part, active)
        else:
            ran = self._run_scalar(out, part, active)
        self._reduce_partition_aggregates(out)
        if record:
            self.record_partition_counts(ran, part.dropped)
        return out, ran

    def record_partition_counts(self, ran: int, dropped: int) -> None:
        """Fold one partition's outcome into the shared run counters."""
        with self._lock:
            self.vertices_ran += ran
            self.messages_dropped += dropped

    def _reduce_partition_aggregates(self, out: _Outputs) -> None:
        """Pre-reduce this partition's aggregator contributions to one
        partial per aggregator (the SQL GROUP BY or the shard plane's
        barrier finishes the job)."""
        if not out.agg_partials:
            return
        grouped: dict[str, list[float]] = {}
        for name, value in out.agg_partials:
            op = self.program.aggregators.get(name)
            if op is None:
                raise ProgramError(
                    f"vertex aggregated to undeclared aggregator {name!r}; "
                    f"declare it in {type(self.program).__name__}.aggregators"
                )
            grouped.setdefault(name, []).append(value)
        out.agg_partials = [
            (name, self.program.reduce_aggregate(self.program.aggregators[name], values))
            for name, values in grouped.items()
        ]

    # ------------------------------------------------------------------
    # Union format decode
    # ------------------------------------------------------------------
    def _decode_union(self, batch: RecordBatch, partition_index: int) -> _DecodedPartition:
        vid = np.asarray(batch.column("vid").values, dtype=np.int64)
        kind = batch.column("kind").values
        i1 = batch.column("i1").values
        program, layout = self.program, self.layout
        v_idx = np.flatnonzero(kind == 0)
        vertex_ids = vid[v_idx]
        halted = i1[v_idx] == 1
        raw_values, value_valid = _lane(batch, program.vertex_codec, layout.vertex, v_idx)

        if not np.array_equal(vertex_ids, self.topology.vertex_ids[partition_index]):
            raise ProgramError(
                f"partition {partition_index}'s vertex ids differ from the topology's "
                "split; the vertex table must be immutable during a run"
            )
        edge_indptr, edge_targets, edge_weights = self.topology.shard_edges(partition_index)

        m_idx = np.flatnonzero(kind == 2)
        msg_values, msg_value_valid = _lane(batch, program.message_codec, layout.message, m_idx)
        msg_indptr, (msg_src, msg_raw, msg_valid), dropped = _csr_align(
            vid[m_idx],
            vertex_ids,
            (
                i1[m_idx].astype(np.int64, copy=False),  # the message src column
                msg_values,
                msg_value_valid,
            ),
        )
        return _DecodedPartition(
            vertex_ids, halted, raw_values, value_valid,
            edge_indptr, edge_targets, edge_weights,
            msg_indptr, msg_src, msg_raw, msg_valid, dropped,
        )

    # ------------------------------------------------------------------
    # Join format decode (the paper's naive-join foil, de-duplicated)
    # ------------------------------------------------------------------
    def _decode_join(self, batch: RecordBatch) -> _DecodedPartition:
        vid = np.asarray(batch.column("vid").values, dtype=np.int64)
        n = len(vid)
        halted_col = batch.column("halted").values
        edst = batch.column("edst")
        eweight = batch.column("eweight")
        msrc = batch.column("msrc")
        v_codec, m_codec = self.program.vertex_codec, self.program.message_codec

        first_idx = np.flatnonzero(run_starts((vid,)))
        vertex_ids = vid[first_idx]
        halted = halted_col[first_idx] == 1
        raw_values, value_valid = _lane(
            batch, v_codec, ["v" + name for name in v_codec.column_names()], first_idx
        )

        # Rows are sorted by (vid, edst, msrc); within a group either every
        # row carries an edge or none does.  Distinct edst values give the
        # edge list; the first edge's block carries each message once.
        edst_vals = edst.values
        edst_valid = edst.valid
        e_rows = np.flatnonzero(edst_valid & run_starts((vid, edst_vals)))
        edge_indptr, (edge_targets, edge_weights), _ = _csr_align(
            vid[e_rows],
            vertex_ids,
            (
                edst_vals[e_rows].astype(np.int64, copy=False),
                np.asarray(eweight.values[e_rows], dtype=np.float64),
            ),
        )

        group_lengths = np.diff(np.concatenate((first_idx, [n])))
        first_edst_per_row = edst_vals[np.repeat(first_idx, group_lengths)] if n else edst_vals
        m_rows = np.flatnonzero(
            msrc.valid & (~edst_valid | (edst_vals == first_edst_per_row))
        )
        msg_values, msg_value_valid = _lane(
            batch, m_codec, ["m" + name for name in m_codec.column_names()], m_rows
        )
        msg_indptr, (msg_src, msg_raw, msg_valid), _ = _csr_align(
            vid[m_rows],
            vertex_ids,
            (msrc.values[m_rows].astype(np.int64, copy=False), msg_values, msg_value_valid),
        )
        # Every join row carries a vertex, so nothing is ever dropped.
        return _DecodedPartition(
            vertex_ids, halted, raw_values, value_valid,
            edge_indptr, edge_targets, edge_weights,
            msg_indptr, msg_src, msg_raw, msg_valid, 0,
        )

    # ------------------------------------------------------------------
    # Layer 2a: vectorized batch compute
    # ------------------------------------------------------------------
    def _run_batch(self, out: _Outputs, part: _DecodedPartition, active: np.ndarray) -> int:
        act = np.flatnonzero(active)
        if len(act) == 0:
            return 0
        v_codec = self.program.vertex_codec
        m_codec = self.program.message_codec
        edge_indptr, (edge_targets, edge_weights) = _csr_select(
            part.edge_indptr, active, (part.edge_targets, part.edge_weights)
        )
        msg_indptr, (msg_src, msg_raw, msg_valid) = _csr_select(
            part.msg_indptr, active, (part.msg_src, part.msg_raw, part.msg_valid)
        )
        ctx = VertexBatch(
            ids=part.vertex_ids[act],
            values=v_codec.decode_array(part.raw_values[act], part.value_valid[act]),
            values_valid=part.value_valid[act],
            was_halted=part.halted[act],
            edge_indptr=edge_indptr,
            edge_targets=edge_targets,
            edge_weights=edge_weights,
            msg_indptr=msg_indptr,
            message_values=m_codec.decode_array(msg_raw, msg_valid),
            message_valid=msg_valid,
            superstep=self.superstep,
            num_vertices=self.num_vertices,
            aggregated=self.aggregated,
            message_senders=msg_src,
        )
        self.program.compute_batch(ctx)  # type: ignore[attr-defined]

        values, valid = ctx.collect_values()
        out.add_vertex_block(
            ctx.ids, ctx.collect_halt_votes(), _storage(v_codec, values, valid), valid
        )
        for senders, targets, payload, sending in ctx.collect_message_blocks():
            # Name an edge-aligned block's senders by partition position
            # (the batch only holds the active vertices).
            route = sending
            if sending is not None and len(act) < part.num_vertices:
                route = np.zeros(part.num_vertices, dtype=bool)
                route[act] = sending
            if targets is not None:  # send() / send_along_edges: one payload per row
                sent = np.ones(len(payload), dtype=bool)
                out.add_message_block(
                    senders, targets, _storage(m_codec, payload, sent), sent, route
                )
                continue
            # send_to_all_neighbors: one payload per vertex, encoded for the
            # senders only and laid out by partition position.
            every = bool(route.all())
            shipped = payload if every else payload[sending]
            encoded = _storage(m_codec, shipped, np.ones(len(shipped), dtype=bool))
            if not every:
                aligned = np.zeros((part.num_vertices, *encoded.shape[1:]), dtype=encoded.dtype)
                aligned[route] = encoded
                encoded = aligned
            out.add_vertex_aligned_block(
                encoded,
                np.ones(part.num_vertices, dtype=bool),
                route,
                int(np.diff(part.edge_indptr)[route].sum()),
            )
        for name, contributions in ctx.collect_aggregates():
            out.agg_partials.extend(
                (name, value) for value in contributions.tolist()
            )
        return len(act)

    # ------------------------------------------------------------------
    # Layer 2b: scalar per-vertex compute over pre-decoded arrays
    # ------------------------------------------------------------------
    def _run_scalar(self, out: _Outputs, part: _DecodedPartition, active: np.ndarray) -> int:
        v_codec = self.program.vertex_codec
        m_codec = self.program.message_codec
        ids = part.vertex_ids.tolist()
        halted = part.halted.tolist()
        values = v_codec.decode_list(part.raw_values, part.value_valid)
        messages = m_codec.decode_list(part.msg_raw, part.msg_valid)
        senders = part.msg_src.tolist()
        targets = part.edge_targets.tolist()
        weights = part.edge_weights.tolist()
        e_ptr = part.edge_indptr.tolist()
        m_ptr = part.msg_indptr.tolist()
        ran_ids: list[int] = []
        votes: list[bool] = []
        new_values: list[Any] = []  # encoded, None = NULL
        out_senders: list[int] = []
        out_targets: list[int] = []
        out_messages: list[Any] = []  # encoded, None = NULL
        for i in np.flatnonzero(active).tolist():
            edges = [
                OutEdge(target, weight)
                for target, weight in zip(
                    targets[e_ptr[i]:e_ptr[i + 1]], weights[e_ptr[i]:e_ptr[i + 1]]
                )
            ]
            vertex = Vertex(
                ids[i],
                values[i],
                edges,
                messages[m_ptr[i]:m_ptr[i + 1]],
                self.superstep,
                self.num_vertices,
                halted[i],
                aggregated=self.aggregated,
                senders=senders[m_ptr[i]:m_ptr[i + 1]],
            )
            self.program.compute(vertex)
            _, new_value = vertex.collect_value_update()
            # A vertex that ran always records its (possibly re-set) halt
            # state; value is carried through unchanged when compute did
            # not touch it.
            ran_ids.append(ids[i])
            votes.append(vertex.collect_halt_vote())
            new_values.append(v_codec.encode_or_none(new_value))
            for target, message in vertex.collect_outbox():
                out_senders.append(ids[i])
                out_targets.append(target)
                out_messages.append(m_codec.encode_or_none(message))
            out.agg_partials.extend(vertex.collect_aggregates())
        out.add_vertex_block(
            np.array(ran_ids, dtype=np.int64),
            np.array(votes, dtype=bool),
            *encoded_storage(v_codec, new_values),
        )
        out.add_message_block(
            np.array(out_senders, dtype=np.int64),
            np.array(out_targets, dtype=np.int64),
            *encoded_storage(m_codec, out_messages),
        )
        return len(ran_ids)
