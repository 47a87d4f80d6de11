"""The worker: a transform UDF that runs vertex programs over partitions.

Mirrors §2.2/§2.3 of the paper: the engine hash-partitions the worker
input on vertex id, sorts each partition, and calls the worker once per
partition ("Vertex Batching").  The worker rebuilds per-vertex context
(value, out-edges, incoming messages) from the unified tuple stream,
invokes the program, and emits vertex updates and outgoing messages in
the staging schema.

The data plane is vectorized end-to-end in three layers:

1. **Batch decode** — each partition is split by ``kind`` with numpy
   masks into vertex/edge/message sub-arrays once, and group extents are
   derived with a single ``searchsorted`` pass into CSR-style
   ``indptr`` arrays.  No per-row Python dispatch.
2. **Batch compute** — programs implementing
   :class:`~repro.core.program.BatchVertexProgram` receive one
   :class:`~repro.core.program.VertexBatch` of dense numpy views per
   partition and run whole-array kernels; other programs fall back to
   the per-vertex scalar path, which now assembles each
   :class:`~repro.core.api.Vertex` from pre-decoded array slices.
3. **Batch staging** — outputs accumulate as numpy array blocks (the
   batch path never touches Python scalars) and are assembled into
   columns directly, skipping per-item ``coerce_python_value``.

Measured on the Figure-2 harness this makes PageRank/SSSP supersteps
roughly an order of magnitude faster than the seed's row-at-a-time
worker (see ``benchmarks/run_bench.py`` / BENCH_PR1.json).

Two input formats are supported, matching the Table Unions ablation:

* ``union``  — narrow rows ``(vid, kind, i1, f1, s1)`` from a UNION ALL of
  the three tables (kind 0/1/2 = vertex/edge/message);
* ``join``   — wide rows from the naive three-way join, one per
  (vertex x out-edge x incoming-message) combination, which the worker
  must de-duplicate.

Both formats decode into the same :class:`_DecodedPartition`, so the
batch and scalar compute paths run on either.  The shard-resident data
plane (:mod:`repro.core.shards`) skips layer 1 entirely: it builds
:class:`_DecodedPartition` views over resident arrays and enters at
:meth:`VertexWorker.compute_decoded`, consuming outputs as
:class:`StagedRows` instead of a staging table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.api import OutEdge, Vertex
from repro.core.codecs import ValueCodec
from repro.core.program import VertexBatch, VertexProgram, supports_batch
from repro.core.storage import payload_width, worker_output_columns
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, VARCHAR
from repro.errors import ProgramError

__all__ = [
    "EdgeCache",
    "StagedRows",
    "VertexWorker",
    "worker_output_schema",
    "segment_sum",
    "segment_min",
    "segment_max",
    "segment_mean",
]


def worker_output_schema(width: int = 0) -> Schema:
    """The staging schema worker calls must produce (``width`` extra
    FLOAT payload columns when a codec is vector-valued)."""
    return Schema(
        ColumnDef(name, dtype, nullable=nullable)
        for name, dtype, nullable in worker_output_columns(width)
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


class EdgeCache:
    """Per-partition decoded CSR edge arrays, shared across supersteps.

    The edge relation is immutable for the duration of a run and the
    partitioning function (vid hash) and vertex set are stable, so the
    (vertex_ids, edge_indptr, edge_targets, edge_weights) tuple decoded at
    superstep 0 is valid for every later superstep.  Once ``primed``, the
    coordinator drops the edge relation from the union input SQL entirely
    and the worker reads edges from here instead.
    """

    __slots__ = ("partitions", "primed", "_lock")

    def __init__(self) -> None:
        #: partition index -> (vertex_ids, edge_indptr, edge_targets, edge_weights)
        self.partitions: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self.primed = False
        self._lock = threading.Lock()

    def store(
        self,
        partition_index: int,
        vertex_ids: np.ndarray,
        edge_indptr: np.ndarray,
        edge_targets: np.ndarray,
        edge_weights: np.ndarray,
    ) -> None:
        """Record one partition's decoded edges (superstep 0)."""
        with self._lock:
            self.partitions[partition_index] = (
                vertex_ids, edge_indptr, edge_targets, edge_weights
            )

    def lookup(
        self, partition_index: int, vertex_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This partition's cached ``(indptr, targets, weights)``.

        Raises:
            ProgramError: when the partition was never cached or its
                vertex set changed — both would mean the superstep-0
                alignment no longer holds, which violates the run
                invariants this cache relies on.
        """
        entry = self.partitions.get(partition_index)
        if entry is None:
            if len(vertex_ids) == 0:
                # This bucket held no rows at all at superstep 0 (it has no
                # vertex rows, so it only runs now because a message to a
                # nonexistent id hashed here) — it has no edges either.
                empty = np.empty(0, dtype=np.int64)
                return np.zeros(1, dtype=np.int64), empty, np.empty(0, np.float64)
            raise ProgramError(
                f"edge cache has no entry for partition {partition_index}; "
                "was superstep 0 run with a different partitioning?"
            )
        cached_ids, indptr, targets, weights = entry
        if not np.array_equal(cached_ids, vertex_ids):
            raise ProgramError(
                f"edge cache vertex set changed for partition {partition_index}; "
                "the vertex table must be immutable during a run"
            )
        return indptr, targets, weights


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
    """One partition's staged output as plain aligned arrays.

    The in-memory twin of the ``{graph}_out`` staging table: rows keep
    the exact order the compute paths emitted them in (kind-0 vertex
    update, that vertex's kind-1 messages, ... under the scalar path;
    whole-block order under the batch path), which is what makes the
    shard plane's message routing reproduce the SQL plane's delivery
    order bit-for-bit.
    """

    kind: np.ndarray  # int64: 0 vertex update, 1 message, 2 aggregate
    vid: np.ndarray  # int64: owner (kind 0/2) or sender (kind 1)
    dst: np.ndarray  # int64: message destination (kind 1 only)
    f1: np.ndarray  # float64 payload (numeric scalar codecs, aggregates)
    f1_valid: np.ndarray
    s1: np.ndarray  # object payload (VARCHAR codecs, aggregator names)
    s1_valid: np.ndarray
    halted: np.ndarray  # bool halt votes (kind 0 only)
    pay: np.ndarray | None = None  # float64 (n, K) vector payload block
    pay_valid: np.ndarray | None = None  # bool (n,) whole-vector validity
    #: Per-vertex bool mask (partition positions) of who sent, set only
    #: when *all* kind-1 rows are one edge-aligned block — one row per
    #: out-edge of the masked vertices, in the partition's CSR edge order
    #: (``VertexBatch.send_to_all_neighbors`` / ``send_along_edges``).
    #: ``None`` for ``send()``, several blocks, or the scalar path.
    route_senders: np.ndarray | None = None

    @classmethod
    def empty(cls, pay_width: int = 0) -> "StagedRows":
        i64 = np.empty(0, dtype=np.int64)
        flags = np.empty(0, dtype=bool)
        return cls(
            i64, i64, i64,
            np.empty(0, dtype=np.float64), flags,
            np.empty(0, dtype=object), flags,
            flags,
            np.empty((0, pay_width), dtype=np.float64) if pay_width else None,
            flags if pay_width else None,
        )

    @property
    def num_rows(self) -> int:
        return len(self.kind)


class _Outputs:
    """Columnar accumulators for one worker invocation.

    Rows arrive either as whole numpy blocks (the batch compute path) or
    as per-row appends (the scalar path); :meth:`to_batch` assembles the
    final columns from array chunks without per-item type coercion.

    ``pay_width`` > 0 adds a dense float64 vector payload block ``(n,
    pay_width)`` per row chunk (the staging table's ``p0..p{K-1}``
    columns): kind-0 rows carry ``vertex_width`` leading columns, kind-1
    rows ``message_width``, and everything beyond a row's width is NULL
    filler nothing reads.
    """

    __slots__ = (
        "_blocks", "kind", "vid", "dst", "f1", "s1", "halted", "pay",
        "agg_partials", "pay_width", "vertex_width", "message_width",
        "route_senders",
    )

    def __init__(
        self, pay_width: int = 0, vertex_width: int = 0, message_width: int = 0
    ) -> None:
        #: finished array chunks: (kind, vid, (dst, dst_valid), ...)
        self._blocks: list[tuple] = []
        self.kind: list[int] = []
        self.vid: list[int] = []
        self.dst: list[int | None] = []
        self.f1: list[float | None] = []
        self.s1: list[str | None] = []
        self.halted: list[bool | None] = []
        self.pay: list[np.ndarray | None] = []
        self.agg_partials: list[tuple[str, float]] = []
        self.pay_width = pay_width
        self.vertex_width = vertex_width
        self.message_width = message_width
        #: see :attr:`StagedRows.route_senders` (set by the batch path)
        self.route_senders: np.ndarray | None = None

    # Scalar-path appends ----------------------------------------------
    def add_vertex_update(
        self,
        vid: int,
        f1: float | None,
        s1: str | None,
        halted: bool,
        pay: np.ndarray | None = None,
    ) -> None:
        self.kind.append(0)
        self.vid.append(vid)
        self.dst.append(None)
        self.f1.append(f1)
        self.s1.append(s1)
        self.halted.append(halted)
        if self.pay_width:
            self.pay.append(pay)

    def add_message(
        self,
        sender: int,
        dst: int,
        f1: float | None,
        s1: str | None,
        pay: np.ndarray | None = None,
    ) -> None:
        self.kind.append(1)
        self.vid.append(sender)
        self.dst.append(dst)
        self.f1.append(f1)
        self.s1.append(s1)
        self.halted.append(None)
        if self.pay_width:
            self.pay.append(pay)

    def add_aggregate(self, name: str, value: float) -> None:
        """One pre-reduced aggregator partial for this partition (kind 2)."""
        self.kind.append(2)
        self.vid.append(0)
        self.dst.append(None)
        self.f1.append(value)
        self.s1.append(name)
        self.halted.append(None)
        if self.pay_width:
            self.pay.append(None)

    # Batch-path blocks ------------------------------------------------
    def add_vertex_block(
        self,
        vids: np.ndarray,
        f1: np.ndarray | None,
        f1_valid: np.ndarray | None,
        s1: np.ndarray | None,
        s1_valid: np.ndarray | None,
        halted: np.ndarray,
        pay: np.ndarray | None = None,
        pay_valid: np.ndarray | None = None,
    ) -> None:
        """A block of kind-0 rows from arrays (no per-item work)."""
        n = len(vids)
        if n == 0:
            return
        self._flush_scalar_rows()
        self._blocks.append(
            (
                np.zeros(n, dtype=np.int64),
                np.asarray(vids, dtype=np.int64),
                (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)),
                _payload_pair(n, f1, f1_valid, np.float64, 0.0),
                _payload_pair(n, s1, s1_valid, object, None),
                (np.asarray(halted, dtype=bool), np.ones(n, dtype=bool)),
                *self._pay_chunk(n, pay, pay_valid, self.vertex_width),
            )
        )

    def add_message_block(
        self,
        senders: np.ndarray,
        targets: np.ndarray,
        f1: np.ndarray | None,
        f1_valid: np.ndarray | None,
        s1: np.ndarray | None,
        s1_valid: np.ndarray | None,
        pay: np.ndarray | None = None,
        pay_valid: np.ndarray | None = None,
    ) -> None:
        """A block of kind-1 rows from arrays (no per-item work)."""
        n = len(senders)
        if n == 0:
            return
        self._flush_scalar_rows()
        self._blocks.append(
            (
                np.ones(n, dtype=np.int64),
                np.asarray(senders, dtype=np.int64),
                (np.asarray(targets, dtype=np.int64), np.ones(n, dtype=bool)),
                _payload_pair(n, f1, f1_valid, np.float64, 0.0),
                _payload_pair(n, s1, s1_valid, object, None),
                (np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)),
                *self._pay_chunk(n, pay, pay_valid, self.message_width),
            )
        )

    def _pay_chunk(
        self,
        n: int,
        pay: np.ndarray | None,
        pay_valid: np.ndarray | None,
        width: int,
    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The vector payload element of one block: an ``(n, pay_width)``
        float64 chunk (zero-filled past ``width``) plus its per-row
        validity.  Empty tuple when the run has no vector payloads."""
        if not self.pay_width:
            return ()
        out = np.zeros((n, self.pay_width), dtype=np.float64)
        if pay is None or width == 0:
            return ((out, np.zeros(n, dtype=bool)),)
        out[:, :width] = np.asarray(pay, dtype=np.float64).reshape(n, width)
        valid = (
            np.ones(n, dtype=bool)
            if pay_valid is None
            else np.asarray(pay_valid, dtype=bool)
        )
        return ((out, valid),)

    # Assembly ---------------------------------------------------------
    def _flush_scalar_rows(self) -> None:
        """Convert buffered per-row appends into one array block.

        Values appended by the scalar path are already exact storage types
        (int vids, float payloads, str s1), so arrays are built with plain
        ``np.fromiter`` — no ``coerce_python_value`` per item.
        """
        n = len(self.kind)
        if n == 0:
            return
        block = [
            np.fromiter(self.kind, dtype=np.int64, count=n),
            np.fromiter(self.vid, dtype=np.int64, count=n),
            _nullable_array(self.dst, np.int64, 0),
            _nullable_array(self.f1, np.float64, 0.0),
            _nullable_array(self.s1, object, None),
            _nullable_array(self.halted, bool, False),
        ]
        if self.pay_width:
            pay = np.zeros((n, self.pay_width), dtype=np.float64)
            valid = np.zeros(n, dtype=bool)
            for i, item in enumerate(self.pay):
                if item is not None:
                    pay[i, : len(item)] = item
                    valid[i] = True
            block.append((pay, valid))
            self.pay = []
        self._blocks.append(tuple(block))
        self.kind, self.vid, self.dst = [], [], []
        self.f1, self.s1, self.halted = [], [], []

    def to_staged(self) -> StagedRows:
        """Assemble the accumulated rows as plain arrays (the shard
        plane's path — no :class:`~repro.engine.column.Column` wrapping,
        no SQL staging table)."""
        self._flush_scalar_rows()
        blocks = self._blocks
        if not blocks:
            return StagedRows.empty(self.pay_width)

        def plain(position: int) -> np.ndarray:
            parts = [block[position] for block in blocks]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        def pair(position: int) -> tuple[np.ndarray, np.ndarray]:
            values = [block[position][0] for block in blocks]
            valid = [block[position][1] for block in blocks]
            if len(values) == 1:
                return values[0], valid[0]
            return np.concatenate(values), np.concatenate(valid)

        dst, _ = pair(2)
        f1, f1_valid = pair(3)
        s1, s1_valid = pair(4)
        halted, _ = pair(5)
        pay, pay_valid = pair(6) if self.pay_width else (None, None)
        if s1.dtype != object:  # all-empty concat can collapse the dtype
            s1 = s1.astype(object)
        return StagedRows(
            plain(0), plain(1),
            np.asarray(dst, dtype=np.int64),
            np.asarray(f1, dtype=np.float64), f1_valid,
            s1, s1_valid,
            np.asarray(halted, dtype=bool),
            pay, pay_valid,
            self.route_senders,
        )

    def to_batch(self, schema: Schema) -> RecordBatch:
        self._flush_scalar_rows()
        blocks = self._blocks
        if not blocks:
            return RecordBatch.empty(schema)
        columns = []
        kind = None
        pay = pay_valid = None
        for position, coldef in enumerate(schema):
            if position >= 6:  # p0..p{K-1}: split the 2-D payload chunk
                if pay is None:
                    pay_parts = [block[6] for block in blocks]
                    pay = np.concatenate([p[0] for p in pay_parts])
                    pay_valid = np.concatenate([p[1] for p in pay_parts])
                    # A column is NULL past its row's codec width (kind-0
                    # rows carry vertex_width columns, kind-1 message_width,
                    # aggregates none).
                    row_width = np.where(
                        kind == 0,
                        self.vertex_width,
                        np.where(kind == 1, self.message_width, 0),
                    )
                j = position - 6
                columns.append(
                    Column.from_numpy(
                        coldef.dtype,
                        np.ascontiguousarray(pay[:, j]),
                        pay_valid & (j < row_width),
                    )
                )
                continue
            parts = [block[position] for block in blocks]
            if position < 2:  # kind / vid: never NULL
                values = parts[0] if len(parts) == 1 else np.concatenate(parts)
                if position == 0:
                    kind = values
                columns.append(Column.from_numpy(coldef.dtype, values))
                continue
            if len(parts) == 1:
                values, valid = parts[0]
            else:
                values = np.concatenate([p[0] for p in parts])
                valid = np.concatenate([p[1] for p in parts])
            columns.append(Column.from_numpy(coldef.dtype, values, valid))
        return RecordBatch(schema, columns)


def _payload_pair(
    n: int,
    values: np.ndarray | None,
    valid: np.ndarray | None,
    dtype: Any,
    filler: Any,
) -> tuple[np.ndarray, np.ndarray]:
    """(values, valid) chunk for one staged payload column."""
    if values is None:
        if dtype is object:
            empty = np.empty(n, dtype=object)
            empty[:] = filler
        else:
            empty = np.full(n, filler, dtype=dtype)
        return empty, np.zeros(n, dtype=bool)
    if dtype is object:
        out = np.empty(n, dtype=object)
        out[:] = values
        values = out
    else:
        values = np.asarray(values, dtype=dtype)
    if valid is None:
        valid = np.ones(n, dtype=bool)
    return values, valid


def _nullable_array(items: list, dtype: Any, filler: Any) -> tuple[np.ndarray, np.ndarray]:
    """Array + validity mask from a Python list containing ``None``."""
    n = len(items)
    valid = np.fromiter((item is not None for item in items), dtype=bool, count=n)
    if dtype is object:
        values = np.empty(n, dtype=object)
        values[:] = items
        return values, valid
    values = np.fromiter(
        (filler if item is None else item for item in items), dtype=dtype, count=n
    )
    return values, valid


# ---------------------------------------------------------------------------
# The worker
# ---------------------------------------------------------------------------
class VertexWorker:
    """One superstep's worker UDF over a program.

    Thread-safe across partitions: per-partition state is local; shared
    counters are guarded by a lock (cheap — updated once per partition).

    Args:
        use_batch: run :meth:`BatchVertexProgram.compute_batch` instead of
            per-vertex ``compute``.  ``None`` (default) auto-detects from
            the program; the coordinator passes the configured strategy.
    """

    def __init__(
        self,
        program: VertexProgram,
        superstep: int,
        num_vertices: int,
        input_format: str = "union",
        aggregated: dict[str, float] | None = None,
        use_batch: bool | None = None,
        edge_cache: EdgeCache | None = None,
    ) -> None:
        if input_format not in ("union", "join"):
            raise ProgramError(f"unknown worker input format {input_format!r}")
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
        self.edge_cache = edge_cache
        self.aggregated = aggregated or {}
        self.payload_width = payload_width(program)
        self.schema = worker_output_schema(self.payload_width)
        self._lock = threading.Lock()
        #: vertices whose compute function ran this superstep
        self.vertices_ran = 0
        #: messages addressed to ids with no vertex row (dropped)
        self.messages_dropped = 0
        #: input rows seen across all partitions (throughput metrics)
        self.rows_in = 0

    # ------------------------------------------------------------------
    def __call__(self, partition: RecordBatch, partition_index: int) -> RecordBatch:
        """Process one sorted partition; returns staged output rows."""
        if self.input_format == "union":
            part = self._decode_union(partition, partition_index)
        else:
            part = self._decode_join(partition)
        out, _ = self.compute_decoded(part)
        with self._lock:
            self.rows_in += partition.num_rows
        return out.to_batch(self.schema)

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
        out = _Outputs(
            self.payload_width,
            self.program.vertex_codec.width,
            self.program.message_codec.width,
        )
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
        kind-2 row per aggregator (the SQL GROUP BY finishes the job)."""
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
        for name, values in grouped.items():
            op = self.program.aggregators[name]
            out.add_aggregate(name, self.program.reduce_aggregate(op, values))

    # ------------------------------------------------------------------
    # Union format decode
    # ------------------------------------------------------------------
    def _decode_union(self, batch: RecordBatch, partition_index: int) -> _DecodedPartition:
        vid = np.asarray(batch.column("vid").values, dtype=np.int64)
        kind = batch.column("kind").values
        i1 = batch.column("i1").values
        f1 = batch.column("f1")
        s1 = batch.column("s1")
        v_codec = self.program.vertex_codec
        m_codec = self.program.message_codec
        pay_cols = (
            [batch.column(f"p{j}") for j in range(self.payload_width)]
            if self.payload_width
            else []
        )

        def gather_payload(width: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Stack ``width`` staging payload columns into an ``(n, k)``
            storage block (whole-vector validity from the first column)."""
            values = np.column_stack(
                [np.asarray(c.values[rows], dtype=np.float64) for c in pay_cols[:width]]
            ) if len(rows) else np.empty((0, width), dtype=np.float64)
            return values, pay_cols[0].valid[rows]

        v_idx = np.flatnonzero(kind == 0)
        vertex_ids = vid[v_idx]
        halted = i1[v_idx] == 1
        if v_codec.is_vector:
            raw_values, value_valid = gather_payload(v_codec.width, v_idx)
        else:
            value_col = s1 if v_codec.sql_type is VARCHAR else f1
            raw_values = value_col.values[v_idx]
            value_valid = value_col.valid[v_idx]

        cache = self.edge_cache
        if cache is not None and cache.primed:
            # Edge rows were omitted from the input SQL; reuse the arrays
            # decoded at superstep 0.
            edge_indptr, edge_targets, edge_weights = cache.lookup(
                partition_index, vertex_ids
            )
        else:
            e_idx = np.flatnonzero(kind == 1)
            edge_indptr, (edge_targets, edge_weights), _ = _csr_align(
                vid[e_idx],
                vertex_ids,
                (
                    i1[e_idx].astype(np.int64, copy=False),
                    np.asarray(f1.values[e_idx], dtype=np.float64),
                ),
            )
            if cache is not None:
                cache.store(
                    partition_index, vertex_ids, edge_indptr, edge_targets, edge_weights
                )

        m_idx = np.flatnonzero(kind == 2)
        if m_codec.is_vector:
            msg_values, msg_value_valid = gather_payload(m_codec.width, m_idx)
        else:
            message_col = s1 if m_codec.sql_type is VARCHAR else f1
            msg_values = message_col.values[m_idx]
            msg_value_valid = message_col.valid[m_idx]
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
        vvalue = batch.column("vvalue")
        edst = batch.column("edst")
        eweight = batch.column("eweight")
        msrc = batch.column("msrc")
        mvalue = batch.column("mvalue")

        group_first = np.empty(n, dtype=bool)
        if n:
            group_first[0] = True
            group_first[1:] = vid[1:] != vid[:-1]
        first_idx = np.flatnonzero(group_first)
        vertex_ids = vid[first_idx]
        halted = halted_col[first_idx] == 1
        raw_values = vvalue.values[first_idx]
        value_valid = vvalue.valid[first_idx]

        # Rows are sorted by (vid, edst, msrc); within a group either every
        # row carries an edge or none does.  Distinct edst values give the
        # edge list; the first edge's block carries each message once.
        edst_vals = edst.values
        edst_valid = edst.valid
        changed = np.empty(n, dtype=bool)
        if n:
            changed[0] = True
            changed[1:] = edst_vals[1:] != edst_vals[:-1]
        e_rows = np.flatnonzero(edst_valid & (group_first | changed))
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
        msg_indptr, (msg_src, msg_raw, msg_valid), _ = _csr_align(
            vid[m_rows],
            vertex_ids,
            (
                msrc.values[m_rows].astype(np.int64, copy=False),
                mvalue.values[m_rows],
                mvalue.valid[m_rows],
            ),
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
        f1, f1v, s1, s1v, pay, payv = _encoded_payload(v_codec, values, valid)
        out.add_vertex_block(
            ctx.ids, f1, f1v, s1, s1v, ctx.collect_halt_votes(), pay, payv
        )
        blocks = ctx.collect_message_blocks()
        for senders, targets, payload, _ in blocks:
            pv = np.ones(len(payload), dtype=bool)
            f1, f1v, s1, s1v, pay, payv = _encoded_payload(m_codec, payload, pv)
            out.add_message_block(senders, targets, f1, f1v, s1, s1v, pay, payv)
        if len(blocks) == 1 and blocks[0][3] is not None:
            # The task's kind-1 rows are exactly one edge-aligned block:
            # name its senders by partition position (the batch only
            # holds the active vertices).
            out.route_senders = np.zeros(part.num_vertices, dtype=bool)
            out.route_senders[act] = blocks[0][3]
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
        ran = 0
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
            vote = vertex.collect_halt_vote()
            # A vertex that ran always records its (possibly re-set) halt
            # state; value is carried through unchanged when compute did
            # not touch it.
            encoded = v_codec.encode_or_none(new_value)
            f1, s1, pay = self._payload(encoded, v_codec)
            out.add_vertex_update(ids[i], f1, s1, vote, pay)
            for target, message in vertex.collect_outbox():
                mf1, ms1, mpay = self._payload(
                    m_codec.encode_or_none(message), m_codec
                )
                out.add_message(ids[i], target, mf1, ms1, mpay)
            out.agg_partials.extend(vertex.collect_aggregates())
            ran += 1
        return ran

    @staticmethod
    def _payload(
        encoded: Any, codec: Any
    ) -> tuple[float | None, str | None, np.ndarray | None]:
        if encoded is None:
            return None, None, None
        if codec.is_vector:
            return None, None, encoded
        if codec.sql_type is VARCHAR:
            return None, encoded, None
        return float(encoded), None, None


def _encoded_payload(
    codec: ValueCodec, values: np.ndarray, valid: np.ndarray
) -> tuple[
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
]:
    """Encode a decoded array into staging payload columns ``(f1,
    f1_valid, s1, s1_valid, pay, pay_valid)`` — numeric scalar codecs
    land in ``f1``, VARCHAR codecs in ``s1``, vector codecs in the 2-D
    ``pay`` block."""
    encoded = codec.encode_array(values, valid)
    if codec.is_vector:
        return None, None, None, None, np.asarray(encoded, dtype=np.float64), valid
    if codec.sql_type is VARCHAR:
        return None, None, encoded, valid, None, None
    return np.asarray(encoded, dtype=np.float64), valid, None, None, None, None
