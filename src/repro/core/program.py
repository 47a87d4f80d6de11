"""Vertex program base classes and combiner declarations.

A :class:`VertexProgram` is the user-supplied "vertex compute function"
from the paper.  Subclasses implement :meth:`compute`; the same program
object runs unchanged on Vertexica *and* on the Giraph-like baseline,
which is what makes the Figure 2 comparison apples-to-apples.

:class:`BatchVertexProgram` is the opt-in vectorized variant: programs
that can express one superstep as whole-array operations implement
:meth:`~BatchVertexProgram.compute_batch` against a :class:`VertexBatch`
(dense numpy views over every active vertex in a partition) and the
worker skips per-vertex Python entirely.  ``compute`` must still be
implemented — it is the semantic reference, the fallback under
``compute_strategy="scalar"``, and what the Giraph baseline runs.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.api import Vertex
from repro.core.codecs import FLOAT_CODEC, ValueCodec
from repro.errors import ProgramError

__all__ = [
    "VertexProgram",
    "BatchVertexProgram",
    "VertexBatch",
    "supports_batch",
    "Combiner",
    "COMBINERS",
]

#: SQL-pushable combiner names; ``None`` disables combining.
COMBINERS = ("SUM", "MIN", "MAX")

Combiner = str


class VertexProgram:
    """Base class for message-passing vertex programs.

    Class attributes (override per program):
        vertex_codec: codec for the vertex value column.
        message_codec: codec for the message value column.
        combiner: ``"SUM"``, ``"MIN"``, ``"MAX"``, or ``None``.  Combiners
            are associative/commutative reductions over messages to the
            same destination; Vertexica pushes them into a SQL GROUP BY
            between supersteps, the Giraph baseline applies them at the
            sending worker — both mirror the real systems.
        aggregators: Pregel-style global aggregators: ``{name: op}`` with
            op in SUM/MIN/MAX.  Vertices contribute via
            ``vertex.aggregate(name, value)``; the reduced value is global
            state available to every vertex the next superstep via
            ``vertex.aggregated(name)``.  In Vertexica, partials flow
            through the worker-output staging table and are reduced by a
            SQL GROUP BY — global state through the relational engine.
        max_supersteps: hard cap on supersteps (``None`` = run to
            quiescence: every vertex halted and no messages in flight).
    """

    vertex_codec: ValueCodec = FLOAT_CODEC
    message_codec: ValueCodec = FLOAT_CODEC
    combiner: Combiner | None = None
    aggregators: dict[str, str] = {}
    max_supersteps: int | None = None

    # ------------------------------------------------------------------
    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> Any:
        """Value a vertex starts with before superstep 0.

        Default: ``None`` (NULL in the vertex table).
        """
        return None

    def compute(self, vertex: Vertex) -> None:
        """The vertex compute function, run once per superstep for every
        active vertex.  Must be implemented by subclasses."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """JSON-serializable run state beyond the vertex/message tables,
        persisted in the run-checkpoint manifest (see
        :mod:`repro.core.recovery`).

        Constructor parameters are already covered by the checkpoint's
        program fingerprint; override this only for state that *mutates
        during a run* — e.g. an RNG consumed across supersteps — and
        rewind it in :meth:`restore_state`.  Default: nothing.
        """
        return {}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Rewind :meth:`checkpoint_state` output when a run resumes or
        rolls back to a checkpoint.  Default: nothing."""

    # ------------------------------------------------------------------
    def combine(self, values: Sequence[Any]) -> Any:
        """Reduce messages headed to one destination per ``combiner``.

        Scalar message codecs reduce with plain Python ``sum``/``min``/
        ``max`` (the arithmetic the scalar compute path uses).  Vector
        message codecs reduce *element-wise* with the same float64
        ``reduceat`` call the data planes' combiners run, so a baseline
        that combines through this method stays bit-compatible with them.

        Raises:
            ProgramError: when called with no combiner declared.
        """
        if self.combiner not in COMBINERS:
            raise ProgramError(
                f"program {type(self).__name__} declares no combiner"
            )
        if self.message_codec.is_vector:
            block = np.asarray(list(values), dtype=np.float64)
            ufunc = {"SUM": np.add, "MIN": np.minimum, "MAX": np.maximum}[
                self.combiner
            ]
            return ufunc.reduceat(block, [0], axis=0)[0].tolist()
        if self.combiner == "SUM":
            return sum(values)
        if self.combiner == "MIN":
            return min(values)
        return max(values)

    def validate(self) -> None:
        """Sanity-check declarations before a run.

        Raises:
            ProgramError: on an unknown combiner or aggregator op, or
                ``max_supersteps < 1``.
        """
        if self.combiner is not None and self.combiner not in COMBINERS:
            raise ProgramError(
                f"unknown combiner {self.combiner!r}; expected one of {COMBINERS}"
            )
        for name, op in self.aggregators.items():
            if op not in COMBINERS:
                raise ProgramError(
                    f"aggregator {name!r} has unknown op {op!r}; "
                    f"expected one of {COMBINERS}"
                )
        if self.max_supersteps is not None and self.max_supersteps < 1:
            raise ProgramError("max_supersteps must be >= 1")

    @staticmethod
    def reduce_aggregate(op: str, values: Sequence[float]) -> float:
        """Reduce aggregator partials with the declared op."""
        if op == "SUM":
            return float(sum(values))
        if op == "MIN":
            return float(min(values))
        return float(max(values))

    @property
    def name(self) -> str:
        """Human-readable program name for logs and metrics."""
        return type(self).__name__


class VertexBatch:
    """Dense view of one partition's *active* vertices for batch compute.

    All input arrays are aligned: position ``i`` everywhere refers to the
    same vertex.  Out-edges and incoming messages are CSR-style — vertex
    ``i`` owns ``edge_targets[edge_indptr[i]:edge_indptr[i+1]]`` and
    ``message_values[msg_indptr[i]:msg_indptr[i+1]]`` (with
    ``message_senders`` aligned to the same extents — the message table's
    ``src`` column).  Vector codecs make ``values`` / ``message_values``
    dense 2-D ``(n, k)`` float64 arrays; the built-in segment reductions
    (:meth:`sum_messages` & co) handle both shapes — 2-D message blocks
    reduce element-wise per column with the same float64 ``reduceat``
    arithmetic the data planes' combiners use, so combined and uncombined
    runs of an element-wise-reducible program stay bit-identical.  The
    standalone :func:`repro.core.worker.segment_sum` family exposes the
    same kernels over arbitrary (values, indptr) pairs.

    Mutations are buffered exactly like on :class:`~repro.core.api.Vertex`:
    the worker collects them after :meth:`BatchVertexProgram.compute_batch`
    returns, preserving the synchronous superstep barrier.  One semantic
    caveat versus the scalar path: messages are staged one *send call* at
    a time (all vertices' messages from the first call, then the second,
    ...), so a destination receiving several messages from the same sender
    may observe them in a different relative order than under the scalar
    path.  Programs whose message handling is order-sensitive should not
    implement the batch path.
    """

    __slots__ = (
        "ids",
        "was_halted",
        "superstep",
        "num_vertices",
        "edge_indptr",
        "edge_targets",
        "edge_weights",
        "msg_indptr",
        "message_values",
        "message_valid",
        "message_senders",
        "values_valid",
        "_values",
        "_aggregated",
        "_out_degrees",
        "_msg_counts",
        "_halt",
        "_msg_blocks",
        "_agg_blocks",
    )

    def __init__(
        self,
        ids: np.ndarray,
        values: np.ndarray,
        values_valid: np.ndarray,
        was_halted: np.ndarray,
        edge_indptr: np.ndarray,
        edge_targets: np.ndarray,
        edge_weights: np.ndarray,
        msg_indptr: np.ndarray,
        message_values: np.ndarray,
        message_valid: np.ndarray,
        superstep: int,
        num_vertices: int,
        aggregated: dict[str, float] | None = None,
        message_senders: np.ndarray | None = None,
    ) -> None:
        self.ids = ids
        self._values = values
        self.values_valid = values_valid
        self.was_halted = was_halted
        self.edge_indptr = edge_indptr
        self.edge_targets = edge_targets
        self.edge_weights = edge_weights
        self.msg_indptr = msg_indptr
        self.message_values = message_values
        self.message_valid = message_valid
        self.message_senders = (
            message_senders
            if message_senders is not None
            else np.empty(0, dtype=np.int64)
        )
        self.superstep = superstep
        self.num_vertices = num_vertices
        self._aggregated = aggregated or {}
        self._out_degrees: np.ndarray | None = None
        self._msg_counts: np.ndarray | None = None
        self._halt = np.zeros(len(ids), dtype=bool)
        self._msg_blocks: list[
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]
        ] = []
        self._agg_blocks: list[tuple[str, np.ndarray]] = []

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of active vertices in this batch."""
        return len(self.ids)

    @property
    def values(self) -> np.ndarray:
        """Current vertex values (reflects :meth:`set_values`)."""
        return self._values

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex (``np.diff`` of the edge extents)."""
        if self._out_degrees is None:
            self._out_degrees = np.diff(self.edge_indptr)
        return self._out_degrees

    @property
    def message_counts(self) -> np.ndarray:
        """Incoming-message count per vertex."""
        if self._msg_counts is None:
            self._msg_counts = np.diff(self.msg_indptr)
        return self._msg_counts

    def aggregated(self, name: str, default: float | None = None) -> float | None:
        """The previous superstep's reduced value of a global aggregator."""
        return self._aggregated.get(name, default)

    # ------------------------------------------------------------------
    # Segment reductions over incoming messages
    # ------------------------------------------------------------------
    def sum_messages(self) -> np.ndarray:
        """Per-vertex sum of incoming messages (0.0 where none).

        Scalar messages accumulate strictly in delivery order
        (``np.bincount``), so the result is bit-identical to the scalar
        path's ``sum(messages)``.  Vector (2-D) messages reduce with
        ``np.add.reduceat`` over float64 — the exact arithmetic of the
        data planes' SUM combiner, so combined and uncombined runs agree
        bitwise.  NULL messages are excluded (a scalar ``sum`` over
        ``None`` would raise; programs needing NULL semantics must
        inspect ``message_valid`` themselves).
        """
        values = self.message_values
        if values.ndim == 2:
            weights = values.astype(np.float64, copy=False)
            if not bool(self.message_valid.all()):
                weights = np.where(self.message_valid[:, None], weights, 0.0)
            out = np.zeros((self.size, values.shape[1]), dtype=np.float64)
            nonempty = np.flatnonzero(self.message_counts)
            if len(nonempty):
                out[nonempty] = np.add.reduceat(
                    weights, self.msg_indptr[:-1][nonempty], axis=0
                )
            return out
        counts = self.message_counts
        if len(values) == 0:
            return np.zeros(self.size, dtype=np.float64)
        segments = np.repeat(np.arange(self.size), counts)
        weights = values.astype(np.float64, copy=False)
        if not bool(self.message_valid.all()):
            weights = np.where(self.message_valid, weights, 0.0)
        return np.bincount(segments, weights=weights, minlength=self.size)

    def min_messages(self, default: Any = None) -> np.ndarray:
        """Per-vertex (element-wise for vectors) minimum of incoming
        messages (``default`` where none; NULL messages are excluded)."""
        return self._segment_reduce(np.minimum, default, _dtype_max)

    def max_messages(self, default: Any = None) -> np.ndarray:
        """Per-vertex (element-wise for vectors) maximum of incoming
        messages (``default`` where none; NULL messages are excluded)."""
        return self._segment_reduce(np.maximum, default, _dtype_min)

    def _segment_reduce(self, ufunc: np.ufunc, default: Any, fallback: Any) -> np.ndarray:
        values = self.message_values
        if default is None:
            default = fallback(values.dtype)
        two_d = values.ndim == 2
        if not bool(self.message_valid.all()):
            # NULL storage fillers must not win the reduction: replace
            # them with the reduction's identity (the default fill).
            mask = self.message_valid[:, None] if two_d else self.message_valid
            values = np.where(mask, values, default)
        shape = (self.size, values.shape[1]) if two_d else self.size
        out = np.full(shape, default, dtype=values.dtype)
        nonempty = np.flatnonzero(self.message_counts)
        if len(nonempty):
            # The message array is compact, so the start of each nonempty
            # segment doubles as the stop of the previous one — exactly the
            # index vector ``reduceat`` wants.
            out[nonempty] = ufunc.reduceat(
                values, self.msg_indptr[:-1][nonempty], axis=0
            )
        return out

    # ------------------------------------------------------------------
    # Writes (buffered)
    # ------------------------------------------------------------------
    def set_values(self, values: np.ndarray | Sequence[Any], mask: np.ndarray | None = None) -> None:
        """Set vertex values (full-length array; ``mask`` limits which
        positions change), visible from the next superstep on."""
        arr = np.asarray(values)
        if mask is None:
            self._values = arr
            self.values_valid = np.ones(self.size, dtype=bool)
        else:
            updated = self._values.copy()
            updated[mask] = arr[mask]
            self._values = updated
            self.values_valid = self.values_valid | mask

    def vote_to_halt(self, mask: np.ndarray | None = None) -> None:
        """Vote to halt every vertex (or the masked subset)."""
        if mask is None:
            self._halt[:] = True
        else:
            self._halt |= mask

    def send_to_all_neighbors(
        self, per_vertex: np.ndarray | Sequence[Any], mask: np.ndarray | None = None
    ) -> None:
        """Queue ``per_vertex[i]`` along every out-edge of vertex ``i``
        (``mask`` selects which vertices send)."""
        degrees = self.out_degrees
        values = np.asarray(per_vertex)
        self._check_length("send_to_all_neighbors", "per_vertex", values, self.size, "vertices")
        sending = self._sender_mask("send_to_all_neighbors", mask)
        if mask is None:
            payload = np.repeat(values, degrees, axis=0)
            targets = self.edge_targets
            senders = np.repeat(self.ids, degrees)
        else:
            counts = np.where(sending, degrees, 0)
            payload = np.repeat(values, counts, axis=0)
            edge_mask = np.repeat(sending, degrees)
            targets = self.edge_targets[edge_mask]
            senders = np.repeat(self.ids, counts)
        if len(targets):
            self._msg_blocks.append((senders, targets, payload, sending))

    def send_along_edges(
        self, per_edge: np.ndarray | Sequence[Any], mask: np.ndarray | None = None
    ) -> None:
        """Queue one message per out-edge with edge-aligned payloads
        (``mask`` is per-vertex and selects whose edges send)."""
        values = np.asarray(per_edge)
        self._check_length(
            "send_along_edges", "per_edge", values, len(self.edge_targets), "edges"
        )
        sending = self._sender_mask("send_along_edges", mask)
        if mask is None:
            targets = self.edge_targets
            senders = np.repeat(self.ids, self.out_degrees)
        else:
            edge_mask = np.repeat(sending, self.out_degrees)
            values = values[edge_mask]
            targets = self.edge_targets[edge_mask]
            senders = np.repeat(self.ids, np.where(sending, self.out_degrees, 0))
        if len(targets):
            self._msg_blocks.append((senders, targets, values, sending))

    def _check_length(
        self, method: str, arg: str, array: np.ndarray, expected: int, unit: str
    ) -> None:
        given = len(array) if array.ndim else 1
        if given != expected:
            raise ProgramError(
                f"{method}() needs {arg} of length {expected} (the batch's "
                f"{unit}), got length {given}"
            )

    def _sender_mask(self, method: str, mask: np.ndarray | None) -> np.ndarray:
        """The per-vertex bool mask of an edge-aligned send (all vertices
        when ``mask`` is ``None``) — the block's *edge-aligned tag*: the
        block holds exactly one row per out-edge of the selected
        vertices, in CSR order, which is what lets the shard plane route
        it through the delivery plan instead of sorting it."""
        if mask is None:
            return np.ones(self.size, dtype=bool)
        sending = np.asarray(mask, dtype=bool)
        self._check_length(method, "mask", sending, self.size, "vertices")
        return sending

    def send(
        self,
        senders: np.ndarray | Sequence[int],
        targets: np.ndarray | Sequence[int],
        values: np.ndarray | Sequence[Any],
    ) -> None:
        """Queue arbitrary messages (parallel sender/target/value arrays)."""
        senders = np.asarray(senders, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        values = np.asarray(values)
        if not (len(senders) == len(targets) == len(values)):
            raise ProgramError("send() requires equally long sender/target/value arrays")
        if len(targets):
            self._msg_blocks.append((senders, targets, values, None))

    def aggregate(
        self, name: str, values: np.ndarray | Sequence[float], mask: np.ndarray | None = None
    ) -> None:
        """Contribute per-vertex values to a global aggregator."""
        arr = np.asarray(values, dtype=np.float64)
        if mask is not None:
            arr = arr[mask]
        if len(arr):
            self._agg_blocks.append((name, arr))

    # ------------------------------------------------------------------
    # Worker-side collection
    # ------------------------------------------------------------------
    def collect_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, valid) to stage — carry-through when never set."""
        return self._values, self.values_valid

    def collect_halt_votes(self) -> np.ndarray:
        """Per-vertex halt votes."""
        return self._halt

    def collect_message_blocks(
        self,
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
        """Staged ``(senders, targets, values, sending)`` blocks in send
        order.  ``sending`` is the per-vertex sender mask of an
        edge-aligned block (:meth:`send_to_all_neighbors` /
        :meth:`send_along_edges`) and ``None`` for :meth:`send`."""
        return self._msg_blocks

    def collect_aggregates(self) -> list[tuple[str, np.ndarray]]:
        """Aggregator contributions as (name, values) blocks."""
        return self._agg_blocks


def _dtype_max(dtype: np.dtype) -> Any:
    if np.issubdtype(dtype, np.floating):
        return np.inf
    return np.iinfo(dtype).max


def _dtype_min(dtype: np.dtype) -> Any:
    if np.issubdtype(dtype, np.floating):
        return -np.inf
    return np.iinfo(dtype).min


class BatchVertexProgram(VertexProgram):
    """A vertex program that can run one superstep as array operations.

    Subclasses implement *both* :meth:`VertexProgram.compute` (the scalar
    reference, also used by the Giraph baseline and the
    ``compute_strategy="scalar"`` ablation) and :meth:`compute_batch`.
    The two must be semantically identical; the parity test suite holds
    every bundled program to bit-identical results.
    """

    def compute_batch(self, batch: VertexBatch) -> None:
        """Vectorized superstep over every active vertex in ``batch``.
        Must be implemented by subclasses."""
        raise NotImplementedError


def supports_batch(program: VertexProgram) -> bool:
    """True when ``program`` opts into the vectorized compute path."""
    return isinstance(program, BatchVertexProgram)
