"""The Giraph-like BSP engine.

Architecture (mirroring Apache Giraph's compute model):

* the vertex set is hash partitioned over ``n_workers`` workers;
* each superstep, every worker runs the compute function over its active
  vertices and buffers outgoing messages per destination worker;
* combiners (when the program declares one) run at the *sender* worker,
  as Giraph's ``MessageCombiner`` does;
* at the barrier, each (sender, receiver) buffer crosses the simulated
  network: it is serialized with :mod:`pickle` and deserialized on the
  other side (real CPU cost, byte counts recorded);
* each superstep is charged one coordination latency,
  :data:`BARRIER_LATENCY_S`, for the ZooKeeper barrier + RPC round of a
  real deployment.  It is a chosen constant, counted rather than slept:
  ``stats.total_seconds`` is the work done and
  :attr:`GiraphResult.charged_s` the simulated barrier time.

Execution within a superstep is deterministic: workers are processed in
index order and vertices in id order, so results are bit-identical to
Vertexica's for the same program.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.api import OutEdge, Vertex
from repro.core.metrics import RunStats, SuperstepStats
from repro.core.program import VertexProgram
from repro.errors import BaselineError

__all__ = ["BARRIER_LATENCY_S", "GiraphConfig", "GiraphEngine", "GiraphResult"]

#: Safety cap when the program declares no superstep bound.
SUPERSTEP_SAFETY_LIMIT = 10_000

#: Simulated seconds charged per superstep barrier.
BARRIER_LATENCY_S = 0.1


@dataclass(frozen=True)
class GiraphConfig:
    """Runtime knobs of the BSP engine.

    Attributes:
        n_workers: number of simulated workers (hash partitions).
    """

    n_workers: int = 4

    def validated(self) -> "GiraphConfig":
        """Self, after invariant checks."""
        if self.n_workers < 1:
            raise BaselineError("n_workers must be >= 1")
        return self


@dataclass
class GiraphResult:
    """Output of one Giraph-baseline run."""

    values: dict[int, Any]
    stats: RunStats
    bytes_shuffled: int = 0

    @property
    def charged_s(self) -> float:
        """Simulated barrier seconds: supersteps run x :data:`BARRIER_LATENCY_S`."""
        return self.stats.n_supersteps * BARRIER_LATENCY_S


class GiraphEngine:
    """An in-memory vertex-centric runtime over one graph.

    The graph is stored as CSR adjacency (numpy offsets + targets), the
    closest analogue of Giraph's in-memory partition stores.
    """

    def __init__(
        self,
        num_vertices: int,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        config: GiraphConfig | None = None,
    ) -> None:
        self.config = (config or GiraphConfig()).validated()
        self.num_vertices = int(num_vertices)
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        if src_arr.shape != dst_arr.shape:
            raise BaselineError("src and dst arrays differ in length")
        if len(src_arr) and (src_arr.max(initial=0) >= num_vertices or dst_arr.max(initial=0) >= num_vertices):
            raise BaselineError("edge endpoint exceeds num_vertices")
        if weights is None:
            weight_arr = np.ones(len(src_arr), dtype=np.float64)
        else:
            weight_arr = np.asarray(weights, dtype=np.float64)
        order = np.argsort(src_arr, kind="stable")
        self._targets = dst_arr[order]
        self._weights = weight_arr[order]
        counts = np.bincount(src_arr, minlength=num_vertices)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))

    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        """Not supported — documenting the paper's §3.3 contrast in code:
        "graph processing systems, such as Giraph, have no clear method of
        updating the graphs it analyzes."  Reload the engine with a new
        edge list instead (or use Vertexica, where mutation is SQL DML).

        Raises:
            BaselineError: always.
        """
        raise BaselineError(
            "the Giraph baseline cannot mutate a loaded graph (per the "
            "paper's §3.3); rebuild the engine or use Vertexica's "
            "GraphMutator"
        )

    def remove_edge(self, src: int, dst: int) -> None:
        """Not supported; see :meth:`add_edge`.

        Raises:
            BaselineError: always.
        """
        raise BaselineError(
            "the Giraph baseline cannot mutate a loaded graph (per the "
            "paper's §3.3); rebuild the engine or use Vertexica's "
            "GraphMutator"
        )

    def out_edges(self, vertex_id: int) -> list[OutEdge]:
        """Materialize the out-edge list of one vertex."""
        start, stop = self._offsets[vertex_id], self._offsets[vertex_id + 1]
        return [
            OutEdge(int(t), float(w))
            for t, w in zip(self._targets[start:stop], self._weights[start:stop])
        ]

    def _worker_of(self, vertex_id: int) -> int:
        return vertex_id % self.config.n_workers

    # ------------------------------------------------------------------
    def run(self, program: VertexProgram, graph_name: str = "graph") -> GiraphResult:
        """Execute a vertex program to quiescence (or its superstep cap)."""
        program.validate()
        n = self.num_vertices
        n_workers = self.config.n_workers
        stats = RunStats(program=program.name, graph=graph_name)
        started = time.perf_counter()

        degrees = np.diff(self._offsets)
        values: list[Any] = [
            program.initial_value(v, int(degrees[v]), n) for v in range(n)
        ]
        halted = np.zeros(n, dtype=bool)
        #: per-vertex inbox of (sender, value) pairs — the sender travels
        #: beside the payload, like Vertexica's message-table src column.
        inboxes: list[list[tuple[int, Any]]] = [[] for _ in range(n)]
        worker_vertices = [
            [v for v in range(n) if self._worker_of(v) == w] for w in range(n_workers)
        ]

        limit = program.max_supersteps
        hard_cap = limit if limit is not None else SUPERSTEP_SAFETY_LIMIT
        bytes_shuffled = 0
        aggregated: dict[str, float] = {}
        superstep = 0
        while True:
            has_messages = any(inboxes[v] for v in range(n))
            if superstep > 0 and not has_messages and halted.all():
                break
            if limit is not None and superstep >= limit:
                break
            if superstep >= hard_cap:
                raise BaselineError(
                    f"superstep safety limit ({hard_cap}) exceeded by {program.name}"
                )
            step_started = time.perf_counter()
            messages_in = sum(len(inboxes[v]) for v in range(n))

            # Outgoing buffers: [sender_worker][receiver_worker] ->
            # [(dst, sender, value)]
            buffers: list[list[list[tuple[int, int, Any]]]] = [
                [[] for _ in range(n_workers)] for _ in range(n_workers)
            ]
            ran = 0
            agg_partials: dict[str, list[float]] = {}
            for w in range(n_workers):
                out_buffers = buffers[w]
                for v in worker_vertices[w]:
                    messages = inboxes[v]
                    if superstep > 0 and not messages and halted[v]:
                        continue
                    vertex = Vertex(
                        v, values[v], self.out_edges(v),
                        [value for _, value in messages],
                        superstep, n, bool(halted[v]),
                        aggregated=aggregated,
                        senders=[sender for sender, _ in messages],
                    )
                    program.compute(vertex)
                    ran += 1
                    _, values[v] = vertex.collect_value_update()
                    halted[v] = vertex.collect_halt_vote()
                    for dst, value in vertex.collect_outbox():
                        out_buffers[self._worker_of(dst)].append((dst, v, value))
                    for name, value in vertex.collect_aggregates():
                        if name not in program.aggregators:
                            raise BaselineError(
                                f"undeclared aggregator {name!r}"
                            )
                        agg_partials.setdefault(name, []).append(value)
                    inboxes[v] = []
            aggregated = {
                name: program.reduce_aggregate(program.aggregators[name], vals)
                for name, vals in agg_partials.items()
            }

            # Sender-side combining, then the shuffle.
            messages_out = 0
            messages_precombine = 0
            for w in range(n_workers):
                for r in range(n_workers):
                    buffer = buffers[w][r]
                    if not buffer:
                        continue
                    messages_precombine += len(buffer)
                    if program.combiner is not None:
                        buffer = _combine_buffer(program, buffer)
                    payload = pickle.dumps(buffer, protocol=pickle.HIGHEST_PROTOCOL)
                    bytes_shuffled += len(payload)
                    buffer = pickle.loads(payload)
                    messages_out += len(buffer)
                    for dst, sender, value in buffer:
                        inboxes[dst].append((sender, value))

            stats.supersteps.append(
                SuperstepStats(
                    superstep=superstep,
                    active_vertices=ran,
                    messages_in=messages_in,
                    messages_out=messages_out,
                    vertex_updates=ran,
                    update_path="memory",
                    seconds=time.perf_counter() - step_started,
                    aggregated=tuple(sorted(aggregated.items())),
                    messages_precombine=messages_precombine,
                )
            )
            superstep += 1

        stats.total_seconds = time.perf_counter() - started
        return GiraphResult(
            values={v: values[v] for v in range(n)},
            stats=stats,
            bytes_shuffled=bytes_shuffled,
        )


def _combine_buffer(
    program: VertexProgram, buffer: list[tuple[int, int, Any]]
) -> list[tuple[int, int, Any]]:
    """Apply the program's combiner per destination (sender-side); the
    combined message carries the smallest contributing sender id,
    mirroring Vertexica's ``MIN(vid)`` in the combining GROUP BY."""
    grouped: dict[int, list[tuple[int, Any]]] = {}
    for dst, sender, value in buffer:
        grouped.setdefault(dst, []).append((sender, value))
    return [
        (
            dst,
            min(sender for sender, _ in items),
            items[0][1]
            if len(items) == 1
            else program.combine([value for _, value in items]),
        )
        for dst, items in grouped.items()
    ]
