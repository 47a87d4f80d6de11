"""Multi-source shortest paths over width-k distance vectors.

One run computes shortest-path distances from ``k`` source vertices at
once: every vertex holds a width-``k`` distance vector (lane ``j`` =
distance from ``sources[j]``) stored through
:func:`~repro.core.codecs.vector_codec`, and relaxation messages carry
whole candidate vectors.  The element-wise ``MIN`` combiner collapses
all candidates for a destination into one message inside the data plane
— on a high-fan-in graph this is the landmark-distance workload where
vector combining pays the most (``k`` lanes share one routed row).

Element-wise MIN is exact under any grouping, so combined runs are
bit-identical to uncombined runs on both data planes, every executor,
and the Giraph baseline at any worker count.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.api import Vertex
from repro.core.codecs import vector_codec
from repro.core.program import BatchVertexProgram, VertexBatch
from repro.programs.shortest_paths import reference_sssp

__all__ = ["MultiSourceSSSP", "reference_multi_source_sssp"]

INFINITY = float("inf")


class MultiSourceSSSP(BatchVertexProgram):
    """Shortest paths from ``sources[j]`` in distance-vector lane ``j``.

    Final vertex values are width-``k`` distance vectors; a vertex
    unreachable from ``sources[j]`` keeps ``inf`` in lane ``j``.
    """

    combiner = "MIN"

    def __init__(self, sources: Sequence[int]) -> None:
        self.sources = tuple(int(s) for s in sources)
        if not self.sources:
            raise ValueError("sources must name at least one vertex")
        if any(s < 0 for s in self.sources):
            raise ValueError("source vertex ids must be non-negative")
        self.width = len(self.sources)
        self.vertex_codec = vector_codec(self.width)
        self.message_codec = vector_codec(self.width)

    def initial_value(
        self, vertex_id: int, out_degree: int, num_vertices: int
    ) -> list[float]:
        return [0.0 if vertex_id == s else INFINITY for s in self.sources]

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        sources = np.array(self.sources, dtype=np.int64)
        return np.where(ids[:, None] == sources, 0.0, INFINITY), np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        dist = np.asarray(vertex.value, dtype=np.float64)
        if vertex.superstep == 0:
            if np.isfinite(dist).any():
                for edge in vertex.out_edges:
                    vertex.send_message(edge.target, (dist + edge.weight).tolist())
        elif vertex.messages:
            # The same reduceat call the combiner and the batch kernels
            # run — combined and uncombined inboxes reduce identically.
            block = np.asarray(vertex.messages, dtype=np.float64)
            best = np.minimum.reduceat(block, [0], axis=0)[0]
            if bool((best < dist).any()):
                dist = np.minimum(dist, best)
                vertex.modify_vertex_value(dist.tolist())
                for edge in vertex.out_edges:
                    vertex.send_message(edge.target, (dist + edge.weight).tolist())
        vertex.vote_to_halt()

    def compute_batch(self, batch: VertexBatch) -> None:
        values = batch.values
        if batch.superstep == 0:
            seeded = np.isfinite(values).any(axis=1)
            if bool(seeded.any()):
                per_edge = (
                    np.repeat(values, batch.out_degrees, axis=0)
                    + batch.edge_weights[:, None]
                )
                batch.send_along_edges(per_edge, mask=seeded)
        else:
            best = batch.min_messages()
            improved = (batch.message_counts > 0) & (best < values).any(axis=1)
            if bool(improved.any()):
                new_values = np.where(improved[:, None], np.minimum(values, best), values)
                batch.set_values(new_values, mask=improved)
                per_edge = (
                    np.repeat(new_values, batch.out_degrees, axis=0)
                    + batch.edge_weights[:, None]
                )
                batch.send_along_edges(per_edge, mask=improved)
        batch.vote_to_halt()


def reference_multi_source_sssp(
    num_vertices: int,
    src: Iterable[int],
    dst: Iterable[int],
    weights: Iterable[float],
    sources: Sequence[int],
) -> np.ndarray:
    """Dijkstra oracle per lane: column ``j`` is
    :func:`~repro.programs.shortest_paths.reference_sssp` from
    ``sources[j]``.  Returns an ``(num_vertices, len(sources))`` array."""
    src = list(src)
    dst = list(dst)
    weights = list(weights)
    return np.column_stack(
        [reference_sssp(num_vertices, src, dst, weights, s) for s in sources]
    )
