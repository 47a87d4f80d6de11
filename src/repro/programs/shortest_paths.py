"""Vertex-centric single-source shortest paths.

Pregel's classic SSSP: the source starts at distance 0 and relaxes its
neighbors; every other vertex starts at infinity, updates to the minimum
incoming candidate, and relaxes onward only when it improved.  Every
vertex votes to halt each superstep — message arrival re-activates it —
so the run terminates exactly when no distance can improve, matching the
paper's "runs as long as there is any message" coordinator loop.
"""

from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

from repro.core.api import Vertex
from repro.core.program import BatchVertexProgram, VertexBatch

__all__ = ["ShortestPaths", "reference_sssp"]

INFINITY = float("inf")


class ShortestPaths(BatchVertexProgram):
    """Single-source shortest paths from ``source``.

    Final vertex values are path distances; unreachable vertices keep
    ``float('inf')``.
    """

    combiner = "MIN"

    def __init__(self, source: int) -> None:
        if source < 0:
            raise ValueError("source vertex id must be non-negative")
        self.source = source

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> float:
        return 0.0 if vertex_id == self.source else INFINITY

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return np.where(ids == self.source, 0.0, INFINITY), np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep == 0:
            if vertex.id == self.source:
                for edge in vertex.out_edges:
                    vertex.send_message(edge.target, edge.weight)
        else:
            best = min(vertex.messages)
            if best < vertex.value:
                vertex.modify_vertex_value(best)
                for edge in vertex.out_edges:
                    vertex.send_message(edge.target, best + edge.weight)
        vertex.vote_to_halt()

    def compute_batch(self, batch: VertexBatch) -> None:
        if batch.superstep == 0:
            batch.send_along_edges(batch.edge_weights, mask=batch.ids == self.source)
        else:
            best = batch.min_messages()
            improved = (batch.message_counts > 0) & (best < batch.values)
            batch.set_values(np.where(improved, best, batch.values))
            relaxed = (
                np.repeat(np.where(improved, best, 0.0), batch.out_degrees)
                + batch.edge_weights
            )
            batch.send_along_edges(relaxed, mask=improved)
        batch.vote_to_halt()


def reference_sssp(
    num_vertices: int,
    src: Iterable[int],
    dst: Iterable[int],
    weights: Iterable[float],
    source: int,
) -> np.ndarray:
    """Dijkstra oracle (non-negative weights) matching
    :class:`ShortestPaths` semantics; unreachable = ``inf``."""
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(num_vertices)]
    for s, d, w in zip(src, dst, weights):
        adjacency[int(s)].append((int(d), float(w)))
    dist = np.full(num_vertices, INFINITY)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for target, weight in adjacency[node]:
            candidate = d + weight
            if candidate < dist[target]:
                dist[target] = candidate
                heapq.heappush(heap, (candidate, target))
    return dist
