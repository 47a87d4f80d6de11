"""Vertex-centric PageRank (the paper's headline algorithm).

Standard Pregel formulation: every vertex starts at ``1/N``; each
superstep it sets ``rank = (1-d)/N + d * sum(incoming)`` and sends
``rank / out_degree`` along every out-edge.  After ``iterations`` rank
updates, every vertex votes to halt.

Dangling vertices (no out-edges) retain their rank but distribute nothing,
the common Pregel simplification; the reference implementation used by the
tests (:func:`reference_pagerank`) matches this exactly so results can be
asserted to numerical precision.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Vertex
from repro.core.program import BatchVertexProgram, VertexBatch

__all__ = ["PageRank", "reference_pagerank"]


class PageRank(BatchVertexProgram):
    """PageRank with a fixed number of iterations.

    Implements both data planes: :meth:`compute` is the per-vertex
    reference, :meth:`compute_batch` the vectorized kernel the worker
    prefers; the parity suite asserts they are bit-identical.

    Args:
        iterations: number of rank updates (paper-style fixed horizon).
        damping: damping factor ``d`` (default 0.85).
    """

    combiner = "SUM"

    def __init__(self, iterations: int = 10, damping: float = 0.85) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.iterations = iterations
        self.damping = damping
        self.max_supersteps = iterations + 1

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> float:
        return 1.0 / num_vertices

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return np.ones(len(ids)) / num_vertices, np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep > 0:
            incoming = sum(vertex.messages)
            vertex.modify_vertex_value(
                (1.0 - self.damping) / vertex.num_vertices + self.damping * incoming
            )
        if vertex.superstep < self.iterations:
            if vertex.out_degree:
                vertex.send_message_to_all_neighbors(vertex.value / vertex.out_degree)
        else:
            vertex.vote_to_halt()

    def compute_batch(self, batch: VertexBatch) -> None:
        if batch.superstep > 0:
            incoming = batch.sum_messages()
            batch.set_values(
                (1.0 - self.damping) / batch.num_vertices + self.damping * incoming
            )
        if batch.superstep < self.iterations:
            degrees = batch.out_degrees
            share = np.divide(
                batch.values,
                degrees,
                out=np.zeros(batch.size, dtype=np.float64),
                where=degrees > 0,
            )
            batch.send_to_all_neighbors(share)
        else:
            batch.vote_to_halt()


def reference_pagerank(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    iterations: int = 10,
    damping: float = 0.85,
) -> np.ndarray:
    """Dense-array PageRank with identical semantics to :class:`PageRank`.

    Used by tests and the benchmark harness to validate every execution
    engine (Vertexica, Giraph baseline, SQL) against one oracle.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    out_degree = np.bincount(src, minlength=num_vertices).astype(np.float64)
    rank = np.full(num_vertices, 1.0 / num_vertices)
    for _ in range(iterations):
        contribution = np.zeros(num_vertices)
        safe_degree = np.where(out_degree > 0, out_degree, 1.0)
        per_edge = rank[src] / safe_degree[src]
        np.add.at(contribution, dst, per_edge)
        rank = (1.0 - damping) / num_vertices + damping * contribution
    return rank
