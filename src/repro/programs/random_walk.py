"""Random walk with restart (personalized PageRank).

Listed in the paper's §1 as one of the message-passing algorithms
Vertexica expresses easily.  Identical iteration shape to PageRank, but
the teleport mass flows back to the single source vertex instead of being
spread uniformly — the stationary values rank vertices by proximity to
the source.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Vertex
from repro.core.program import VertexProgram

__all__ = ["RandomWalkWithRestart", "reference_rwr"]


class RandomWalkWithRestart(VertexProgram):
    """Personalized PageRank from ``source``.

    Args:
        source: the restart vertex.
        iterations: number of probability updates.
        restart: restart probability (teleport mass), default 0.15.
    """

    combiner = "SUM"

    def __init__(self, source: int, iterations: int = 10, restart: float = 0.15) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < restart < 1.0:
            raise ValueError("restart must be in (0, 1)")
        self.source = source
        self.iterations = iterations
        self.restart = restart
        self.max_supersteps = iterations + 1

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> float:
        return 1.0 if vertex_id == self.source else 0.0

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return np.where(ids == self.source, 1.0, 0.0), np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep > 0:
            incoming = sum(vertex.messages)
            teleport = self.restart if vertex.id == self.source else 0.0
            vertex.modify_vertex_value(teleport + (1.0 - self.restart) * incoming)
        if vertex.superstep < self.iterations:
            if vertex.out_degree and vertex.value:
                vertex.send_message_to_all_neighbors(vertex.value / vertex.out_degree)
        else:
            vertex.vote_to_halt()


def reference_rwr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    source: int,
    iterations: int = 10,
    restart: float = 0.15,
) -> np.ndarray:
    """Dense oracle with identical semantics to
    :class:`RandomWalkWithRestart`."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    out_degree = np.bincount(src, minlength=num_vertices).astype(np.float64)
    safe_degree = np.where(out_degree > 0, out_degree, 1.0)
    prob = np.zeros(num_vertices)
    prob[source] = 1.0
    for _ in range(iterations):
        spread = np.zeros(num_vertices)
        np.add.at(spread, dst, prob[src] / safe_degree[src])
        prob = (1.0 - restart) * spread
        prob[source] += restart
    return prob
