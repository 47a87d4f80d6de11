"""PageRank with aggregator-driven convergence (extension).

The paper's PageRank runs a fixed iteration count.  This variant uses a
Pregel-style global SUM aggregator to track the total rank change per
superstep and halts every vertex once the graph has converged below
``epsilon`` — demonstrating global coordination *through the relational
engine* (the aggregator partials live in the worker-output table and are
reduced by a SQL GROUP BY between supersteps).
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Vertex
from repro.core.program import VertexProgram

__all__ = ["AdaptivePageRank"]


class AdaptivePageRank(VertexProgram):
    """PageRank that stops when the summed |rank change| drops below
    ``epsilon``.

    Args:
        epsilon: convergence threshold on the global L1 rank delta.
        damping: damping factor.
        superstep_cap: safety bound (converged graphs stop much earlier).
    """

    combiner = "SUM"
    aggregators = {"delta": "SUM"}

    def __init__(
        self,
        epsilon: float = 1e-9,
        damping: float = 0.85,
        superstep_cap: int = 200,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.epsilon = epsilon
        self.damping = damping
        self.max_supersteps = superstep_cap

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> float:
        return 1.0 / num_vertices

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return np.ones(len(ids)) / num_vertices, np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep > 0:
            fresh = (
                (1.0 - self.damping) / vertex.num_vertices
                + self.damping * sum(vertex.messages)
            )
            vertex.aggregate("delta", abs(fresh - vertex.value))
            vertex.modify_vertex_value(fresh)
        # The previous superstep's global delta is visible to every vertex;
        # when it is below epsilon the whole graph halts simultaneously.
        total_delta = vertex.aggregated("delta")
        if vertex.superstep > 1 and total_delta is not None and total_delta < self.epsilon:
            vertex.vote_to_halt()
            return
        if vertex.out_degree:
            vertex.send_message_to_all_neighbors(vertex.value / vertex.out_degree)
