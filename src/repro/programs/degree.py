"""Degree-counting programs — the "hello world" of message passing.

``OutDegree`` needs no messages at all; ``InDegree`` is the minimal
demonstration of why messages exist: a vertex cannot see its in-edges, so
every vertex sends ``1`` along its out-edges in superstep 0 and receivers
sum their inbox in superstep 1.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Vertex
from repro.core.program import VertexProgram

__all__ = ["OutDegree", "InDegree"]


class OutDegree(VertexProgram):
    """Stores each vertex's out-degree as its value; one superstep."""

    combiner = "SUM"

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> float:
        return 0.0

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(len(ids)), np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        vertex.modify_vertex_value(float(vertex.out_degree))
        vertex.vote_to_halt()


class InDegree(VertexProgram):
    """Stores each vertex's in-degree as its value; two supersteps."""

    combiner = "SUM"

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> float:
        return 0.0

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(len(ids)), np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep == 0:
            vertex.send_message_to_all_neighbors(1.0)
        else:
            vertex.modify_vertex_value(float(sum(vertex.messages)))
        vertex.vote_to_halt()
