"""Vertex-centric connected components via minimum-label propagation.

Every vertex starts labeled with its own id and repeatedly adopts the
minimum label among its neighbors' messages; at fixpoint each component is
labeled by its smallest member id.  The graph must be loaded with
``symmetrize=True`` (or already contain both edge directions) — components
are defined on the *undirected* structure, as in the paper's reachability
use case.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Vertex
from repro.core.codecs import INTEGER_CODEC
from repro.core.program import BatchVertexProgram, VertexBatch

__all__ = ["ConnectedComponents", "reference_components"]


class ConnectedComponents(BatchVertexProgram):
    """Minimum-label propagation; final value = component label."""

    vertex_codec = INTEGER_CODEC
    message_codec = INTEGER_CODEC
    combiner = "MIN"

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> int:
        return vertex_id

    def initial_values(
        self, ids: np.ndarray, out_degrees: np.ndarray, num_vertices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        return ids.copy(), np.ones(len(ids), dtype=bool)

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep == 0:
            vertex.send_message_to_all_neighbors(vertex.value)
        else:
            best = min(vertex.messages)
            if best < vertex.value:
                vertex.modify_vertex_value(best)
                vertex.send_message_to_all_neighbors(best)
        vertex.vote_to_halt()

    def compute_batch(self, batch: VertexBatch) -> None:
        if batch.superstep == 0:
            batch.send_to_all_neighbors(batch.values)
        else:
            best = batch.min_messages()
            improved = (batch.message_counts > 0) & (best < batch.values)
            labels = np.where(improved, best, batch.values)
            batch.set_values(labels)
            batch.send_to_all_neighbors(labels, mask=improved)
        batch.vote_to_halt()


def reference_components(num_vertices: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Union-find oracle: label = smallest vertex id in the (undirected)
    component."""
    parent = np.arange(num_vertices, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s, d in zip(np.asarray(src), np.asarray(dst)):
        rs, rd = find(int(s)), find(int(d))
        if rs != rd:
            parent[max(rs, rd)] = min(rs, rd)
    return np.array([find(i) for i in range(num_vertices)], dtype=np.int64)
