"""Vertex-centric collaborative filtering (latent-factor SGD).

The paper lists collaborative filtering as a vertex-centric workload: "a
recommendation technique to predict the edge weights in a bipartite
graph".  The standard Pregel formulation models users and items as
vertices of a bipartite graph whose edge weights are ratings; each vertex
holds a latent-factor vector, and each superstep performs one gradient
step against the vectors received from its neighbors.

The factor vector is *structured* vertex state: rank-``k`` factor
vectors live in ``k`` FLOAT columns via
:func:`~repro.core.codecs.vector_codec`, and each message payload is the
bare factor vector (the sender arrives through the message table's
``src`` column, surfaced as ``vertex.message_senders``).  No
serialization anywhere on the superstep hot path.

The rating a vertex needs for neighbor ``s`` is the weight of its own
out-edge to ``s``, so the graph must contain both edge directions with the
rating as the weight (load with ``symmetrize=True``).
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Vertex
from repro.core.codecs import vector_codec
from repro.core.program import VertexProgram

__all__ = ["CollaborativeFiltering"]


class CollaborativeFiltering(VertexProgram):
    """Latent-factor SGD for rating prediction on a bipartite graph.

    Args:
        iterations: gradient rounds (each round = one superstep after the
            initial vector exchange).
        rank: latent-vector dimensionality.
        learning_rate: SGD step size.
        regularization: L2 penalty.
        seed: seeds the deterministic per-vertex initial vectors.
    """

    combiner = None  # SGD consumes each neighbor vector; not reducible

    def __init__(
        self,
        iterations: int = 10,
        rank: int = 8,
        learning_rate: float = 0.05,
        regularization: float = 0.02,
        seed: int = 7,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.iterations = iterations
        self.rank = rank
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.seed = seed
        self.vertex_codec = self.message_codec = vector_codec(rank)
        self.max_supersteps = iterations + 1

    # ------------------------------------------------------------------
    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> list[float]:
        rng = np.random.default_rng(self.seed * 1_000_003 + vertex_id)
        return (rng.random(self.rank) * 0.1).tolist()

    def checkpoint_state(self) -> dict:
        # SGD here is order-sensitive but RNG-free per superstep: the only
        # randomness is the seed-derived per-vertex initial vectors, so
        # resuming bit-identically needs exactly the seed back.
        return {"rng_seed": self.seed}

    def restore_state(self, state: dict) -> None:
        self.seed = int(state.get("rng_seed", self.seed))

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep > 0:
            ratings = {edge.target: edge.weight for edge in vertex.out_edges}
            factors = np.asarray(vertex.value, dtype=np.float64)
            lr = self.learning_rate
            reg = self.regularization
            # The sender is the message relation's src column — not part
            # of the payload, which is the bare factor vector.
            for sender, their_factors in zip(vertex.message_senders, vertex.messages):
                rating = ratings.get(sender)
                if rating is None:  # message from a non-neighbor; ignore
                    continue
                theirs = np.asarray(their_factors, dtype=np.float64)
                error = rating - float(factors @ theirs)
                factors = factors + lr * (error * theirs - reg * factors)
            vertex.modify_vertex_value(factors.tolist())
        if vertex.superstep < self.iterations:
            vertex.send_message_to_all_neighbors(vertex.value)
        else:
            vertex.vote_to_halt()

    # ------------------------------------------------------------------
    @staticmethod
    def predict(values: dict[int, list[float]], user: int, item: int) -> float:
        """Predicted rating = dot product of the two latent vectors."""
        return float(
            np.asarray(values[user], dtype=np.float64)
            @ np.asarray(values[item], dtype=np.float64)
        )

    @staticmethod
    def rmse(
        values: dict[int, list[float]],
        ratings: list[tuple[int, int, float]],
    ) -> float:
        """Root-mean-squared error over ``(user, item, rating)`` triples."""
        if not ratings:
            return 0.0
        errors = [
            (rating - CollaborativeFiltering.predict(values, user, item)) ** 2
            for user, item, rating in ratings
        ]
        return float(np.sqrt(np.mean(errors)))
