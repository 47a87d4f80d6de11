"""Union-vs-join worker-input parity across *all* shipped programs.

The batch/scalar compute axis is pinned by ``test_batch_parity``; this
suite pins the other data-plane axis: the ``union`` input format (the
paper's Table Unions optimization, reading edges from the
cross-superstep edge cache) and the naive three-way ``join`` foil (which
re-reads them through SQL every superstep) must decode into
identical per-vertex context, so every program must produce identical
values, aggregates, and superstep behavior on both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Vertexica, VertexicaConfig
from repro.programs import (
    AdaptivePageRank,
    CollaborativeFiltering,
    ConnectedComponents,
    InDegree,
    LabelPropagation,
    OutDegree,
    PageRank,
    RandomWalkWithRestart,
    ShortestPaths,
)

#: (program factory, needs_symmetrized_edges, matching_graph) — every
#: program in ``repro.programs``; keep in sync with its ``__all__``.
#:
#: ``matching_graph=True`` runs on a perfect-matching graph (every vertex
#: has exactly one neighbor, hence at most one incoming message).
#: CollaborativeFiltering applies SGD steps *sequentially per message*,
#: and Pregel guarantees delivery, not order — the two input formats
#: deliver multi-message batches in different orders (union:
#: message-table scan order; join: sorted by sender id), which is allowed
#: to change SGD trajectories.  One message per vertex removes the only
#: legal divergence, so the decode parity check stays bit-exact while
#: still exercising the JSON/VARCHAR codec path through both formats
#: (the join format cannot carry vector-codec payloads, so CF runs its
#: ``codec="json"`` ablation here; the vector path's cross-plane parity
#: lives in ``test_batch_parity.TestShardPlaneParity``).
ALL_PROGRAMS = [
    pytest.param(lambda: PageRank(iterations=5), False, False, id="pagerank"),
    pytest.param(
        lambda: AdaptivePageRank(epsilon=1e-4), False, False, id="adaptive-pagerank"
    ),
    pytest.param(lambda: ShortestPaths(source=0), False, False, id="sssp"),
    pytest.param(lambda: ConnectedComponents(), True, False, id="components"),
    pytest.param(
        lambda: CollaborativeFiltering(iterations=4, rank=4, codec="json"),
        True,
        True,
        id="collab-filter",
    ),
    pytest.param(
        lambda: RandomWalkWithRestart(source=2, iterations=5), False, False, id="rwr"
    ),
    pytest.param(lambda: InDegree(), False, False, id="in-degree"),
    pytest.param(lambda: OutDegree(), False, False, id="out-degree"),
    pytest.param(lambda: LabelPropagation(iterations=4), True, False, id="label-prop"),
]


def _graph_data(matching: bool):
    if matching:
        # 30 disjoint user-item pairs with rating-like weights.
        src = np.arange(0, 60, 2, dtype=np.int64)
        dst = src + 1
        weights = 1.0 + (np.arange(30, dtype=np.float64) % 9) / 2.0
        return src, dst, weights
    # A *simple* graph (no duplicate edges): the naive three-way join
    # cannot represent parallel edges — one row per (edge x message)
    # combination collapses equal (src, dst) pairs — so the paper's foil
    # is only meaningful on deduplicated edge lists.
    from repro.datasets.generators import power_law_graph

    g = power_law_graph("g", 90, 450, seed=23, weighted=True)
    return g.src, g.dst, g.weights


def run_with(
    input_strategy: str, program_factory, symmetrize: bool, matching: bool = False, **cfg
):
    src, dst, weights = _graph_data(matching)
    cfg.setdefault("n_partitions", 4)
    vx = Vertexica(config=VertexicaConfig(input_strategy=input_strategy, **cfg))
    # Padding ids create isolated vertices in both formats.
    graph = vx.load_graph(
        "g",
        src,
        dst,
        weights=weights,
        num_vertices=(66 if matching else 96),
        symmetrize=symmetrize,
    )
    return vx.run(graph, program_factory())


def assert_runs_identical(left, right):
    assert left.values == right.values  # bit-identical, not approximate
    l_steps, r_steps = left.stats.supersteps, right.stats.supersteps
    assert len(l_steps) == len(r_steps)
    for l, r in zip(l_steps, r_steps):
        assert l.active_vertices == r.active_vertices
        assert l.messages_in == r.messages_in
        assert l.messages_out == r.messages_out
        assert l.vertex_updates == r.vertex_updates
        assert l.aggregated == r.aggregated


class TestUnionVsJoinAllPrograms:
    @pytest.mark.parametrize("program_factory,symmetrize,matching", ALL_PROGRAMS)
    def test_formats_agree(self, program_factory, symmetrize, matching):
        union = run_with("union", program_factory, symmetrize, matching)
        join = run_with("join", program_factory, symmetrize, matching)
        assert_runs_identical(union, join)

    def test_cached_union_drops_edge_rows_after_first_superstep(self):
        run = run_with("union", lambda: PageRank(iterations=5), False)
        steps = run.stats.supersteps
        vertices, edges = 96, 450
        # Superstep 0 decodes (and caches) the edge relation...
        assert steps[0].rows_in == vertices + edges
        # ...after which the edge rows disappear from the worker input.
        for step in steps[1:]:
            assert step.rows_in == vertices + step.messages_in


class TestEdgeCacheEmptyPartitions:
    def test_ghost_message_to_vertexless_bucket(self):
        """A message to a nonexistent id can hash to a bucket that held no
        rows at superstep 0 (hence no cache entry); the cached decode must
        drop it like the cache-less join format does, not crash."""
        from repro.core.program import VertexProgram

        class GhostToEmptyBucket(VertexProgram):
            combiner = None

            def initial_value(self, vertex_id, out_degree, num_vertices):
                return float(vertex_id)

            def compute(self, vertex):
                if vertex.superstep == 0:
                    # Vertices are 0..2; with n_partitions=4 bucket 3 has no
                    # vertex rows, and 7 % 4 == 3.
                    vertex.send_message(7, 1.0)
                else:
                    vertex.modify_vertex_value(float(sum(vertex.messages)))
                vertex.vote_to_halt()

        results = {}
        for strategy in ("union", "join"):
            vx = Vertexica(
                config=VertexicaConfig(n_partitions=4, input_strategy=strategy)
            )
            graph = vx.load_graph("g", [0, 1], [1, 2], num_vertices=3)
            results[strategy] = vx.run(graph, GhostToEmptyBucket())
        assert results["union"].values == results["join"].values == {0: 0.0, 1: 1.0, 2: 2.0}
