"""Union-vs-join worker-input parity across *all* shipped programs.

The batch/scalar compute axis is pinned by ``test_batch_parity``; this
suite pins the other data-plane axis: the ``union`` input format (the
paper's Table Unions optimization: vertex and message rows through SQL,
out-edges from the graph version's topology, the ``ShardIndex`` the
shard plane also runs on) and the naive three-way ``join`` foil (which
re-reads the edges through SQL every superstep) must decode into
identical per-vertex context, so every program must produce identical
values, aggregates, and superstep behavior on both.  A Hypothesis
property holds union == join and union == shards on hostile graphs,
edges from and to ids with no vertex row included.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.programs
from repro.core import Vertexica, VertexicaConfig
from repro.programs import (
    AdaptivePageRank,
    CollaborativeFiltering,
    ConnectedComponents,
    FeaturePropagation,
    InDegree,
    LabelPropagation,
    MultiSourceSSSP,
    OutDegree,
    PageRank,
    RandomWalkEmbeddings,
    RandomWalkWithRestart,
    ShortestPaths,
)

try:
    from hypothesis import given
    from hypothesis import strategies as st
    from test_route_plan import PROPERTY, graphs
except ImportError:  # the recovery-fuzz CI job imports this module without hypothesis
    given = None

#: (program factory, needs_symmetrized_edges, matching_graph) — every
#: program in ``repro.programs``, vector codecs included (the join
#: projects each codec's own storage columns); a guard test holds the
#: list to ``repro.programs.__all__``.
#:
#: ``matching_graph=True`` runs on a perfect-matching graph (every vertex
#: has exactly one neighbor, hence at most one incoming message).
#: CollaborativeFiltering applies SGD steps *sequentially per message*,
#: and Pregel guarantees delivery, not order — the two input formats
#: deliver multi-message batches in different orders (union:
#: message-table scan order; join: sorted by sender id), which is allowed
#: to change SGD trajectories.  One message per vertex removes the only
#: legal divergence, so the decode parity check stays bit-exact.
ALL_PROGRAMS = [
    pytest.param(lambda: PageRank(iterations=5), False, False, id="pagerank"),
    pytest.param(
        lambda: AdaptivePageRank(epsilon=1e-4), False, False, id="adaptive-pagerank"
    ),
    pytest.param(lambda: ShortestPaths(source=0), False, False, id="sssp"),
    pytest.param(lambda: ConnectedComponents(), True, False, id="components"),
    pytest.param(
        lambda: CollaborativeFiltering(iterations=4, rank=4), True, True, id="collab-filter"
    ),
    pytest.param(
        lambda: MultiSourceSSSP(sources=(0, 5, 11)), False, False, id="multi-sssp"
    ),
    pytest.param(
        lambda: FeaturePropagation(iterations=4, width=5), False, False, id="feature-prop"
    ),
    pytest.param(
        lambda: RandomWalkEmbeddings(iterations=3, dim=4), False, False, id="rw-embeddings"
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
    def test_list_covers_every_shipped_program(self):
        listed = {type(param.values[0]()) for param in ALL_PROGRAMS}
        shipped = {getattr(repro.programs, name) for name in repro.programs.__all__}
        assert listed == shipped

    @pytest.mark.parametrize("program_factory,symmetrize,matching", ALL_PROGRAMS)
    def test_formats_agree(self, program_factory, symmetrize, matching):
        union = run_with("union", program_factory, symmetrize, matching)
        join = run_with("join", program_factory, symmetrize, matching)
        assert_runs_identical(union, join)

    def test_union_counts_edge_rows_once(self):
        run = run_with("union", lambda: PageRank(iterations=5), False)
        steps = run.stats.supersteps
        vertices, edges = 96, 450
        # Superstep 0 counts the edge relation as read...
        assert steps[0].rows_in == vertices + edges
        # ...which no superstep's worker input carries.
        for step in steps[1:]:
            assert step.rows_in == vertices + step.messages_in


class TestTopologyEmptyPartitions:
    def test_ghost_message_to_vertexless_bucket(self):
        """A message to a nonexistent id can hash to a bucket whose
        topology shard has no vertices (hence no out-edges); the union
        decode must drop it like the join format does, not crash."""
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


#: The programs of the hostile-graph property, each with its combiner on.
HOSTILE_PROGRAMS = {
    "pagerank": lambda ids: PageRank(iterations=4),
    "sssp": lambda ids: ShortestPaths(source=min(ids)),
    "components": lambda ids: ConnectedComponents(),
}


def run_hostile(ids, src, dst, weights, n_partitions, program, **cfg):
    """``program`` over a graph whose vertex set is exactly ``ids``: edges
    from or to any other id have no vertex row."""
    vx = Vertexica(config=VertexicaConfig(n_partitions=n_partitions, **cfg))
    vx.storage.load_graph("g", src, dst, weights, node_ids=sorted(ids))
    vx.sql(f"DELETE FROM g_node WHERE id NOT IN ({', '.join(map(str, sorted(ids)))})")
    return vx.run(vx.graph("g"), program)


def rows_in(result) -> list[int]:
    return [step.rows_in for step in result.stats.supersteps]


if given is not None:

    class TestHostileGraphParity:
        @PROPERTY
        @given(graphs(ghost_sources=True), st.sampled_from(sorted(HOSTILE_PROGRAMS)))
        def test_union_equals_join_and_shards(self, graph, name):
            """Bitwise, per superstep: union == join on values and counts
            (not ``rows_in``: join rows are a cross product) and union ==
            shards on values and ``rows_in``.  The join collapses parallel
            edges, so it is compared on the graph's first edge per
            ``(src, dst)``."""
            ids, src, dst, _, _, n_partitions = graph
            weights = [0.5 + 0.75 * (i % 4) for i in range(len(src))]
            program = HOSTILE_PROGRAMS[name]
            union = run_hostile(ids, src, dst, weights, n_partitions, program(ids))
            shards = run_hostile(
                ids, src, dst, weights, n_partitions, program(ids), data_plane="shards"
            )
            assert_runs_identical(union, shards)
            assert rows_in(union) == rows_in(shards)

            first = {}
            for edge, weight in zip(zip(src, dst), weights):
                first.setdefault(edge, weight)
            if len(first) < len(src):
                simple = ([s for s, _ in first], [d for _, d in first], list(first.values()))
                union = run_hostile(ids, *simple, n_partitions, program(ids))
            else:
                simple = (src, dst, weights)
            join = run_hostile(
                ids, *simple, n_partitions, program(ids), input_strategy="join"
            )
            assert_runs_identical(union, join)
