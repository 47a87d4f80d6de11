"""Cross-engine consistency: the same program must produce identical
results on Vertexica (all configurations), the Giraph baseline, and the
pure-SQL implementations — the invariant Figure 2 rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.giraph import GiraphConfig, GiraphEngine
from repro.core import Vertexica
from repro.programs import ConnectedComponents, PageRank, ShortestPaths
from repro.programs.pagerank import reference_pagerank
from repro.sql_graph import pagerank_sql, shortest_paths_sql

settings.register_profile("cross", max_examples=10, deadline=None)


def random_graph(draw) -> tuple[int, list[int], list[int]]:
    n = draw(st.integers(min_value=2, max_value=12))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        )
    )
    src = [e[0] for e in edges]
    dst = [e[1] for e in edges]
    return n, src, dst


@st.composite
def graphs(draw):
    return random_graph(draw)


def quiet_giraph(n, src, dst):
    return GiraphEngine(
        n, src, dst, config=GiraphConfig(barrier_latency_s=0.0, n_workers=3)
    )


class TestPageRankEverywhere:
    @settings(max_examples=10, deadline=None)
    @given(graphs())
    def test_all_engines_match_oracle(self, graph):
        n, src, dst = graph
        oracle = reference_pagerank(n, np.array(src, dtype=np.int64),
                                    np.array(dst, dtype=np.int64), iterations=5)

        vx = Vertexica()
        handle = vx.load_graph("g", src, dst, num_vertices=n)
        vertexica_values = vx.run(handle, PageRank(iterations=5)).values
        giraph_values = quiet_giraph(n, src, dst).run(PageRank(iterations=5)).values
        sql_values = pagerank_sql(vx.db, handle, iterations=5)

        for v in range(n):
            assert vertexica_values[v] == pytest.approx(oracle[v], abs=1e-10)
            assert giraph_values[v] == pytest.approx(oracle[v], abs=1e-10)
            assert sql_values[v] == pytest.approx(oracle[v], abs=1e-10)

    def test_vertexica_config_space_is_result_invariant(self, tiny_edges):
        """Every optimization knob must leave results bit-identical."""
        src, dst = tiny_edges
        expected = None
        for strategy in ("union", "join"):
            for update in ("update", "replace"):
                for partitions in (1, 4):
                    vx = Vertexica()
                    g = vx.load_graph("g", src, dst, num_vertices=5)
                    values = vx.run(
                        g, PageRank(iterations=4),
                        input_strategy=strategy,
                        update_strategy=update,
                        n_partitions=partitions,
                    ).values
                    if expected is None:
                        expected = values
                    else:
                        assert values == expected, (strategy, update, partitions)


class TestSsspEverywhere:
    @settings(max_examples=10, deadline=None)
    @given(graphs())
    def test_vertexica_giraph_sql_agree(self, graph):
        n, src, dst = graph
        vx = Vertexica()
        handle = vx.load_graph("g", src, dst, num_vertices=n)
        program = ShortestPaths(source=0)
        vertexica_values = vx.run(handle, program).values
        giraph_values = quiet_giraph(n, src, dst).run(ShortestPaths(source=0)).values
        sql_values = shortest_paths_sql(vx.db, handle, 0)
        for v in range(n):
            assert vertexica_values[v] == giraph_values[v] == sql_values[v]


class TestComponentsEverywhere:
    @settings(max_examples=10, deadline=None)
    @given(graphs())
    def test_vertexica_and_giraph_agree(self, graph):
        n, src, dst = graph
        vx = Vertexica()
        handle = vx.load_graph("g", src, dst, num_vertices=n, symmetrize=True)
        vertexica_values = vx.run(handle, ConnectedComponents()).values
        # mirror the symmetrized edges for the in-memory engine
        sym_src = src + dst
        sym_dst = dst + src
        giraph_values = quiet_giraph(n, sym_src, sym_dst).run(ConnectedComponents()).values
        assert vertexica_values == giraph_values
