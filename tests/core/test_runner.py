"""Tests for the Vertexica facade."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Vertexica, VertexicaConfig
from repro.core.runner import _symmetrized
from repro.errors import GraphLoadError
from repro.programs import ConnectedComponents, PageRank


class TestLoadGraph:
    def test_symmetrize_adds_reverse_edges(self, vx):
        g = vx.load_graph("g", [0, 1], [1, 2], symmetrize=True)
        assert g.num_edges == 4
        rows = vx.sql("SELECT src, dst FROM g_edge ORDER BY src, dst").rows()
        assert (1, 0) in rows and (2, 1) in rows

    def test_symmetrize_dedups_existing_reverse(self, vx):
        g = vx.load_graph("g", [0, 1], [1, 0], symmetrize=True)
        assert g.num_edges == 2

    def test_symmetrize_preserves_weights(self, vx):
        vx.load_graph("g", [0], [1], weights=[3.5], symmetrize=True)
        rows = vx.sql("SELECT src, dst, weight FROM g_edge ORDER BY src").rows()
        assert rows == [(0, 1, 3.5), (1, 0, 3.5)]

    def test_symmetrize_keeps_ids_past_32_bits(self, vx):
        # A packed ``src * width + dst`` dedup key wraps int64 here and
        # drops (0, 0) and (2**32, 0).
        g = vx.load_graph("h", [2**32 - 1, 0, 0], [1, 0, 2**32], symmetrize=True)
        assert g.num_edges == 5
        rows = vx.sql("SELECT src, dst FROM h_edge").rows()
        assert rows == [(0, 0), (0, 2**32), (1, 2**32 - 1), (2**32 - 1, 1), (2**32, 0)]

    def test_symmetrize_rejects_ragged_arrays(self, vx):
        with pytest.raises(GraphLoadError, match="differ in length"):
            vx.load_graph("g", [0, 1], [1], symmetrize=True)
        with pytest.raises(GraphLoadError, match="length differs"):
            vx.load_graph("g", [0, 1], [1, 2], weights=[1.0], symmetrize=True)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 7, 2**32 - 1, 2**32, 2**62, 2**63 - 1]),
                st.sampled_from([0, 1, 7, 2**32 - 1, 2**32, 2**62, 2**63 - 1]),
                st.integers(0, 3),
            ),
            max_size=40,
        ),
        st.integers(0, 2000),
    )
    def test_symmetrize_keeps_each_pairs_first_weight(self, edges, pad):
        # Padding past the kernel's cut-over runs the sorted path too.
        edges = edges + [(9, 10 + i, 0) for i in range(pad)]
        src = np.array([s for s, _, _ in edges], dtype=np.int64)
        dst = np.array([d for _, d, _ in edges], dtype=np.int64)
        weights = np.array([w for _, _, w in edges], dtype=np.float64)
        first: dict[tuple[int, int], float] = {}
        for s, d, w in edges + [(d, s, w) for s, d, w in edges]:
            first.setdefault((s, d), float(w))
        got = _symmetrized(src, dst, weights)
        assert list(zip(*(a.tolist() for a in got))) == [(s, d, w) for (s, d), w in first.items()]

    def test_graph_reattach_by_name(self, vx):
        vx.load_graph("g", [0], [1])
        handle = vx.graph("g")
        assert handle.num_edges == 1

    def test_run_accepts_graph_name(self, vx, tiny_edges):
        src, dst = tiny_edges
        vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run("g", PageRank(iterations=2))
        assert len(result.values) == 5


class TestResult:
    def test_top_k(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run(g, PageRank(iterations=5))
        top = result.top(2)
        ranks = sorted(result.values.values(), reverse=True)
        assert [value for _, value in top] == ranks[:2]

    def test_top_k_ascending(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run(g, PageRank(iterations=5))
        bottom = result.top(1, reverse=False)
        assert bottom[0][1] == min(result.values.values())

    def test_top_k_non_numeric_values(self):
        from repro.core.metrics import RunStats
        from repro.core.runner import VertexicaResult

        result = VertexicaResult(
            values={1: "blue", 2: "amber", 3: "cyan", 4: "amber", 5: None},
            stats=RunStats(program="p", graph="g"),
        )
        # String labels cannot be negated; both directions must still work,
        # with ties broken by ascending vertex id.
        assert result.top(2) == [(3, "cyan"), (1, "blue")]
        assert result.top(3, reverse=False) == [(2, "amber"), (4, "amber"), (1, "blue")]

    def test_top_k_numeric_ties_broken_by_id(self):
        from repro.core.metrics import RunStats
        from repro.core.runner import VertexicaResult

        result = VertexicaResult(
            values={4: 1.0, 2: 1.0, 7: 0.5},
            stats=RunStats(program="p", graph="g"),
        )
        assert result.top(3) == [(2, 1.0), (4, 1.0), (7, 0.5)]
        assert result.top(3, reverse=False) == [(7, 0.5), (2, 1.0), (4, 1.0)]


class TestConfigPlumbing:
    def test_constructor_config_used(self, tiny_edges):
        src, dst = tiny_edges
        vx = Vertexica(config=VertexicaConfig(input_strategy="join"))
        g = vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run(g, PageRank(iterations=2))
        assert len(result.values) == 5

    def test_override_does_not_mutate_base(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        vx.run(g, PageRank(iterations=1), n_partitions=9)
        assert vx.config.n_partitions == 4  # default untouched

    def test_invalid_override_rejected(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        with pytest.raises(Exception):
            vx.run(g, PageRank(iterations=1), input_strategy="nope")


class TestSqlAccess:
    def test_post_processing_in_sql(self, vx, tiny_edges):
        """§3.4: relational post-processing of graph-algorithm output."""
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        vx.run(g, ConnectedComponents())
        histogram = vx.sql(
            "SELECT value AS comp, COUNT(*) AS size FROM g_vertex "
            "GROUP BY value ORDER BY size DESC"
        ).rows()
        assert histogram[0][1] == 5  # tiny graph is one component
