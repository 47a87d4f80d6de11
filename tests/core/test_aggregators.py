"""Tests for Pregel-style global aggregators (extension).

Aggregator partials flow through the worker-output staging table and are
reduced with SQL GROUP BY — the same state-through-tables discipline as
vertex values and messages.
"""

import numpy as np
import pytest

from repro.baselines.giraph import GiraphEngine
from repro.core import Vertexica
from repro.core.api import Vertex
from repro.core.program import VertexProgram
from repro.errors import BaselineError, ProgramError
from repro.programs import AdaptivePageRank, PageRank
from repro.programs.pagerank import reference_pagerank


class CountingProgram(VertexProgram):
    """Aggregates a SUM of ones and a MAX of vertex ids each superstep."""

    aggregators = {"ran": "SUM", "max_id": "MAX"}

    def initial_value(self, vertex_id, out_degree, num_vertices):
        return 0.0

    def compute(self, vertex: Vertex) -> None:
        vertex.aggregate("ran", 1.0)
        vertex.aggregate("max_id", float(vertex.id))
        if vertex.superstep == 0:
            vertex.send_message_to_all_neighbors(1.0)
        # expose the previous superstep's SUM through the vertex value
        seen = vertex.aggregated("ran")
        if seen is not None:
            vertex.modify_vertex_value(float(seen))
        vertex.vote_to_halt()


class UndeclaredAggregator(VertexProgram):
    def initial_value(self, vertex_id, out_degree, num_vertices):
        return 0.0

    def compute(self, vertex: Vertex) -> None:
        vertex.aggregate("ghost", 1.0)
        vertex.vote_to_halt()


class TestVertexicaAggregators:
    def test_values_visible_next_superstep(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run(g, CountingProgram())
        # superstep 0: all 5 run; receivers at superstep 1 see ran == 5.0
        receivers = set(dst)
        for v in receivers:
            assert result.values[v] == 5.0

    def test_stats_record_aggregates(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run(g, CountingProgram())
        first = dict(result.stats.supersteps[0].aggregated)
        assert first == {"ran": 5.0, "max_id": 4.0}

    def test_partition_count_invariant(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        a = vx.run(g, CountingProgram(), n_partitions=1).stats.supersteps[0]
        b = vx.run(g, CountingProgram(), n_partitions=8).stats.supersteps[0]
        assert a.aggregated == b.aggregated

    def test_undeclared_aggregator_rejected(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        with pytest.raises(ProgramError, match="undeclared aggregator"):
            vx.run(g, UndeclaredAggregator())

    def test_bad_aggregator_op_rejected(self, vx, tiny_edges):
        class BadOp(VertexProgram):
            aggregators = {"x": "MEDIAN"}

            def compute(self, vertex):  # pragma: no cover
                pass

        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        with pytest.raises(ProgramError, match="unknown op"):
            vx.run(g, BadOp())


class TestGiraphAggregators:
    def test_same_values_as_vertexica(self, tiny_edges):
        src, dst = tiny_edges
        vx = Vertexica()
        g = vx.load_graph("g", src, dst, num_vertices=5)
        vertexica_stats = vx.run(g, CountingProgram()).stats
        engine = GiraphEngine(5, src, dst)
        giraph_stats = engine.run(CountingProgram()).stats
        assert (
            vertexica_stats.supersteps[0].aggregated
            == giraph_stats.supersteps[0].aggregated
        )

    def test_undeclared_rejected(self, tiny_edges):
        src, dst = tiny_edges
        engine = GiraphEngine(5, src, dst)
        with pytest.raises(BaselineError, match="undeclared"):
            engine.run(UndeclaredAggregator())


class TestAdaptivePageRank:
    def test_converges_to_fixed_iteration_answer(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        adaptive = vx.run(g, AdaptivePageRank(epsilon=1e-12)).values
        oracle = reference_pagerank(5, np.array(src), np.array(dst), iterations=80)
        for v in range(5):
            assert adaptive[v] == pytest.approx(oracle[v], abs=1e-9)

    def test_loose_epsilon_stops_earlier(self, vx, small_graph):
        g = vx.load_graph(
            small_graph.name, small_graph.src, small_graph.dst,
            num_vertices=small_graph.num_vertices,
        )
        loose = vx.run(g, AdaptivePageRank(epsilon=1e-3)).stats.n_supersteps
        tight = vx.run(g, AdaptivePageRank(epsilon=1e-10)).stats.n_supersteps
        assert loose < tight

    def test_terminates_by_halting_not_cap(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run(g, AdaptivePageRank(epsilon=1e-6, superstep_cap=500))
        assert result.stats.n_supersteps < 500

    def test_matches_on_giraph(self, tiny_edges):
        src, dst = tiny_edges
        vx = Vertexica()
        g = vx.load_graph("g", src, dst, num_vertices=5)
        on_vertexica = vx.run(g, AdaptivePageRank(epsilon=1e-9)).values
        engine = GiraphEngine(5, src, dst)
        on_giraph = engine.run(AdaptivePageRank(epsilon=1e-9)).values
        for v in range(5):
            assert on_vertexica[v] == pytest.approx(on_giraph[v], abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePageRank(epsilon=0.0)
        with pytest.raises(ValueError):
            AdaptivePageRank(damping=1.5)
