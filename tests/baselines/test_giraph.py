"""Tests for the Giraph-like BSP engine."""

import numpy as np
import pytest

from repro.baselines.giraph import GiraphConfig, GiraphEngine
from repro.errors import BaselineError
from repro.programs import PageRank, ShortestPaths
from repro.programs.pagerank import reference_pagerank


def giraph(n, src, dst, **kwargs):
    return GiraphEngine(n, src, dst, config=GiraphConfig(**kwargs))


class TestConstruction:
    def test_csr_adjacency(self, tiny_edges):
        src, dst = tiny_edges
        engine = giraph(5, src, dst)
        edges = engine.out_edges(0)
        assert sorted(e.target for e in edges) == [1, 2]
        assert engine.out_edges(1)[0].weight == 1.0

    def test_ragged_arrays_rejected(self):
        with pytest.raises(BaselineError):
            giraph(3, [0, 1], [1])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(BaselineError, match="exceeds num_vertices"):
            giraph(2, [0], [5])

    def test_config_validation(self):
        with pytest.raises(BaselineError):
            GiraphConfig(n_workers=0).validated()


class TestExecution:
    def test_pagerank_matches_oracle(self, tiny_edges):
        src, dst = tiny_edges
        result = giraph(5, src, dst).run(PageRank(iterations=10))
        oracle = reference_pagerank(5, np.array(src), np.array(dst), iterations=10)
        for v in range(5):
            assert result.values[v] == pytest.approx(oracle[v], abs=1e-12)

    def test_worker_count_result_invariant(self, tiny_edges):
        src, dst = tiny_edges
        results = [
            giraph(5, src, dst, n_workers=w).run(PageRank(iterations=5)).values
            for w in (1, 2, 5)
        ]
        assert results[0] == results[1] == results[2]

    def test_shuffle_pickles_and_matches_oracle(self, tiny_edges):
        src, dst = tiny_edges
        result = giraph(5, src, dst).run(PageRank(iterations=4))
        oracle = reference_pagerank(5, np.array(src), np.array(dst), iterations=4)
        for v in range(5):
            assert result.values[v] == pytest.approx(oracle[v], abs=1e-12)
        assert result.bytes_shuffled > 0

    def test_combiner_reduces_shuffled_bytes(self):
        # many vertices pointing at one hub -> SUM combiner collapses them
        n = 40
        src = list(range(1, n))
        dst = [0] * (n - 1)
        combined = giraph(n, src, dst, n_workers=2).run(PageRank(iterations=3))

        class NoCombinerPageRank(PageRank):
            combiner = None

        raw = giraph(n, src, dst, n_workers=2).run(NoCombinerPageRank(iterations=3))
        assert combined.bytes_shuffled < raw.bytes_shuffled
        for v in range(n):
            assert combined.values[v] == pytest.approx(raw.values[v], abs=1e-12)

    def test_vector_combiner_reduces_shuffled_bytes(self):
        # The element-wise MIN combiner collapses width-k distance
        # vectors sender-side; MIN is exact under any grouping, so the
        # hub sees bit-identical distances either way.
        from repro.programs import MultiSourceSSSP

        n = 40
        src = list(range(1, n)) + [0] * (n - 1)
        dst = [0] * (n - 1) + list(range(1, n))
        combined = giraph(n, src, dst, n_workers=2).run(
            MultiSourceSSSP(sources=(1, 2, 3))
        )
        raw_program = MultiSourceSSSP(sources=(1, 2, 3))
        raw_program.combiner = None
        raw = giraph(n, src, dst, n_workers=2).run(raw_program)
        assert combined.bytes_shuffled < raw.bytes_shuffled
        assert combined.values == raw.values  # bit-identical, not approx
        pre = sum(s.messages_precombine for s in combined.stats.supersteps)
        assert sum(s.messages_out for s in combined.stats.supersteps) < pre

    def test_sssp_terminates_by_quiescence(self, tiny_edges):
        src, dst = tiny_edges
        result = giraph(5, src, dst).run(ShortestPaths(source=0))
        assert result.values == {0: 0.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 3.0}

    def test_superstep_stats(self, tiny_edges):
        src, dst = tiny_edges
        result = giraph(5, src, dst).run(PageRank(iterations=3))
        stats = result.stats
        assert stats.n_supersteps == 4
        assert stats.supersteps[0].active_vertices == 5
        assert stats.supersteps[0].messages_in == 0

    def test_never_halting_program_hits_safety_cap(self):
        from repro.core.api import Vertex
        from repro.core.program import VertexProgram

        class Spinner(VertexProgram):
            def initial_value(self, vertex_id, out_degree, num_vertices):
                return 0.0

            def compute(self, vertex: Vertex) -> None:
                pass

        import repro.baselines.giraph.engine as engine_module

        original = engine_module.SUPERSTEP_SAFETY_LIMIT
        engine_module.SUPERSTEP_SAFETY_LIMIT = 4
        try:
            with pytest.raises(BaselineError, match="safety limit"):
                giraph(2, [0], [1]).run(Spinner())
        finally:
            engine_module.SUPERSTEP_SAFETY_LIMIT = original

    def test_barrier_latency_is_charged(self, tiny_edges):
        src, dst = tiny_edges
        result = giraph(5, src, dst).run(PageRank(iterations=2))
        assert result.stats.n_supersteps == 3
        assert result.charged_s == 3 * 0.1
