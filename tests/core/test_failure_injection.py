"""Failure injection for the Vertexica runtime: a crashing vertex program
must not corrupt the graph's relational state — on either data plane."""

import pytest

from repro.core import Vertexica
from repro.core.api import Vertex
from repro.core.program import VertexProgram
from repro.core.storage import GraphStorage
from repro.programs import PageRank

# Every crash-consistency guarantee must hold on the staged SQL plane,
# under either vertex apply path, and on the shard-resident plane.
PLANES = [
    pytest.param({}, id="sql"),
    pytest.param({"update_strategy": "replace"}, id="sql-replace"),
    pytest.param({"data_plane": "shards", "n_partitions": 3}, id="shards"),
]


class ExplodesAtSuperstep(VertexProgram):
    """Counts its supersteps in the vertex value, then raises inside
    compute at a chosen superstep."""

    combiner = "SUM"

    def __init__(self, fail_at: int) -> None:
        self.fail_at = fail_at
        self.max_supersteps = 10

    def initial_value(self, vertex_id, out_degree, num_vertices):
        return 1.0

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep == self.fail_at:
            raise RuntimeError("vertex program exploded")
        vertex.modify_vertex_value(vertex.value + 1.0)
        vertex.send_message_to_all_neighbors(1.0)


@pytest.mark.parametrize("plane", PLANES)
class TestCrashConsistency:
    def test_exception_propagates(self, vx, tiny_edges, plane):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        with pytest.raises(RuntimeError, match="exploded"):
            vx.run(g, ExplodesAtSuperstep(fail_at=1), **plane)

    def test_tables_remain_consistent_after_crash(self, vx, tiny_edges, plane):
        """The worker crashes in superstep 2 before any of its output is
        staged (SQL plane) or applied (shard plane), so the tables stay
        consistent and the graph remains fully analyzable.  What they
        hold depends on the plane: the SQL plane applies each superstep
        as it completes, so they hold the state after superstep 1; the
        shard plane without checkpointing writes them only at completion,
        so they still hold what ``setup_run`` wrote."""
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        with pytest.raises(RuntimeError):
            vx.run(g, ExplodesAtSuperstep(fail_at=2), **plane)

        reference = Vertexica()
        ref = reference.load_graph("g", src, dst, num_vertices=5)
        if plane.get("data_plane", "sql") == "sql":
            # two completed supersteps, each adding 1.0 to every value
            reference.run(ref, ExplodesAtSuperstep(fail_at=2), max_supersteps=2, **plane)
            expected_value = 3.0
        else:
            GraphStorage(reference.db).setup_run(ref, ExplodesAtSuperstep(fail_at=2))
            expected_value = 1.0
        rows = vx.sql("SELECT id, value, halted FROM g_vertex ORDER BY id").rows()
        assert rows == [(vid, expected_value, False) for vid in range(5)]
        for query in (
            "SELECT id, value, halted FROM g_vertex ORDER BY id",
            "SELECT src, dst, value FROM g_message ORDER BY dst, src",
        ):
            assert vx.sql(query).rows() == reference.sql(query).rows()
        # and a fresh run on the same graph succeeds end-to-end
        result = vx.run(g, PageRank(iterations=3), **plane)
        assert len(result.values) == 5

    def test_crash_does_not_leak_worker_registrations(self, vx, tiny_edges, plane):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        with pytest.raises(RuntimeError):
            vx.run(g, ExplodesAtSuperstep(fail_at=0), **plane)
        # the transform slot is simply overwritten by the next run
        result = vx.run(g, PageRank(iterations=2), **plane)
        assert result.stats.n_supersteps == 3

    def test_crash_then_other_plane_still_agrees(self, vx, tiny_edges, plane):
        """After a crash on one plane, a rerun on the *other* plane
        produces the same result — the crash left no plane-specific
        residue in the tables."""
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        with pytest.raises(RuntimeError):
            vx.run(g, ExplodesAtSuperstep(fail_at=1), **plane)
        sql = plane.get("data_plane", "sql") == "sql"
        other = {"data_plane": "shards", "n_partitions": 3} if sql else {}
        here = vx.run(g, PageRank(iterations=3), **plane)
        there = vx.run(g, PageRank(iterations=3), **other)
        assert here.values == there.values
