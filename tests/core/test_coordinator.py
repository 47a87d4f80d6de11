"""Tests for the coordinator stored procedure."""

import gc
import weakref

import pytest

from repro.core import Vertexica, VertexicaConfig, faults
from repro.core.api import Vertex
from repro.core.coordinator import Coordinator
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.program import VertexProgram
from repro.core.recovery import RunRecovery
from repro.core.storage import GraphStorage
from repro.datasets.generators import power_law_graph
from repro.errors import UdfError, VertexicaError
from repro.programs import ConnectedComponents, PageRank, ShortestPaths

#: The one superstep loop, exercised once per plane it can drive.
PLANES = {
    "sql": {"data_plane": "sql"},
    "shards": {"data_plane": "shards"},
}


@pytest.fixture(params=PLANES.values(), ids=PLANES.keys())
def plane(request) -> dict:
    return request.param


class NeverHalts(VertexProgram):
    """Pathological program: never votes halt, never messages."""

    def initial_value(self, vertex_id, out_degree, num_vertices):
        return 0.0

    def compute(self, vertex: Vertex) -> None:
        pass  # neither halts nor sends


class TwoStep(VertexProgram):
    """Counts its own supersteps via the vertex value."""

    def initial_value(self, vertex_id, out_degree, num_vertices):
        return 0.0

    def compute(self, vertex: Vertex) -> None:
        vertex.modify_vertex_value(vertex.value + 1.0)
        if vertex.superstep == 0:
            vertex.send_message_to_all_neighbors(1.0)
        vertex.vote_to_halt()


class TestTermination:
    def test_quiescence_all_halted_no_messages(self, vx, plane):
        g = vx.load_graph("g", [0, 1], [1, 0])
        result = vx.run(g, TwoStep(), **plane)
        # superstep 0 runs everyone; superstep 1 delivers messages; done.
        assert result.stats.n_supersteps == 2
        assert result.values == {0: 2.0, 1: 2.0}

    def test_max_supersteps_from_program(self, vx, plane):
        g = vx.load_graph("g", [0, 1], [1, 0])
        program = PageRank(iterations=3)
        result = vx.run(g, program, **plane)
        assert result.stats.n_supersteps == 4  # iterations + final halt step

    def test_max_supersteps_override_via_config(self, vx, plane):
        g = vx.load_graph("g", [0, 1], [1, 0])
        result = vx.run(g, PageRank(iterations=10), max_supersteps=2, **plane)
        assert result.stats.n_supersteps == 2

    def test_safety_limit_raises(self, db, plane):
        storage = GraphStorage(db)
        handle = storage.load_graph("g", [0], [1])
        import repro.core.coordinator as coordinator_module

        coordinator = Coordinator(db, VertexicaConfig(**plane))
        original = coordinator_module.SUPERSTEP_SAFETY_LIMIT
        coordinator_module.SUPERSTEP_SAFETY_LIMIT = 5
        try:
            with pytest.raises(VertexicaError, match="safety limit"):
                coordinator.run(handle, NeverHalts())
        finally:
            coordinator_module.SUPERSTEP_SAFETY_LIMIT = original


class TestMetrics:
    def test_superstep_stats_recorded(self, vx, tiny_edges, plane):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run(g, PageRank(iterations=3), **plane)
        stats = result.stats
        assert stats.program == "PageRank"
        assert stats.graph == "g"
        assert stats.total_seconds > 0
        first = stats.supersteps[0]
        assert first.superstep == 0
        assert first.active_vertices == 5
        assert first.messages_in == 0
        assert first.messages_out > 0
        assert stats.total_messages == sum(s.messages_out for s in stats.supersteps)

    def test_metrics_can_be_disabled(self, vx, tiny_edges, plane):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        result = vx.run(g, PageRank(iterations=2), track_metrics=False, **plane)
        assert result.stats.supersteps == []
        assert result.stats.total_seconds > 0


LOOP_PROGRAMS = [
    pytest.param(lambda: PageRank(iterations=6), False, id="pagerank"),
    # 57: the highest out-degree vertex of the graph below (6 supersteps)
    pytest.param(lambda: ShortestPaths(source=57), False, id="sssp"),
    pytest.param(lambda: ConnectedComponents(), True, id="components"),
]


class TestLoopContract:
    """Whatever plane the loop drives, it counts the same supersteps and
    recovers the same way."""

    GRAPH = power_law_graph("g", 60, 300, seed=17, weighted=True)

    def _run(self, program_factory, symmetrize, plane, **cfg):
        vx = Vertexica(config=VertexicaConfig(n_partitions=3, **plane))
        g = vx.load_graph(
            "g", self.GRAPH.src, self.GRAPH.dst, weights=self.GRAPH.weights,
            num_vertices=60, symmetrize=symmetrize,
        )
        return vx.run(g, program_factory(), **cfg)

    @pytest.mark.parametrize("program_factory,symmetrize", LOOP_PROGRAMS)
    def test_per_superstep_counts_identical_across_planes(self, program_factory, symmetrize):
        def counts(plane):
            return [
                (
                    s.messages_in, s.messages_out, s.vertex_updates, s.active_vertices,
                    s.rows_in, s.rows_out, s.messages_precombine,
                )
                for s in self._run(program_factory, symmetrize, plane).stats.supersteps
            ]

        sql, shards = [counts(plane) for plane in PLANES.values()]
        assert len(sql) > 4  # past the injected-fault superstep of the test below
        assert shards == sql

    @pytest.mark.parametrize("program_factory,symmetrize", LOOP_PROGRAMS)
    def test_checkpoints_and_rollback_identical_across_planes(
        self, program_factory, symmetrize, tmp_path, monkeypatch
    ):
        written: list[int] = []
        original = RunRecovery.write

        def recording_write(self, completed, aggregated):
            written.append(completed)
            return original(self, completed, aggregated)

        monkeypatch.setattr(RunRecovery, "write", recording_write)
        outcomes = []
        for name, plane in PLANES.items():
            # One transient fault past each plane's in-task retry seam.
            site = "storage.apply" if plane["data_plane"] == "sql" else "shard.route"
            written.clear()
            plan = FaultPlan([FaultSpec(site=site, kind="transient", superstep=3)])
            with faults.injected(plan):
                stats = self._run(
                    program_factory, symmetrize, plane,
                    checkpoint_every=2, checkpoint_dir=str(tmp_path / name),
                ).stats
            assert len(plan.fired) == 1
            outcomes.append((list(written), stats.recovered_supersteps, stats.retries))
        assert outcomes[0][1:] == (2, 1)
        assert outcomes[1] == outcomes[0]


class RaisesInCompute(VertexProgram):
    def compute(self, vertex: Vertex) -> None:
        raise RuntimeError("boom")


class TestSqlPlaneHygiene:
    """A finished run leaves nothing registered on the database."""

    def test_no_worker_transform_after_successful_run(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        program = PageRank(iterations=2)
        alive = weakref.ref(program)
        vx.run(g, program)
        with pytest.raises(UdfError):
            vx.db.udfs.get_transform("g_worker")
        del program
        gc.collect()
        assert alive() is None

    def test_no_worker_transform_after_raising_run(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        program = RaisesInCompute()
        alive = weakref.ref(program)
        with pytest.raises(Exception, match="boom"):
            vx.run(g, program)
        with pytest.raises(UdfError):
            vx.db.udfs.get_transform("g_worker")
        del program
        gc.collect()
        assert alive() is None


class TestUpdatePathSelection:
    def test_forced_paths(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        for strategy in ("update", "replace"):
            result = vx.run(g, PageRank(iterations=2), update_strategy=strategy)
            paths = {s.update_path for s in result.stats.supersteps if s.vertex_updates}
            assert paths == {strategy}

    def test_default_takes_the_update_path(self, vx, tiny_edges):
        # Dense (PageRank updates every vertex every superstep) and sparse
        # (late chain-SSSP supersteps touch one vertex) alike, every
        # superstep that updates takes the keyed scatter.
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        dense = vx.run(g, PageRank(iterations=2)).stats.supersteps
        n = 6
        chain = vx.load_graph("chain", list(range(n - 1)), list(range(1, n)))
        sparse = vx.run(chain, ShortestPaths(source=0)).stats.supersteps
        for steps in (dense, sparse):
            paths = [s.update_path for s in steps if s.vertex_updates]
            assert paths and set(paths) == {"update"}
        assert sparse[-2].vertex_updates == 1

    def test_both_paths_same_results(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        by_update = vx.run(g, PageRank(iterations=4), update_strategy="update").values
        by_replace = vx.run(g, PageRank(iterations=4), update_strategy="replace").values
        assert by_update == by_replace


class TestStoredProcedureWiring:
    def test_coordinator_registered_as_procedure(self, vx, tiny_edges):
        src, dst = tiny_edges
        g = vx.load_graph("g", src, dst, num_vertices=5)
        stats = vx.db.call("vertexica_run", g, PageRank(iterations=1), VertexicaConfig())
        assert stats.n_supersteps == 2
