"""Shard-resident data plane: table sync observability and plumbing.

Bit-identity of *results* across planes lives in
``test_batch_parity.TestShardPlaneParity``; this module pins the
relational-interop contract of the shard plane's table sync:

* a run capped at any superstep (``max_supersteps``) leaves the vertex
  and message tables holding exactly what the SQL plane leaves there;
* without checkpointing the tables are written exactly once, at
  completion, and the final relations plus the ``VertexicaResult`` are
  bit-identical to the SQL plane's;
* with checkpointing they are written at each checkpoint boundary, and
  at completion only when the run did not just end on one.

Plus: the shard partitioning invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Vertexica, VertexicaConfig
from repro.core.shards import ShardedDataPlane
from repro.core.storage import GraphStorage
from repro.programs import ConnectedComponents, LabelPropagation, PageRank, ShortestPaths


def small_graph(seed: int = 11, n: int = 60, m: int = 300):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.5, 3.0, m)


def run_plane(data_plane: str, program, symmetrize: bool = False, **cfg):
    src, dst, weights = small_graph()
    cfg.setdefault("n_partitions", 4)
    vx = Vertexica(config=VertexicaConfig(data_plane=data_plane, **cfg))
    graph = vx.load_graph(
        "g", src, dst, weights=weights, num_vertices=64, symmetrize=symmetrize
    )
    result = vx.run(graph, program)
    return vx, graph, result


def vertex_rows(vx: Vertexica):
    return vx.sql("SELECT id, value, halted FROM g_vertex ORDER BY id").rows()


def message_rows(vx: Vertexica):
    return vx.sql(
        "SELECT src, dst, value FROM g_message ORDER BY dst, src, value"
    ).rows()


class TestCappedRunTables:
    """A run capped at any superstep leaves the SQL-visible tables the
    SQL plane leaves: the final sync writes the capped state."""

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_tables_match_legacy_at_every_superstep(self, cap):
        # Truncating the run at superstep `cap` exposes the mid-run table
        # state both planes leave behind.
        sql_vx, _, sql_result = run_plane(
            "sql", PageRank(iterations=6), max_supersteps=cap
        )
        shard_vx, _, shard_result = run_plane(
            "shards", PageRank(iterations=6), max_supersteps=cap
        )
        assert sql_result.stats.n_supersteps == shard_result.stats.n_supersteps == cap
        assert vertex_rows(shard_vx) == vertex_rows(sql_vx)
        assert message_rows(shard_vx) == message_rows(sql_vx)

    def test_uncombined_message_table_matches(self):
        sql_vx, _, _ = run_plane(
            "sql", LabelPropagation(iterations=4), True, max_supersteps=2
        )
        shard_vx, _, _ = run_plane(
            "shards", LabelPropagation(iterations=4), True, max_supersteps=2
        )
        assert message_rows(shard_vx) == message_rows(sql_vx)
        assert vertex_rows(shard_vx) == vertex_rows(sql_vx)

    def test_message_senders_match_above_2_53(self):
        # The SQL plane's MIN(vid) AS src once ran through float64: it
        # read 2^53 + 4 / 2^53 (not even a vertex id) where the shard
        # plane's exact minimum.reduceat read 2^53 + 3 / 2^53 + 1.
        base = 2**53 + 1
        src = np.array([0, 1, 2, 3, 2, 0]) + base
        dst = np.array([1, 2, 3, 0, 0, 2]) + base
        tables = []
        for plane in ("sql", "shards"):
            vx = Vertexica(config=VertexicaConfig(data_plane=plane, n_partitions=2))
            vx.run(vx.load_graph("g", src, dst), PageRank(iterations=5), max_supersteps=1)
            tables.append(message_rows(vx))
        sql_rows, shard_rows = tables
        assert shard_rows == sql_rows
        assert [(s, d) for s, d, _ in sql_rows] == [
            (base + 2, base), (base, base + 1), (base, base + 2), (base + 2, base + 3)
        ]

    @pytest.mark.parametrize("cap", [1, 2, 4, None])
    def test_integer_labels_match_above_2_53(self, cap):
        # INTEGER vertex values and messages once staged through a FLOAT
        # column: every CC label read 2^53 on both planes.
        base = 2**53 + 1
        src, dst, _ = small_graph()
        tables = []
        for plane in ("sql", "shards"):
            vx = Vertexica(config=VertexicaConfig(data_plane=plane, n_partitions=4))
            graph = vx.load_graph("g", src + base, dst + base, symmetrize=True)
            vx.run(graph, ConnectedComponents(), max_supersteps=cap)
            tables.append((vertex_rows(vx), message_rows(vx)))
        assert tables[1] == tables[0]
        labels = {label for _, label, _ in tables[0][0]}
        assert min(labels) == base and labels <= {vid for vid, _, _ in tables[0][0]}


class TestHaltSyncObservability:
    """Without checkpointing the tables are written once, at completion
    — and the final state is still bit-identical."""

    def test_final_tables_and_result_bit_identical(self):
        sql_vx, _, sql_result = run_plane("sql", ShortestPaths(source=0))
        shard_vx, _, shard_result = run_plane("shards", ShortestPaths(source=0))
        assert shard_result.values == sql_result.values  # bit-identical
        assert vertex_rows(shard_vx) == vertex_rows(sql_vx)
        assert message_rows(shard_vx) == message_rows(sql_vx) == []

    def test_pending_messages_materialize_on_capped_runs(self):
        # A superstep cap stops the run with messages still in flight;
        # the final sync must materialize them for relational consumers.
        sql_vx, _, _ = run_plane("sql", PageRank(iterations=6), max_supersteps=3)
        shard_vx, _, _ = run_plane("shards", PageRank(iterations=6), max_supersteps=3)
        rows = message_rows(shard_vx)
        assert rows and rows == message_rows(sql_vx)

    def test_tables_written_exactly_once(self):
        vx, graph, result = run_plane("shards", PageRank(iterations=5))
        assert result.stats.n_supersteps == 6
        # CREATE leaves version 0; the single final sync bumps it to 1.
        assert vx.db.table(graph.message_table).version == 1
        # setup_run's initial load is version 1; the final sync makes 2.
        assert vx.db.table(graph.vertex_table).version == 2

    @staticmethod
    def _recorded_syncs(monkeypatch, tmp_path, every):
        """The ``superstep`` argument of every table sync in one
        checkpointed PageRank(iterations=5) run (six supersteps)."""
        calls = []
        sync = ShardedDataPlane.sync_tables

        def recording(plane, superstep=None):
            calls.append(superstep)
            return sync(plane, superstep)

        monkeypatch.setattr(ShardedDataPlane, "sync_tables", recording)
        vx, _, result = run_plane(
            "shards", PageRank(iterations=5),
            checkpoint_every=every, checkpoint_dir=str(tmp_path / "shards"),
        )
        assert result.stats.n_supersteps == 6
        return calls, vx

    def test_run_ending_on_a_checkpoint_skips_the_final_sync(self, monkeypatch, tmp_path):
        # Checkpoints after 2, 4 and 6 completed supersteps sync at
        # supersteps 1, 3 and 5; the last one already wrote the final state.
        calls, shard_vx = self._recorded_syncs(monkeypatch, tmp_path, every=2)
        assert calls == [1, 3, 5]
        sql_vx, _, _ = run_plane(
            "sql", PageRank(iterations=5),
            checkpoint_every=2, checkpoint_dir=str(tmp_path / "sql"),
        )
        assert vertex_rows(shard_vx) == vertex_rows(sql_vx)
        assert message_rows(shard_vx) == message_rows(sql_vx)

    def test_run_ending_off_a_checkpoint_syncs_once_at_the_end(self, monkeypatch, tmp_path):
        calls, _ = self._recorded_syncs(monkeypatch, tmp_path, every=4)
        assert calls == [3, 6]

    def test_values_via_result_match_halt_tables(self):
        vx, _, result = run_plane("shards", ConnectedComponents(), True)
        from_table = {vid: value for vid, value, _ in vertex_rows(vx)}
        assert from_table == result.values


class TestShardPartitioning:
    def test_vid_hash_layout(self):
        vx = Vertexica()
        src, dst, weights = small_graph()
        graph = vx.load_graph("g", src, dst, weights=weights, num_vertices=64)
        storage = GraphStorage(vx.db)
        storage.setup_run(graph, PageRank(iterations=1))
        plane = ShardedDataPlane(
            storage, graph, PageRank(iterations=1), VertexicaConfig(n_partitions=4)
        )
        assert len(plane.shards) == 4
        seen = 0
        for shard in plane.shards:
            ids = shard.vertex_ids
            assert np.all(ids % 4 == shard.index)
            assert np.all(np.diff(ids) > 0)  # sorted, unique
            # CSR edges aligned to the shard's vertices
            assert len(shard.edge_indptr) == len(ids) + 1
            assert shard.edge_indptr[-1] == len(shard.edge_targets)
            seen += len(ids)
        assert seen == graph.num_vertices

    def test_edge_table_mutated_by_sql_dml(self):
        """SQL DML can append edge rows out of canonical (src-sorted)
        order between load_graph and run; the shard CSR build must sort
        within buckets or it silently mis-assigns edges (the SQL plane
        re-sorts every superstep, so it is naturally immune)."""
        src, dst, weights = small_graph()
        results = {}
        for plane in ("sql", "shards"):
            vx = Vertexica(config=VertexicaConfig(data_plane=plane, n_partitions=4))
            vx.load_graph("g", src, dst, weights=weights, num_vertices=64)
            # Appends rows whose src is far below the tail of the table.
            vx.sql("INSERT INTO g_edge VALUES (0, 5, 1.0), (4, 1, 2.0), (0, 9, 1.0)")
            graph = vx.graph("g")
            results[plane] = vx.run(graph, PageRank(iterations=5))
        assert results["shards"].values == results["sql"].values

    def test_shard_metrics_recorded(self):
        _, _, result = run_plane("shards", PageRank(iterations=3))
        for step in result.stats.supersteps:
            assert len(step.shard_seconds) == 4
            assert step.update_path in ("memory", "none")
            assert step.shard_balance >= 1.0
