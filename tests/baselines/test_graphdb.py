"""Tests for the property-graph store, its WAL, and its algorithms."""

import gc
import os

import numpy as np
import pytest

from repro.baselines.graphdb import (
    PropertyGraphStore,
    StoreConfig,
    graphdb_pagerank,
    graphdb_shortest_paths,
    graphdb_wcc,
)
from repro.baselines.graphdb.wal import WriteAheadLog
from repro.errors import GraphDbCapacityError, GraphDbError
from repro.programs.connected_components import reference_components
from repro.programs.pagerank import reference_pagerank
from repro.programs.shortest_paths import reference_sssp


class TestStoreBasics:
    def test_create_and_read(self, graph_store):
        with graph_store.transaction() as tx:
            tx.create_node(1)
            tx.create_node(2)
            tx.create_relationship(1, 2, "KNOWS", weight=2.5)
        assert graph_store.num_nodes == 2
        assert graph_store.num_relationships == 1
        rel = graph_store.node(1).out_rels[0]
        assert rel.end == 2 and rel.properties["weight"] == 2.5
        assert graph_store.node(2).in_rels[0].start == 1

    def test_duplicate_node_rejected(self, graph_store):
        with graph_store.transaction() as tx:
            tx.create_node(1)
        with pytest.raises(GraphDbError, match="already exists"):
            with graph_store.transaction() as tx:
                tx.create_node(1)

    def test_unknown_node(self, graph_store):
        with pytest.raises(GraphDbError, match="unknown node"):
            graph_store.node(42)

    def test_relationship_needs_endpoints(self, graph_store):
        with pytest.raises(GraphDbError):
            with graph_store.transaction() as tx:
                tx.create_relationship(1, 2)

    def test_single_writer(self, graph_store):
        graph_store.begin()
        with pytest.raises(GraphDbError, match="already active"):
            graph_store.begin()

    def test_capacity_cap(self, tmp_path):
        store = PropertyGraphStore(
            StoreConfig(
                wal_path=str(tmp_path / "w.jsonl"),
                max_nodes=2,
            )
        )
        with store.transaction() as tx:
            tx.create_node(0)
            tx.create_node(1)
            with pytest.raises(GraphDbCapacityError):
                tx.create_node(2)
        store.close()


class TestTransactions:
    def test_rollback_undoes_everything(self, graph_store):
        with graph_store.transaction() as tx:
            tx.create_node(1)
            tx.set_property(1, "rank", 0.5)
        tx = graph_store.begin()
        tx.create_node(2)
        tx.create_relationship(1, 2)
        tx.set_property(1, "rank", 0.9)
        tx.rollback()
        assert not graph_store.has_node(2)
        assert graph_store.node(1).properties["rank"] == 0.5
        assert graph_store.node(1).out_rels == []
        assert graph_store.num_relationships == 0

    def test_context_manager_rolls_back_on_error(self, graph_store):
        with pytest.raises(RuntimeError):
            with graph_store.transaction() as tx:
                tx.create_node(5)
                raise RuntimeError("boom")
        assert not graph_store.has_node(5)

    def test_closed_tx_rejects_reuse(self, graph_store):
        tx = graph_store.begin()
        tx.commit()
        with pytest.raises(GraphDbError, match="closed"):
            tx.commit()

    def test_set_property_undo_removes_new_key(self, graph_store):
        with graph_store.transaction() as tx:
            tx.create_node(1)
        tx = graph_store.begin()
        tx.set_property(1, "fresh", 1)
        tx.rollback()
        assert "fresh" not in graph_store.node(1).properties


class TestWal:
    def test_replay_returns_only_committed(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.log_operation(1, "create_node", {"id": 1})
        wal.log_commit(1)
        wal.log_operation(2, "create_node", {"id": 2})
        wal.log_abort(2)
        wal.log_operation(3, "create_node", {"id": 3})  # crash: no commit
        wal.close()
        ops = list(WriteAheadLog.replay(path))
        assert [op["id"] for op in ops] == [1]

    def test_replay_missing_file(self, tmp_path):
        with pytest.raises(GraphDbError, match="no WAL"):
            list(WriteAheadLog.replay(str(tmp_path / "nope.jsonl")))

    def test_store_writes_wal(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        store = PropertyGraphStore(StoreConfig(wal_path=path))
        with store.transaction() as tx:
            tx.create_node(1)
        store.close()
        ops = list(WriteAheadLog.replay(path))
        assert ops[0]["op"] == "create_node"

    def test_unclosed_store_deletes_its_temp_wal(self):
        store = PropertyGraphStore()
        path = store.wal.path
        with store.transaction() as tx:
            tx.create_node(1)
        assert os.path.exists(path)
        del store, tx
        gc.collect()
        assert not os.path.exists(path)


class TestAlgorithms:
    @pytest.fixture
    def loaded(self, graph_store, small_graph):
        graph_store.load_edge_list(small_graph.src, small_graph.dst)
        with graph_store.transaction() as tx:
            for v in range(small_graph.num_vertices):
                if not graph_store.has_node(v):
                    tx.create_node(v)
        return graph_store, small_graph

    def test_pagerank_matches_oracle(self, loaded):
        store, graph = loaded
        got = graphdb_pagerank(store, iterations=6)
        oracle = reference_pagerank(graph.num_vertices, graph.src, graph.dst, 6)
        for v in range(graph.num_vertices):
            assert got[v] == pytest.approx(oracle[v], abs=1e-10)

    def test_sssp_matches_dijkstra(self, loaded):
        store, graph = loaded
        got = graphdb_shortest_paths(store, 0)
        oracle = reference_sssp(
            graph.num_vertices, graph.src, graph.dst,
            np.ones(graph.num_edges), 0,
        )
        for v in range(graph.num_vertices):
            if np.isinf(oracle[v]):
                assert np.isinf(got[v])
            else:
                assert got[v] == oracle[v]

    def test_wcc_matches_union_find(self, loaded):
        store, graph = loaded
        got = graphdb_wcc(store)
        oracle = reference_components(graph.num_vertices, graph.src, graph.dst)
        for v in range(graph.num_vertices):
            assert got[v] == oracle[v]

    def test_pagerank_empty_store(self, graph_store):
        assert graphdb_pagerank(graph_store) == {}

    def test_simulated_latency_accounted(self, graph_store, tiny_edges):
        src, dst = tiny_edges
        graph_store.load_edge_list(src, dst)
        # one lookup per endpoint of each of the 7 relationships created
        assert graph_store.accesses == 14
        graphdb_pagerank(graph_store, iterations=2)
        # 5 initial rank writes; per iteration 5 node reads + 7 in-record
        # reads + 7 neighbour lookups + 5 rank writes; 5 final reads
        assert graph_store.accesses - 14 == 5 + 2 * (5 + 7 + 7 + 5) + 5 == 58
