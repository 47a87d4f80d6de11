"""Failure injection: WAL crash recovery; the §3.3 mutation contrast."""

import pytest

from repro.baselines.giraph import GiraphEngine
from repro.baselines.graphdb import PropertyGraphStore, StoreConfig
from repro.errors import BaselineError


class TestWalRecovery:
    def test_recover_rebuilds_committed_state(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        store = PropertyGraphStore(StoreConfig(wal_path=path))
        with store.transaction() as tx:
            tx.create_node(1)
            tx.create_node(2)
            tx.create_relationship(1, 2, "KNOWS", weight=3.5)
            tx.set_property(1, "rank", 0.8)
        store.wal.close()

        recovered = PropertyGraphStore.recover(path)
        assert recovered.num_nodes == 2
        assert recovered.num_relationships == 1
        assert recovered.node(1).properties["rank"] == 0.8
        assert recovered.node(1).out_rels[0].properties["weight"] == 3.5
        recovered.close()

    def test_recover_discards_uncommitted_tail(self, tmp_path):
        """Simulated crash: a transaction's ops are logged but no commit
        marker was written before the 'crash'."""
        path = str(tmp_path / "wal.jsonl")
        store = PropertyGraphStore(StoreConfig(wal_path=path))
        with store.transaction() as tx:
            tx.create_node(1)
        # Crash mid-transaction: ops hit the WAL, commit never does.
        tx = store.begin()
        tx.create_node(2)
        store.wal._fh.flush()
        store.wal.close()  # process "dies" here

        recovered = PropertyGraphStore.recover(path)
        assert recovered.has_node(1)
        assert not recovered.has_node(2)
        recovered.close()

    def test_recover_preserves_rolled_back_state(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        store = PropertyGraphStore(StoreConfig(wal_path=path))
        with store.transaction() as tx:
            tx.create_node(1)
        tx = store.begin()
        tx.create_node(99)
        tx.rollback()
        store.wal.close()

        recovered = PropertyGraphStore.recover(path)
        assert recovered.has_node(1)
        assert not recovered.has_node(99)
        recovered.close()


class TestGiraphCannotMutate:
    def test_mutation_apis_raise(self):
        engine = GiraphEngine(3, [0], [1])
        with pytest.raises(BaselineError, match="cannot mutate"):
            engine.add_edge(1, 2)
        with pytest.raises(BaselineError, match="cannot mutate"):
            engine.remove_edge(0, 1)
