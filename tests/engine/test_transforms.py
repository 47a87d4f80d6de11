"""Tests for transform (table) UDFs and stored procedures — the machinery
the Vertexica workers and coordinator are built on."""

import threading

import pytest

from repro.engine import Database
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import INTEGER
from repro.errors import UdfError


OUT_SCHEMA = Schema([ColumnDef("key", INTEGER), ColumnDef("total", INTEGER)])


def summing_transform(partition: RecordBatch, index: int) -> RecordBatch:
    """Sum the 'v' column per partition, tagged by first key seen."""
    keys = partition.column("k").to_list()
    values = partition.column("v").to_list()
    return RecordBatch(
        OUT_SCHEMA,
        [
            Column.from_values(INTEGER, [keys[0]]),
            Column.from_values(INTEGER, [sum(values)]),
        ],
    )


def per_key_transform(partition: RecordBatch, index: int) -> RecordBatch:
    """Sum the 'v' column of every key the partition holds."""
    totals: dict[int, int] = {}
    for key, value in zip(partition.column("k").to_list(), partition.column("v").to_list()):
        totals[key] = totals.get(key, 0) + value
    return RecordBatch(
        OUT_SCHEMA,
        [
            Column.from_values(INTEGER, list(totals)),
            Column.from_values(INTEGER, list(totals.values())),
        ],
    )


@pytest.fixture
def loaded(db: Database) -> Database:
    db.execute("CREATE TABLE data (k INTEGER, v INTEGER)")
    db.execute(
        "INSERT INTO data VALUES (0, 1), (0, 2), (1, 10), (1, 20), (2, 100)"
    )
    db.register_transform("summer", summing_transform, OUT_SCHEMA)
    return db


class TestTransforms:
    def test_single_partition(self, loaded):
        out = loaded.run_transform("summer", "SELECT k, v FROM data")
        assert out.num_rows == 1
        assert out.column("total").to_list() == [133]

    def test_partitioned_by_key(self, loaded):
        out = loaded.run_transform(
            "summer", "SELECT k, v FROM data",
            partition_by=("k",), n_partitions=3,
        )
        got = dict(zip(out.column("key").to_list(), out.column("total").to_list()))
        assert got == {0: 3, 1: 30, 2: 100}

    def test_partition_sorting(self, db):
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.execute("INSERT INTO t VALUES (0, 3), (0, 1), (0, 2)")
        seen = []

        def record_order(partition: RecordBatch, index: int) -> RecordBatch:
            seen.extend(partition.column("v").to_list())
            return RecordBatch.empty(OUT_SCHEMA)

        db.register_transform("rec", record_order, OUT_SCHEMA)
        db.run_transform("rec", "SELECT k, v FROM t", order_by=("v",))
        assert seen == [1, 2, 3]

    def test_empty_partitions_skipped(self, loaded):
        calls = []

        def counting(partition: RecordBatch, index: int) -> RecordBatch:
            calls.append(index)
            return RecordBatch.empty(OUT_SCHEMA)

        loaded.register_transform("counting", counting, OUT_SCHEMA)
        loaded.run_transform(
            "counting", "SELECT k, v FROM data", partition_by=("k",), n_partitions=16
        )
        assert len(calls) == 3  # only the 3 non-empty buckets

    def test_empty_input(self, loaded):
        out = loaded.run_transform("summer", "SELECT k, v FROM data WHERE k > 99")
        assert out.num_rows == 0

    def test_unknown_transform(self, db):
        with pytest.raises(UdfError, match="unknown transform"):
            db.run_transform("ghost", "SELECT 1")

    @pytest.mark.parametrize("n_partitions", [1, 2, 3, 7])
    def test_partition_count_keeps_each_key_in_one_bucket(self, loaded, n_partitions):
        loaded.register_transform("per_key", per_key_transform, OUT_SCHEMA)
        out = loaded.run_transform(
            "per_key", "SELECT k, v FROM data",
            partition_by=("k",), n_partitions=n_partitions,
        )
        assert sorted(zip(out.column("key").to_list(), out.column("total").to_list())) == [
            (0, 3), (1, 30), (2, 100)
        ]

    def test_partitions_run_in_bucket_order_on_the_calling_thread(self, loaded):
        calls = []

        def spy(partition: RecordBatch, index: int) -> RecordBatch:
            calls.append((index, threading.current_thread()))
            return RecordBatch.empty(OUT_SCHEMA)

        loaded.register_transform("spy", spy, OUT_SCHEMA)
        loaded.run_transform(
            "spy", "SELECT k, v FROM data", partition_by=("k",), n_partitions=8
        )
        indices = [index for index, _ in calls]
        assert len(indices) == 3 and indices == sorted(indices)
        assert all(thread is threading.current_thread() for _, thread in calls)


class TestStoredProcedures:
    def test_procedure_receives_db_and_args(self, db):
        def proc(database: Database, n: int) -> int:
            database.execute("CREATE TABLE IF NOT EXISTS log (x INTEGER)")
            database.execute("INSERT INTO log VALUES (?)", params=(n,))
            return database.execute("SELECT COUNT(*) FROM log").scalar()

        db.register_procedure("append_log", proc)
        assert db.call("append_log", 1) == 1
        assert db.call("append_log", 2) == 2

    def test_unknown_procedure(self, db):
        with pytest.raises(UdfError, match="unknown stored procedure"):
            db.call("ghost")

    def test_procedure_can_run_transforms(self, loaded):
        def proc(database: Database) -> int:
            out = database.run_transform("summer", "SELECT k, v FROM data")
            return out.column("total").to_list()[0]

        loaded.register_procedure("run_summer", proc)
        assert loaded.call("run_summer") == 133
