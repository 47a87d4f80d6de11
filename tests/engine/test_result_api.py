"""Tests for the Result boundary object and parallel-executor edges."""

import pytest

from repro.engine import Database
from repro.engine.parallel import ProcessExecutor, serial_executor
from repro.errors import ExecutionError


class TestResult:
    def test_query_result_accessors(self, sample_table):
        result = sample_table.execute("SELECT id, name FROM people ORDER BY id LIMIT 2")
        assert result.is_query
        assert result.row_count == 2
        assert len(result) == 2
        assert list(result) == [(1, "alice"), (2, "bob")]
        assert result.column("name") == ["alice", "bob"]
        assert result.to_dicts() == [
            {"id": 1, "name": "alice"},
            {"id": 2, "name": "bob"},
        ]
        assert result.schema.names() == ["id", "name"]

    def test_dml_result_has_no_rows(self, sample_table):
        result = sample_table.execute("DELETE FROM people WHERE id = 1")
        assert not result.is_query
        assert result.row_count == 1
        with pytest.raises(ExecutionError, match="did not produce rows"):
            result.rows()

    def test_scalar_requires_1x1(self, sample_table):
        with pytest.raises(ExecutionError, match="1x1"):
            sample_table.execute("SELECT id, name FROM people").scalar()
        with pytest.raises(ExecutionError, match="1x1"):
            sample_table.execute("SELECT id FROM people").scalar()

    def test_scalar_null(self, db):
        assert db.execute("SELECT NULL AND TRUE").scalar() is None

    def test_statements_counter(self, db):
        before = db.statements_executed
        db.execute("SELECT 1")
        db.execute_script("SELECT 1; SELECT 2")
        assert db.statements_executed == before + 3


def _tag_with_index(batch, index):
    """Module level, so a spawned worker process can unpickle it."""
    from repro.engine.batch import RecordBatch

    return RecordBatch.from_rows(batch.schema, [(index,)])


class TestParallelExecutors:
    def test_serial_preserves_order(self):
        from repro.engine.batch import RecordBatch
        from repro.engine.schema import ColumnDef, Schema
        from repro.engine.types import INTEGER

        schema = Schema([ColumnDef("x", INTEGER)])

        def fn(batch, index):
            return RecordBatch.from_rows(schema, [(index,)])

        tasks = [(RecordBatch.empty(schema), i) for i in (3, 1, 2)]
        out = serial_executor(fn, tasks)
        assert [b.to_rows()[0][0] for b in out] == [3, 1, 2]

    def test_process_count_clamped(self):
        executor = ProcessExecutor(0)  # clamps to 1, no crash, spawns nothing
        from repro.engine.batch import RecordBatch
        from repro.engine.schema import ColumnDef, Schema
        from repro.engine.types import INTEGER

        schema = Schema([ColumnDef("x", INTEGER)])
        out = executor(lambda b, i: b, [(RecordBatch.empty(schema), 0)])
        assert len(out) == 1
        assert executor.n_processes == 1 and executor._workers == []

    def test_process_pool_preserves_order(self):
        from repro.engine.batch import RecordBatch
        from repro.engine.schema import ColumnDef, Schema
        from repro.engine.types import INTEGER

        schema = Schema([ColumnDef("x", INTEGER)])
        tasks = [(RecordBatch.empty(schema), i) for i in (5, 3, 1, 4, 2)]
        with ProcessExecutor(2) as executor:
            out = executor(_tag_with_index, tasks)
        assert [b.to_rows()[0][0] for b in out] == [5, 3, 1, 4, 2]
        assert executor._workers == []
