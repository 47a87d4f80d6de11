"""Tests for stored tables: constraints, mutations, versioning."""

import numpy as np
import pytest

from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Table
from repro.engine.types import FLOAT, INTEGER, VARCHAR
from repro.errors import ConstraintError, TypeMismatchError


def make_table(**kwargs) -> Table:
    schema = Schema(
        [
            ColumnDef("id", INTEGER, nullable=False),
            ColumnDef("v", FLOAT),
        ]
    )
    return Table("t", schema, **kwargs)


class TestConstraints:
    def test_not_null_enforced_on_insert(self):
        table = make_table()
        with pytest.raises(ConstraintError, match="NOT NULL"):
            table.insert_rows([(None, 1.0)])

    def test_primary_key_uniqueness(self):
        table = make_table(primary_key="id")
        table.insert_rows([(1, 1.0), (2, 2.0)])
        with pytest.raises(ConstraintError, match="duplicate"):
            table.insert_rows([(2, 9.0)])

    def test_primary_key_must_exist(self):
        schema = Schema([ColumnDef("id", INTEGER)])
        with pytest.raises(ConstraintError):
            Table("t", schema, primary_key="nope")


class TestMutations:
    def test_insert_bumps_version(self):
        table = make_table()
        v0 = table.version
        table.insert_rows([(1, 1.0)])
        assert table.version == v0 + 1
        assert table.num_rows == 1

    def test_delete_rows(self):
        table = make_table()
        table.insert_rows([(1, 1.0), (2, 2.0), (3, 3.0)])
        deleted = table.delete_rows(np.array([True, False, True]))
        assert deleted == 2
        assert [r[0] for r in table.data().to_rows()] == [2]

    def test_delete_nothing_does_not_bump_version(self):
        table = make_table()
        table.insert_rows([(1, 1.0)])
        version = table.version
        assert table.delete_rows(np.array([False])) == 0
        assert table.version == version

    def test_update_rows_masked(self):
        table = make_table()
        table.insert_rows([(1, 1.0), (2, 2.0)])
        touched = table.update_rows(
            np.array([False, True]),
            {"v": lambda batch: Column.constant(FLOAT, 99.0, batch.num_rows)},
        )
        assert touched == 1
        assert table.data().column("v").to_list() == [1.0, 99.0]

    def test_update_type_mismatch(self):
        table = make_table()
        table.insert_rows([(1, 1.0)])
        with pytest.raises(TypeMismatchError):
            table.update_rows(
                np.array([True]),
                {"v": lambda batch: Column.constant(VARCHAR, "x", batch.num_rows)},
            )

    def test_replace_data_swaps_batch(self):
        table = make_table()
        table.insert_rows([(1, 1.0)])
        fresh = RecordBatch.from_rows(table.schema, [(7, 7.0), (8, 8.0)])
        table.replace_data(fresh)
        assert table.num_rows == 2

    def test_replace_checks_constraints(self):
        table = make_table(primary_key="id")
        table.insert_rows([(1, 1.0)])
        bad = RecordBatch.from_rows(table.schema, [(5, 1.0), (5, 2.0)])
        with pytest.raises(ConstraintError):
            table.replace_data(bad)

    def test_truncate(self):
        table = make_table()
        table.insert_rows([(1, 1.0)])
        table.truncate()
        assert table.num_rows == 0

    def test_restore_resets_version(self):
        table = make_table()
        table.insert_rows([(1, 1.0)])
        snapshot = table.snapshot()
        version = table.version
        table.insert_rows([(2, 2.0)])
        table.restore(snapshot, version)
        assert table.num_rows == 1
        assert table.version == version


class TestDerivedSlot:
    """State derived from one version of a table goes with that version."""

    MUTATIONS = {
        "insert": lambda t: t.insert_rows([(9, 9.0)]),
        "delete": lambda t: t.delete_rows(np.array([True, False])),
        "update": lambda t: t.update_rows(
            np.array([False, True]),
            {"v": lambda batch: Column.constant(FLOAT, 0.5, batch.num_rows)},
        ),
        "replace": lambda t: t.replace_data(RecordBatch.from_rows(t.schema, [(3, 3.0)])),
        "truncate": lambda t: t.truncate(),
        "restore": lambda t: t.restore(RecordBatch.from_rows(t.schema, [(4, 4.0)]), 0),
    }

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
    def test_every_mutation_clears_it(self, mutate):
        table = make_table()
        table.insert_rows([(1, 1.0), (2, 2.0)])
        table.derived = derived = object()
        mutate(table)
        assert table.derived is None and derived is not None

    def test_what_changes_nothing_keeps_it(self):
        table = make_table()
        table.insert_rows([(1, 1.0)])
        table.derived = derived = object()
        assert table.delete_rows(np.array([False])) == 0
        assert table.update_rows(np.array([False]), {}) == 0
        table.restore(table.data(), table.version)  # a no-op rollback
        assert table.derived is derived
