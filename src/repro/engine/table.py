"""Stored tables: named, constrained, versioned record batches.

A :class:`Table` owns the current :class:`~repro.engine.batch.RecordBatch`
for a name in the catalog plus its constraints (NOT NULL, PRIMARY KEY).
Mutations never modify batches in place — they produce a new batch and bump
the table's version counter.  That gives us three things the paper leans on:

* cheap transaction snapshots (copy the name->batch mapping, not the data);
* the "update vs replace" optimization — replacing a table is a pointer
  swap (:meth:`Table.replace_data`), in-place-style updates rebuild only
  the touched columns (:meth:`Table.update_rows`);
* a version counter that temporal analysis can hang snapshots off.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.engine.batch import RecordBatch
from repro.engine.changelog import ChangeLog, TableDelta, next_table_uid
from repro.engine.column import Column, concat_columns
from repro.engine.operators import unique_ints
from repro.engine.schema import Schema
from repro.errors import ConstraintError, TypeMismatchError

__all__ = ["Table"]


class Table:
    """A named stored table.

    Attributes:
        name: catalog name.
        schema: the declared schema (unqualified).
        primary_key: optional column name enforced unique + NOT NULL.
        version: bumped on every mutation; starts at 0.
        uid: process-unique identity — survives nothing, so derived state
            recorded against a dropped/recreated table never matches the
            replacement object (see :mod:`repro.engine.changelog`).
        changelog: row-delta capture for incremental view maintenance.
        derived: one slot for state a consumer derives from this version
            of the contents and wants to keep until they change (the shard
            plane keeps its partitioned topology here).  Every mutation and
            every genuine :meth:`restore` clears it, and it is freed with
            the table.
    """

    __slots__ = (
        "name", "schema", "primary_key", "version", "uid", "changelog", "derived", "_batch"
    )

    def __init__(
        self,
        name: str,
        schema: Schema,
        batch: RecordBatch | None = None,
        primary_key: str | None = None,
    ) -> None:
        self.name = name
        self.schema = schema.unqualified()
        self.primary_key = primary_key
        self.version = 0
        self.uid = next_table_uid()
        self.changelog = ChangeLog()
        self.derived: Any = None
        if batch is None:
            batch = RecordBatch.empty(self.schema)
        self._batch = batch.with_schema(self.schema)
        if primary_key is not None and primary_key not in schema.names():
            raise ConstraintError(
                f"primary key column {primary_key!r} not in table {name!r}"
            )
        self._check_constraints(self._batch)

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Current row count."""
        return self._batch.num_rows

    def data(self) -> RecordBatch:
        """The current contents.  Treat as immutable."""
        return self._batch

    def snapshot(self) -> RecordBatch:
        """Alias of :meth:`data` that reads better at transaction call
        sites; batches are immutable so no copy is needed."""
        return self._batch

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={self.num_rows}, version={self.version})"

    # ------------------------------------------------------------------
    # Constraint checking
    # ------------------------------------------------------------------
    def _check_constraints(self, batch: RecordBatch) -> None:
        for coldef, column in zip(self.schema, batch.columns):
            if not coldef.nullable and column.has_nulls():
                raise ConstraintError(
                    f"NULL in NOT NULL column {self.name}.{coldef.name}"
                )
        if self.primary_key is not None:
            column = batch.column(self.primary_key)
            if column.has_nulls():
                raise ConstraintError(
                    f"NULL in primary key {self.name}.{self.primary_key}"
                )
            values = column.values
            distinct = (
                unique_ints(values) if values.dtype.kind in "iu" else np.unique(values)
            )
            if len(values) != len(distinct):
                raise ConstraintError(
                    f"duplicate value in primary key {self.name}.{self.primary_key}"
                )

    # ------------------------------------------------------------------
    # Mutations (each produces a fresh batch and bumps the version)
    # ------------------------------------------------------------------
    def _bump_version(self) -> None:
        """Every mutation's version bump: derived state describes the old
        contents, so it goes with them."""
        self.version += 1
        self.derived = None

    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append Python row tuples; returns the number inserted."""
        new = RecordBatch.from_rows(self.schema, rows)
        return self.insert_batch(new)

    def insert_batch(self, batch: RecordBatch) -> int:
        """Append a record batch (types must match the table schema)."""
        if not self.schema.union_compatible_with(batch.schema):
            raise TypeMismatchError(
                f"insert into {self.name!r}: incompatible batch schema"
            )
        normalized = batch.with_schema(self.schema)
        merged = RecordBatch.concat([self._batch, normalized])
        self._check_constraints(merged)
        self._batch = merged
        self._bump_version()
        self.changelog.record(self.version, inserted=normalized)
        return batch.num_rows

    def delete_rows(self, mask: np.ndarray) -> int:
        """Delete rows where ``mask`` is True; returns the number deleted."""
        if len(mask) != self.num_rows:
            raise TypeMismatchError("delete mask length mismatch")
        deleted = int(np.count_nonzero(mask))
        if deleted:
            # Materializing the removed rows is only worth it when some
            # consumer armed change capture on this table.
            removed = self._batch.filter(mask) if self.changelog.enabled else None
            self._batch = self._batch.filter(~mask)
            self._bump_version()
            self.changelog.record(self.version, deleted=removed)
        return deleted

    def update_rows(
        self,
        mask: np.ndarray,
        assignments: dict[str, Callable[[RecordBatch], Column]],
    ) -> int:
        """In-place-style update: for rows where ``mask`` is True, replace
        each assigned column with values computed *over the full batch* by
        the given builder (only masked positions are taken from it).

        This is the engine's "Update" path from the paper's Update-vs-Replace
        optimization — it rewrites only the touched columns, merging old
        and new values position by position.  SQL ``UPDATE`` runs through
        it, and so does the SQL plane's per-superstep vertex update, which
        scatters all staged rows in one call: however many rows change,
        one call is one version bump, one changelog record and one
        constraint check.

        Returns the number of rows updated.
        """
        if len(mask) != self.num_rows:
            raise TypeMismatchError("update mask length mismatch")
        touched = int(np.count_nonzero(mask))
        if touched == 0:
            return 0
        new_columns = list(self._batch.columns)
        for name, builder in assignments.items():
            index = self.schema.index_of(name)
            fresh = builder(self._batch)
            if fresh.dtype is not self.schema[index].dtype:
                raise TypeMismatchError(
                    f"update of {self.name}.{name}: type mismatch "
                    f"({fresh.dtype.name} vs {self.schema[index].dtype.name})"
                )
            old = new_columns[index]
            values = old.values.copy()
            valid = old.valid.copy()
            values[mask] = fresh.values[mask]
            valid[mask] = fresh.valid[mask]
            new_columns[index] = Column(old.dtype, values, valid)
        candidate = RecordBatch(self._batch.schema, new_columns)
        self._check_constraints(candidate)
        before = self._batch
        self._batch = candidate
        self._bump_version()
        if self.changelog.enabled:
            # An in-place update is delete-old-rows + insert-new-rows to
            # any delta consumer.
            self.changelog.record(
                self.version,
                inserted=candidate.filter(mask),
                deleted=before.filter(mask),
            )
        return touched

    def replace_data(self, batch: RecordBatch) -> None:
        """The "Replace" path: swap in an entirely new batch (constraints
        re-checked).  This models Vertexica's create-new-table-and-swap
        trick — O(1) beyond building the batch itself."""
        if not self.schema.union_compatible_with(batch.schema):
            raise TypeMismatchError(
                f"replace of {self.name!r}: incompatible batch schema"
            )
        normalized = batch.with_schema(self.schema)
        self._check_constraints(normalized)
        self._batch = normalized
        self._bump_version()
        # Wholesale swap: no row diff is computed, the delta window resets.
        self.changelog.reset(self.version)

    def truncate(self) -> None:
        """Remove all rows."""
        self._batch = RecordBatch.empty(self.schema)
        self._bump_version()
        self.changelog.reset(self.version)

    # ------------------------------------------------------------------
    # Change capture
    # ------------------------------------------------------------------
    def changes_since(self, version: int) -> TableDelta | None:
        """Row deltas between ``version`` and the current version, or
        ``None`` when the window is no longer reconstructable (wholesale
        swap, rollback, eviction, or a rewound/foreign version)."""
        return self.changelog.changes_since(version, self.version, self.schema)

    # ------------------------------------------------------------------
    # Restore (used by transactions / checkpoint recovery)
    # ------------------------------------------------------------------
    def restore(self, batch: RecordBatch, version: int) -> None:
        """Reset contents and version — only transactions and recovery call
        this; it bypasses the version bump on purpose (and resets change
        capture: a rewind cannot be expressed as a forward delta).  Tables
        that were not actually touched since the snapshot keep their delta
        window — rollback of an unrelated transaction must not force full
        recomputation of every derived view.

        A genuine rewind also assigns a fresh :attr:`uid`: version numbers
        repeat after a rollback (the rewound version will be re-bumped by
        different mutations), so bookmarks taken against the old lineage
        must stop matching instead of silently reading the wrong delta."""
        if batch is self._batch and version == self.version:
            return
        self._batch = batch
        self.version = version
        self.uid = next_table_uid()
        self.derived = None
        self.changelog.reset(version)
