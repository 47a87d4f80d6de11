"""Snapshot-isolated read views over pinned table versions.

A :class:`Snapshot` pins a consistent set of ``(uid, version, batch)``
bookmarks via :meth:`Database.pin_tables` — the same version/uid
contract change capture runs on (see :mod:`repro.engine.changelog`).
Because record batches are immutable and every mutation swaps pointers,
pinning copies nothing: analytics and graph extraction read a stable
snapshot while DML streams in on the writer path.

Two read styles, matching the two costs a reader may want to pay:

* **shadow database** (:meth:`Snapshot.reader`) — materialize detached
  copy-on-write :class:`~repro.engine.table.Table` handles over the
  pinned batches inside a private :class:`Database`.  Arbitrary SQL and
  whole Vertexica runs execute against it, fully isolated from the live
  writer; a fresh shadow is O(#tables), not O(rows).
* **version-checked handle** (:meth:`Snapshot.table`) — read *through*
  the live table but prove it still is the pinned ``(uid, version)``
  first, raising :class:`~repro.errors.SnapshotInvalid` loudly when the
  writer moved on (DML bumps the version; wholesale replace/truncate
  bump too; DROP + CREATE, rollback, and checkpoint restore change the
  uid), instead of silently serving a torn read.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.batch import RecordBatch
from repro.engine.database import Database, PinnedTable
from repro.errors import CatalogError, SnapshotInvalid

__all__ = ["Snapshot", "SnapshotTableHandle", "snapshot_key"]


def snapshot_key(pins: Sequence[PinnedTable]) -> tuple[tuple[str, int, int], ...]:
    """A hashable fingerprint of a pinned table set: sorted
    ``(name, uid, version)`` triples.  Equal keys imply bit-identical
    base data (the version/uid contract), which is what makes it safe
    to serve a cached result in place of recomputation."""
    return tuple(sorted((p.name, p.uid, p.version) for p in pins))


class SnapshotTableHandle:
    """Version-checked access to one pinned table (see module docstring)."""

    __slots__ = ("_db", "pin")

    def __init__(self, db: Database, pin: PinnedTable) -> None:
        self._db = db
        self.pin = pin

    @property
    def name(self) -> str:
        return self.pin.name

    @property
    def version(self) -> int:
        return self.pin.version

    def data(self) -> RecordBatch:
        """The pinned contents — always safe, never torn (the batch is
        immutable and references the data exactly as of the pin)."""
        return self.pin.batch

    def is_current(self) -> bool:
        """True while the live table still matches the pin."""
        try:
            with self._db.lock:
                table = self._db.catalog.get(self.pin.name)
                return table.uid == self.pin.uid and table.version == self.pin.version
        except CatalogError:
            return False

    def live_data(self) -> RecordBatch:
        """Read through the live table, proving it is still the pinned
        ``(uid, version)`` first.

        Raises:
            SnapshotInvalid: the table advanced, was wholesale-replaced,
                truncated, restored, or dropped since the pin.
        """
        with self._db.lock:
            try:
                table = self._db.catalog.get(self.pin.name)
            except CatalogError:
                raise SnapshotInvalid(
                    f"table {self.pin.name!r} was dropped after the snapshot "
                    f"was pinned at version {self.pin.version}"
                ) from None
            if table.uid != self.pin.uid:
                raise SnapshotInvalid(
                    f"table {self.pin.name!r} was replaced wholesale (dropped/"
                    f"recreated, restored, or rolled back) after the snapshot "
                    f"was pinned at version {self.pin.version}"
                )
            if table.version != self.pin.version:
                raise SnapshotInvalid(
                    f"table {self.pin.name!r} advanced from pinned version "
                    f"{self.pin.version} to {table.version}"
                )
            return table.data()


class Snapshot:
    """A consistent read view over a set of pinned tables."""

    def __init__(self, db: Database, pins: dict[str, PinnedTable]) -> None:
        self._db = db
        self.pins = pins

    @classmethod
    def pin(cls, db: Database, tables: Sequence[str] | None = None) -> "Snapshot":
        """Pin ``tables`` (all tables when ``None``) of ``db`` — a
        consistent cut taken under the engine lock.

        Raises:
            SnapshotInvalid: a requested table does not exist.
        """
        try:
            return cls(db, db.pin_tables(tables))
        except CatalogError as exc:
            raise SnapshotInvalid(f"cannot pin snapshot: {exc}") from exc

    # ------------------------------------------------------------------
    @property
    def versions(self) -> dict[str, int]:
        """Pinned version per table."""
        return {name: pin.version for name, pin in self.pins.items()}

    def key(self, tables: Sequence[str] | None = None) -> tuple:
        """Cache-key component for the pinned versions of ``tables``
        (default: every pinned table).  See :func:`snapshot_key`.

        Raises:
            SnapshotInvalid: a requested table is not part of this
                snapshot.
        """
        if tables is None:
            pins: Sequence[PinnedTable] = list(self.pins.values())
        else:
            pins = [self._pin_of(name) for name in tables]
        return snapshot_key(pins)

    def _pin_of(self, name: str) -> PinnedTable:
        pin = self.pins.get(name.lower())
        if pin is None:
            raise SnapshotInvalid(f"table {name!r} is not part of this snapshot")
        return pin

    def table(self, name: str) -> SnapshotTableHandle:
        """A version-checked handle on one pinned table."""
        return SnapshotTableHandle(self._db, self._pin_of(name))

    def validate(self, tables: Sequence[str] | None = None) -> None:
        """Prove the live database still matches the pins (all of them,
        or just ``tables``).

        Raises:
            SnapshotInvalid: some pinned table moved on.
        """
        names = list(self.pins) if tables is None else list(tables)
        for name in names:
            self.table(name).live_data()

    # ------------------------------------------------------------------
    def reader(self, tables: Sequence[str] | None = None) -> Database:
        """A private shadow :class:`Database` over the pinned batches.

        Contains copy-on-write table handles for ``tables`` (default:
        every pinned table) — zero data copies, fresh catalog.  The
        shadow is the *reader's own*: queries, graph extraction, and
        vertex-program runs against it never observe (or disturb) the
        live writer.  Each call builds a fresh shadow, so runs that
        mutate their vertex/message tables start from pristine pinned
        state every time.
        """
        names = list(self.pins) if tables is None else list(tables)
        return Database.from_pins([self._pin_of(name) for name in names])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Snapshot({len(self.pins)} tables pinned)"
