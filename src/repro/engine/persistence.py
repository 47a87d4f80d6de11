"""Checkpoint and recovery: the one snapshot writer and reader.

The paper motivates running graph analytics *inside* an RDBMS partly via
durability features ("checkpointing and recovery, fault tolerance").
Every checkpoint in the system goes through this module — a
:meth:`Database.checkpoint` of the whole catalog (and so
``Vertexica.checkpoint``) as well as the run checkpoints of
:mod:`repro.core.recovery` — in one explicit, pickle-free layout:

* ``<dir>/LATEST`` — names the one published snapshot directory;
* ``<dir>/ckpt-<n>/manifest.json`` — format 2: every table's schema,
  primary key, version and row count, plus the writer's ``metadata``
  dict (a higher layer's catalog or a run's facts ride along with the
  tables they describe);
* ``<dir>/ckpt-<n>/<table>.cols`` — one raw column stack per table: a
  values and a validity array per column, back to back in numpy's
  ``.npy`` encoding (VARCHAR values as JSON bytes, so no arbitrary code
  is ever deserialized).

Writing is two steps: :func:`write_snapshot` fills a snapshot directory,
then :func:`publish_snapshot` flips ``LATEST`` to it with an atomic
``os.replace`` and prunes every other snapshot directory.  A crash before
the flip leaves ``LATEST`` on the previous snapshot (the half-written
directory is unreferenced and the next read prunes it); a crash after it
leaves the new one — never a torn checkpoint that loads.
:func:`read_snapshot` follows ``LATEST`` and checks the format and every
table's row count.

Table files are not compressed: compressing costs far more time than it
saves in bytes (PageRank inputs of 70 K vertices / 700 K edges write in
0.010 s as 24.2 MB raw against 0.719 s as 3.1 MB zip-compressed).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engine.batch import RecordBatch
from repro.engine.catalog import Catalog
from repro.engine.column import Column
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Table
from repro.engine.types import VARCHAR, type_from_name
from repro.errors import EngineError

__all__ = [
    "Snapshot",
    "checkpoint_catalog",
    "restore_catalog",
    "read_checkpoint_metadata",
    "write_snapshot",
    "publish_snapshot",
    "read_snapshot",
    "write_table_file",
    "read_table_file",
]

_LATEST = "LATEST"
#: every snapshot directory's name starts with this (pruning keys on it)
_SNAPSHOT_PREFIX = "ckpt-"
_MANIFEST = "manifest.json"
_TABLE_SUFFIX = ".cols"
_FORMAT_VERSION = 2


@dataclass(frozen=True)
class Snapshot:
    """A published snapshot, read back: its directory name, its tables
    (keyed as written, versions restored) and its ``metadata``."""

    name: str
    tables: dict[str, Table]
    metadata: dict[str, Any]


# ---------------------------------------------------------------------------
# Catalog checkpoints (Database.checkpoint / restore)
# ---------------------------------------------------------------------------
def checkpoint_catalog(
    catalog: Catalog, directory: str, metadata: dict[str, Any] | None = None
) -> None:
    """Write every table in ``catalog`` as a fresh snapshot of
    ``directory`` and publish it.

    ``metadata`` is persisted verbatim inside the manifest, so it shares
    the tables' torn-write guarantee: a higher layer's catalog — the
    graph-view registry — rides along with the tables it describes.
    """
    current = _read_pointer(directory)
    sequence = int(current.removeprefix(_SNAPSHOT_PREFIX)) + 1 if current else 0
    tables = {table_name: catalog.get(table_name) for table_name in catalog.table_names()}
    publish_snapshot(directory, write_snapshot(directory, sequence, tables, metadata))


def restore_catalog(directory: str) -> Catalog:
    """Rebuild a catalog from the snapshot ``directory``'s ``LATEST`` names.

    Raises:
        EngineError: nothing published, or a garbled manifest or table file.
    """
    snapshot = read_snapshot(directory)
    if snapshot is None:
        raise EngineError(f"no checkpoint manifest in {directory!r}: no {_LATEST} pointer")
    catalog = Catalog()
    for table in snapshot.tables.values():
        catalog.register(table)
    return catalog


def read_checkpoint_metadata(directory: str) -> dict[str, Any]:
    """The ``metadata`` dict the published snapshot was written with
    (``{}`` when none was supplied).

    Raises:
        EngineError: nothing published, or a missing or unsupported manifest.
    """
    name = _read_pointer(directory)
    if name is None:
        raise EngineError(f"no checkpoint manifest in {directory!r}: no {_LATEST} pointer")
    return _read_manifest(os.path.join(directory, name))["metadata"]


# ---------------------------------------------------------------------------
# Snapshots: write, publish, read
# ---------------------------------------------------------------------------
def write_snapshot(
    directory: str,
    sequence: int,
    tables: dict[str, Table],
    metadata: dict[str, Any] | None = None,
) -> str:
    """Write ``tables`` (file key -> table) and a manifest into the
    snapshot directory ``ckpt-<sequence>`` of ``directory``, replacing a
    stale directory of that name; returns the name.  Nothing reads it
    until :func:`publish_snapshot` names it."""
    name = f"{_SNAPSHOT_PREFIX}{sequence:06d}"
    path = os.path.join(directory, name)
    if os.path.isdir(path):  # an unpublished leftover of an interrupted write
        shutil.rmtree(path)
    os.makedirs(path)
    manifest: dict[str, Any] = {
        "format": _FORMAT_VERSION,
        "tables": {},
        "metadata": metadata or {},
    }
    for key, table in tables.items():
        write_table_file(table, os.path.join(path, key + _TABLE_SUFFIX))
        manifest["tables"][key] = {
            "columns": [
                {"name": c.name, "type": c.dtype.name, "nullable": c.nullable}
                for c in table.schema
            ],
            "primary_key": table.primary_key,
            "version": table.version,
            "rows": table.num_rows,
        }
    with open(os.path.join(path, _MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return name


def publish_snapshot(directory: str, name: str) -> None:
    """Make ``<directory>/<name>`` the checkpoint: flip ``LATEST`` to it
    atomically, then prune every other snapshot directory (after the
    flip, so a crash anywhere here leaves a loadable state behind)."""
    pointer_tmp = os.path.join(directory, f"{_LATEST}.tmp")
    with open(pointer_tmp, "w", encoding="utf-8") as fh:
        fh.write(name)
    os.replace(pointer_tmp, os.path.join(directory, _LATEST))
    _prune(directory, keep=name)


def read_snapshot(directory: str) -> Snapshot | None:
    """The snapshot ``LATEST`` names, or ``None`` when nothing was ever
    published (fresh directory, or only interrupted writes).  Prunes
    every unreferenced snapshot directory once the read succeeds.

    Raises:
        EngineError: missing, garbled or unsupported manifest, or a
            missing, truncated or short table file.
    """
    name = _read_pointer(directory)
    if name is None:
        _prune(directory, keep=None)
        return None
    path = os.path.join(directory, name)
    manifest = _read_manifest(path)
    tables: dict[str, Table] = {}
    for key, meta in manifest["tables"].items():
        schema = Schema(
            ColumnDef(c["name"], type_from_name(c["type"]), nullable=c["nullable"])
            for c in meta["columns"]
        )
        batch = read_table_file(os.path.join(path, key + _TABLE_SUFFIX), schema, meta["rows"])
        table = Table(key, schema, batch, primary_key=meta["primary_key"])
        table.restore(table.data(), meta["version"])
        tables[key] = table
    _prune(directory, keep=name)
    return Snapshot(name=name, tables=tables, metadata=manifest["metadata"])


def _read_pointer(directory: str) -> str | None:
    try:
        with open(os.path.join(directory, _LATEST), encoding="utf-8") as fh:
            return fh.read().strip()
    except FileNotFoundError:
        return None


def _read_manifest(path: str) -> dict[str, Any]:
    manifest_path = os.path.join(path, _MANIFEST)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise EngineError(
            f"checkpoint manifest {manifest_path!r} is missing or unreadable ({exc})"
        ) from exc
    if manifest.get("format") != _FORMAT_VERSION:
        raise EngineError(f"unsupported checkpoint format: {manifest.get('format')!r}")
    return manifest


def _prune(directory: str, keep: str | None) -> None:
    """Drop every snapshot directory except ``keep`` — superseded
    snapshots and interrupted writes alike."""
    if not os.path.isdir(directory):
        return
    for entry in os.listdir(directory):
        if entry.startswith(_SNAPSHOT_PREFIX) and entry != keep:
            shutil.rmtree(os.path.join(directory, entry), ignore_errors=True)


# ---------------------------------------------------------------------------
# Table files
# ---------------------------------------------------------------------------
def write_table_file(table: Table, path: str) -> None:
    """Write one table's data as a raw column stack: a values + validity
    array per schema column, in schema order (VARCHAR as JSON bytes —
    never pickled)."""
    with open(path, "wb") as fh:
        for coldef, column in zip(table.schema, table.data().columns):
            if coldef.dtype is VARCHAR:
                payload = json.dumps(column.to_list()).encode("utf-8")
                values = np.frombuffer(payload, dtype=np.uint8)
            else:
                values = column.values
            for array in (values, column.valid):
                np.lib.format.write_array(
                    fh, np.ascontiguousarray(array), allow_pickle=False
                )


def _decode_column(coldef: ColumnDef, raw: np.ndarray, valid: np.ndarray) -> Column:
    if coldef.dtype is VARCHAR:
        items = json.loads(raw.tobytes().decode("utf-8"))
        values = np.empty(len(items), dtype=object)
        values[:] = ["" if item is None else item for item in items]
        return Column(VARCHAR, values, valid)
    return Column(coldef.dtype, raw.astype(coldef.dtype.numpy_dtype), valid)


def read_table_file(path: str, schema: Schema, expected_rows: int) -> RecordBatch:
    """Read a :func:`write_table_file` file back into a batch.

    Raises:
        EngineError: missing or truncated file, or row-count mismatch vs
            the manifest.
    """
    if not os.path.exists(path):
        raise EngineError(f"checkpoint table file missing: {path!r}")
    columns: list[Column] = []
    try:
        with open(path, "rb") as fh:
            for coldef in schema:
                raw = np.lib.format.read_array(fh, allow_pickle=False)
                valid = np.lib.format.read_array(fh, allow_pickle=False)
                columns.append(_decode_column(coldef, raw, valid))
    except ValueError as exc:
        raise EngineError(f"checkpoint table file truncated: {path!r} ({exc})") from exc
    batch = RecordBatch(schema, columns)
    if batch.num_rows != expected_rows:
        raise EngineError(
            f"checkpoint row-count mismatch for {path!r}: "
            f"manifest says {expected_rows}, file has {batch.num_rows}"
        )
    return batch
