"""Tests for checkpoint / recovery."""

import json
import os

import pytest

from repro.engine import Database, persistence
from repro.errors import EngineError


class Killed(BaseException):
    """The process dying mid-call: no handler catches it."""


def published(directory: str) -> str:
    """The snapshot directory a checkpoint's ``LATEST`` names."""
    with open(os.path.join(directory, "LATEST"), encoding="utf-8") as fh:
        return os.path.join(directory, fh.read().strip())


class TestCheckpointRoundtrip:
    def test_roundtrip_preserves_data(self, sample_table, tmp_path):
        directory = str(tmp_path / "ckpt")
        sample_table.checkpoint(directory)
        restored = Database.restore(directory)
        assert restored.execute("SELECT COUNT(*) FROM people").scalar() == 5
        original = sample_table.execute("SELECT * FROM people ORDER BY id").rows()
        recovered = restored.execute("SELECT * FROM people ORDER BY id").rows()
        assert original == recovered

    def test_roundtrip_preserves_nulls_and_types(self, sample_table, tmp_path):
        directory = str(tmp_path / "ckpt")
        sample_table.checkpoint(directory)
        restored = Database.restore(directory)
        row = restored.execute("SELECT * FROM people WHERE id = 4").rows()[0]
        assert row == (4, "dave", None, 3.5)
        assert restored.execute("SELECT id FROM people WHERE score IS NULL").rows() == [(3,)]

    def test_roundtrip_preserves_constraints(self, sample_table, tmp_path):
        directory = str(tmp_path / "ckpt")
        sample_table.checkpoint(directory)
        restored = Database.restore(directory)
        table = restored.table("people")
        assert table.primary_key == "id"
        with pytest.raises(Exception):
            restored.execute("INSERT INTO people VALUES (1, 'dup', 1, 1.0)")

    def test_roundtrip_preserves_versions(self, sample_table, tmp_path):
        directory = str(tmp_path / "ckpt")
        version = sample_table.table("people").version
        sample_table.checkpoint(directory)
        restored = Database.restore(directory)
        assert restored.table("people").version == version

    def test_multiple_tables(self, db, tmp_path):
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (y VARCHAR)")
        db.execute("INSERT INTO a VALUES (1)")
        db.execute("INSERT INTO b VALUES ('hello')")
        directory = str(tmp_path / "ckpt")
        db.checkpoint(directory)
        restored = Database.restore(directory)
        assert restored.table_names() == ["a", "b"]

    def test_empty_table_roundtrip(self, db, tmp_path):
        db.execute("CREATE TABLE empty (x INTEGER, s VARCHAR)")
        directory = str(tmp_path / "ckpt")
        db.checkpoint(directory)
        restored = Database.restore(directory)
        assert restored.execute("SELECT COUNT(*) FROM empty").scalar() == 0


class TestFailureModes:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(EngineError, match="manifest"):
            Database.restore(str(tmp_path / "nothing"))

    def test_missing_table_file(self, sample_table, tmp_path):
        directory = str(tmp_path / "ckpt")
        sample_table.checkpoint(directory)
        os.unlink(os.path.join(published(directory), "people.cols"))
        with pytest.raises(EngineError, match="missing"):
            Database.restore(directory)

    def test_row_count_mismatch_detected(self, sample_table, tmp_path):
        directory = str(tmp_path / "ckpt")
        sample_table.checkpoint(directory)
        manifest_path = os.path.join(published(directory), "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["tables"]["people"]["rows"] = 999
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(EngineError, match="row-count mismatch"):
            Database.restore(directory)

    def test_unsupported_format_version(self, sample_table, tmp_path):
        directory = str(tmp_path / "ckpt")
        sample_table.checkpoint(directory)
        manifest_path = os.path.join(published(directory), "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["format"] = 99
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(EngineError, match="format"):
            Database.restore(directory)

    def test_checkpoint_then_mutate_then_restore(self, sample_table, tmp_path):
        """Recovery returns to the checkpoint, not the later state."""
        directory = str(tmp_path / "ckpt")
        sample_table.checkpoint(directory)
        sample_table.execute("DELETE FROM people")
        restored = Database.restore(directory)
        assert restored.execute("SELECT COUNT(*) FROM people").scalar() == 5

    def test_interrupted_checkpoint_leaves_the_previous_one(self, db, tmp_path, monkeypatch):
        """A second checkpoint into the same directory that dies after its
        first table file restores both tables as the first one left them."""
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (y INTEGER)")
        db.execute("INSERT INTO a VALUES (1)")
        db.execute("INSERT INTO b VALUES (10)")
        directory = str(tmp_path / "ckpt")
        db.checkpoint(directory)
        versions = {name: db.table(name).version for name in ("a", "b")}
        db.execute("UPDATE a SET x = 2")
        db.execute("UPDATE b SET y = 20")

        real_write = persistence.write_table_file
        written = []

        def die_after_first(table, path):
            if written:
                raise Killed
            real_write(table, path)
            written.append(path)

        monkeypatch.setattr(persistence, "write_table_file", die_after_first)
        with pytest.raises(Killed):
            db.checkpoint(directory)
        monkeypatch.undo()
        assert len(written) == 1

        restored = Database.restore(directory)
        assert restored.execute("SELECT x FROM a").rows() == [(1,)]
        assert restored.execute("SELECT y FROM b").rows() == [(10,)]
        assert {name: restored.table(name).version for name in ("a", "b")} == versions
