"""Graph views survive checkpoint/restore: specs, tables, refreshability."""

from __future__ import annotations

import json
import os

import pytest

from repro import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec, Vertexica
from repro.datasets import load_social_schema
from repro.errors import EngineError, GraphViewError
from repro.programs import PageRank


def social_view() -> GraphView:
    return GraphView(
        vertices=NodeSpec("users", key="id"),
        edges=[
            EdgeSpec(
                "follows", src="follower_id", dst="followee_id", weight="closeness"
            ),
            CoEdgeSpec("likes", member="user_id", via="post_id"),
        ],
    )


@pytest.fixture
def vx() -> Vertexica:
    vx = Vertexica()
    load_social_schema(
        vx.db, num_users=50, num_follows=250, num_likes=150, num_posts=20, seed=21
    )
    return vx


def checkpoint_dir(tmp_path) -> str:
    return str(tmp_path / "ckpt")


def published(directory: str) -> str:
    """The snapshot directory a checkpoint's ``LATEST`` names."""
    with open(os.path.join(directory, "LATEST"), encoding="utf-8") as fh:
        return os.path.join(directory, fh.read().strip())


def edit_manifest(directory: str, edit) -> None:
    path = os.path.join(published(directory), "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w") as fh:
        json.dump(manifest, fh)


class TestRoundTrip:
    def test_materialized_view_round_trips(self, vx, tmp_path):
        handle = vx.create_graph_view("sv", social_view())
        edges_before = vx.sql("SELECT src, dst, weight FROM sv_edge").rows()
        vx.checkpoint(checkpoint_dir(tmp_path))

        restored = Vertexica.restore(checkpoint_dir(tmp_path))
        back = restored.graph_view("sv")
        assert back.view == handle.view  # spec equality, field for field
        assert back.materialized
        # The materialized tables came back intact — no re-extraction ran.
        assert restored.sql("SELECT src, dst, weight FROM sv_edge").rows() == edges_before
        assert back.resolve().num_edges == len(edges_before)

    def test_virtual_view_round_trips_as_declaration(self, vx, tmp_path):
        vx.create_graph_view("vv", social_view(), materialized=False)
        vx.checkpoint(checkpoint_dir(tmp_path))
        restored = Vertexica.restore(checkpoint_dir(tmp_path))
        back = restored.graph_view("vv")
        assert not back.materialized
        assert not restored.db.has_table("vv_edge")  # nothing materialized
        restored.sql("INSERT INTO follows VALUES (0, 49, 1.0)")
        assert back.resolve().num_edges > 0  # re-extracts on demand

    def test_entry_with_a_delta_threshold_still_restores(self, vx, tmp_path):
        # Entries once carried a per-view refresh threshold; it is a
        # constant now, and an entry that still names one restores as is.
        handle = vx.create_graph_view("sv", social_view())
        directory = checkpoint_dir(tmp_path)
        vx.checkpoint(directory)

        def add_threshold(manifest):
            manifest["metadata"]["graph_views"][0]["delta_threshold"] = 0.4

        edit_manifest(directory, add_threshold)
        back = Vertexica.restore(directory).graph_view("sv")
        assert back.view == handle.view and back.materialized

    def test_repeated_checkpoints_keep_one_snapshot(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        directory = checkpoint_dir(tmp_path)
        vx.checkpoint(directory)
        vx.sql("INSERT INTO follows VALUES (4, 45, 1.5)")
        vx.graph_view("sv").refresh()
        vx.checkpoint(directory)
        assert sorted(os.listdir(directory)) == ["LATEST", os.path.basename(published(directory))]
        restored = Vertexica.restore(directory)
        assert restored.sql("SELECT COUNT(*) FROM follows").scalar() == (
            vx.sql("SELECT COUNT(*) FROM follows").scalar()
        )

    def test_unknown_view_still_unknown(self, vx, tmp_path):
        vx.checkpoint(checkpoint_dir(tmp_path))
        restored = Vertexica.restore(checkpoint_dir(tmp_path))
        with pytest.raises(GraphViewError, match="not defined"):
            restored.graph_view("nope")

    def test_last_refreshed_versions_persisted(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        expected = {
            t: vx.db.table(t).version for t in ("users", "follows", "likes")
        }
        vx.checkpoint(checkpoint_dir(tmp_path))
        restored = Vertexica.restore(checkpoint_dir(tmp_path))
        assert restored.graph_view("sv").base_table_versions() == expected


class TestPostRestoreRefresh:
    def test_refresh_works_and_reseeds_incremental(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        vx.checkpoint(checkpoint_dir(tmp_path))
        restored = Vertexica.restore(checkpoint_dir(tmp_path))
        back = restored.graph_view("sv")

        restored.sql("INSERT INTO follows VALUES (1, 48, 2.0)")
        before = back.resolve().num_edges
        back.refresh()
        # Change capture does not survive a restart: first refresh is full.
        assert back.last_extraction.mode == "full"
        assert back.resolve().num_edges == before + 1

        restored.sql("INSERT INTO follows VALUES (2, 47, 2.0)")
        back.refresh()  # ...but it reseeded the delta state
        assert back.last_extraction.mode == "incremental"
        assert back.last_extraction.delta_rows == 1

    def test_refresh_ddl_works_post_restore(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        vx.checkpoint(checkpoint_dir(tmp_path))
        restored = Vertexica.restore(checkpoint_dir(tmp_path))
        restored.sql("INSERT INTO follows VALUES (3, 46, 1.0)")
        result = restored.sql("REFRESH GRAPH VIEW sv")
        assert result.row_count == restored.graph_view("sv").resolve().num_edges

    def test_restored_view_runs_programs(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        expected = vx.run("sv", PageRank(iterations=4)).values
        vx.checkpoint(checkpoint_dir(tmp_path))
        restored = Vertexica.restore(checkpoint_dir(tmp_path))
        assert restored.run("sv", PageRank(iterations=4)).values == expected

    def test_drop_after_restore_removes_tables(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        vx.checkpoint(checkpoint_dir(tmp_path))
        restored = Vertexica.restore(checkpoint_dir(tmp_path))
        restored.sql("DROP GRAPH VIEW sv")
        assert not restored.db.has_table("sv_edge")
        assert not restored.db.has_table("sv_node")


class TestTornCheckpoints:
    def test_missing_manifest_detected(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        directory = checkpoint_dir(tmp_path)
        vx.checkpoint(directory)
        os.remove(os.path.join(published(directory), "manifest.json"))
        with pytest.raises(EngineError, match="manifest"):
            Vertexica.restore(directory)

    def test_missing_table_file_detected_with_view_metadata(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        directory = checkpoint_dir(tmp_path)
        vx.checkpoint(directory)
        os.remove(os.path.join(published(directory), "sv_edge.cols"))
        with pytest.raises(EngineError, match="missing"):
            Vertexica.restore(directory)

    def test_corrupt_view_metadata_fails_loudly(self, vx, tmp_path):
        vx.create_graph_view("sv", social_view())
        directory = checkpoint_dir(tmp_path)
        vx.checkpoint(directory)

        def corrupt(manifest):
            manifest["metadata"]["graph_views"][0]["view"]["edges"][0]["kind"] = "wat"

        edit_manifest(directory, corrupt)
        with pytest.raises(GraphViewError, match="unknown graph-view spec kind"):
            Vertexica.restore(directory)
