"""Parallel spec lowering and co-occurrence expansion modes.

The contract under test: every executor (serial / threads / processes)
and every exact co-occurrence lowering (group-by expansion vs SQL
self-join) produces **bit-identical** ``{name}_edge`` / ``{name}_node``
tables; the capped mode is openly lossy and must say so in its stats.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import Vertexica, VertexicaConfig
from repro.datasets.relational import load_social_schema
from repro.errors import GraphViewError
from repro.graphview import (
    CoEdgeSpec,
    EdgeSpec,
    ExtractionOptions,
    GraphView,
    NodeSpec,
    expand_co_occurrence,
)
from repro.graphview import lowering
from repro.programs import PageRank


def social(vx: Vertexica, **overrides):
    scale = dict(num_users=120, num_follows=600, num_likes=900,
                 num_posts=10, likes_zipf=2.0)
    scale.update(overrides)
    return load_social_schema(vx.db, **scale)


def full_view(schema) -> GraphView:
    """All five spec kinds in one declaration."""
    return GraphView(
        vertices=NodeSpec(schema.users_table, key="id", where="karma > 1.0"),
        edges=[
            EdgeSpec(schema.follows_table, src="follower_id", dst="followee_id",
                     weight="closeness", where="closeness > 0.5"),
            EdgeSpec(schema.follows_table, src="follower_id", dst="followee_id",
                     directed=False),
            CoEdgeSpec(schema.likes_table, member="user_id", via="post_id"),
            CoEdgeSpec(schema.likes_table, member="user_id", via="post_id",
                       weight="COUNT(*) * 2", where="user_id < 60"),
        ],
    )


def graph_tables(vx: Vertexica, name: str):
    edges = vx.db.query_batch(f"SELECT src, dst, weight FROM {name}_edge")
    nodes = vx.db.query_batch(f"SELECT id FROM {name}_node")
    return {
        "src": edges.column("src").values,
        "dst": edges.column("dst").values,
        "weight": edges.column("weight").values,
        "id": nodes.column("id").values,
    }


def assert_tables_identical(a: dict, b: dict) -> None:
    for key in ("src", "dst", "weight", "id"):
        assert a[key].dtype == b[key].dtype, key
        assert np.array_equal(a[key], b[key]), f"{key} differs"


class TestExecutorParity:
    @pytest.mark.parametrize(
        "options",
        [
            ExtractionOptions(executor="threads", n_workers=4, slice_min_rows=50),
            ExtractionOptions(executor="threads", n_workers=2, slice_min_rows=10_000),
            ExtractionOptions(executor="processes", n_workers=2, slice_min_rows=200),
        ],
        ids=["threads-sliced", "threads-unsliced", "processes"],
    )
    def test_bit_identical_to_serial(self, options):
        vx = Vertexica()
        schema = social(vx)
        view = full_view(schema)
        vx.create_graph_view(
            "base", view, extraction=ExtractionOptions(n_workers=1)
        )
        vx.create_graph_view("par", view, extraction=options)
        assert_tables_identical(
            graph_tables(vx, "base"), graph_tables(vx, "par")
        )

    def test_process_lowering_leases_the_session_pool(self):
        """Process lowering runs on the session's pool, the one its runs
        use: no second spawn, and the same bytes as serial lowering."""

        def worker_pids() -> set[int]:
            return {child.pid for child in multiprocessing.active_children()}

        config = VertexicaConfig(data_plane="shards", executor="processes", n_workers=2)
        with Vertexica(config=config) as vx:
            view = full_view(social(vx))
            vx.create_graph_view("base", view, extraction=ExtractionOptions(n_workers=1))
            handle = vx.create_graph_view(
                "par", view,
                extraction=ExtractionOptions(executor="processes", n_workers=2, slice_min_rows=200),
            )
            pids = worker_pids()
            assert len(pids) == 2
            vx.run(handle, PageRank(iterations=3))
            handle.refresh(incremental=False)
            assert worker_pids() == pids
            assert_tables_identical(graph_tables(vx, "base"), graph_tables(vx, "par"))
        assert multiprocessing.active_children() == []

    def test_sliced_scan_fans_out(self):
        vx = Vertexica()
        schema = social(vx)
        options = ExtractionOptions(
            executor="threads", n_workers=4, slice_min_rows=50
        )
        handle = vx.create_graph_view(
            "fan", full_view(schema), extraction=options
        )
        stats = handle.last_extraction
        assert stats.parallelism == 4
        # Slicing split at least one base-table scan into multiple queries:
        # 6 logical jobs (1 node + 1 directed + 2 undirected + 1 side +
        # 1 self-join) must grow.
        assert stats.num_queries > 6
        assert stats.lower_seconds >= 0.0 and stats.load_seconds >= 0.0
        assert "workers=4" in stats.summary()


class TestCoOccurrenceModes:
    def test_exact_expansion_matches_selfjoin(self):
        vx = Vertexica()
        schema = social(vx)
        view = GraphView(
            edges=CoEdgeSpec(schema.likes_table, member="user_id", via="post_id")
        )
        vx.create_graph_view(
            "sj", view, extraction=ExtractionOptions(co_mode="selfjoin")
        )
        vx.create_graph_view(
            "ex", view, extraction=ExtractionOptions(co_mode="exact")
        )
        assert_tables_identical(graph_tables(vx, "sj"), graph_tables(vx, "ex"))

    def test_streamed_compaction_is_lossless(self, monkeypatch):
        # Force the pair buffer to flush every 64 pairs so the streamed
        # merge path runs many times over the skewed groups.
        monkeypatch.setattr(lowering, "_EXPANSION_FLUSH_PAIRS", 64)
        vx = Vertexica()
        schema = social(vx)
        view = GraphView(
            edges=CoEdgeSpec(schema.likes_table, member="user_id", via="post_id")
        )
        vx.create_graph_view(
            "sj", view, extraction=ExtractionOptions(co_mode="selfjoin")
        )
        vx.create_graph_view(
            "ex", view, extraction=ExtractionOptions(co_mode="exact")
        )
        assert_tables_identical(graph_tables(vx, "sj"), graph_tables(vx, "ex"))

    def test_custom_weight_always_takes_selfjoin(self):
        # Only COUNT(*) decomposes per via group; a custom weight must give
        # the same answer whatever co_mode asks for.
        vx = Vertexica()
        schema = social(vx)
        view = GraphView(
            edges=CoEdgeSpec(schema.likes_table, member="user_id", via="post_id",
                             weight="COUNT(*) * 2")
        )
        vx.create_graph_view(
            "sj", view, extraction=ExtractionOptions(co_mode="selfjoin")
        )
        vx.create_graph_view(
            "ex", view, extraction=ExtractionOptions(co_mode="exact")
        )
        assert_tables_identical(graph_tables(vx, "sj"), graph_tables(vx, "ex"))

    def test_capped_truncates_and_reports(self):
        vx = Vertexica()
        schema = social(vx)
        view = GraphView(
            edges=CoEdgeSpec(schema.likes_table, member="user_id", via="post_id")
        )
        exact = vx.create_graph_view(
            "ex", view, extraction=ExtractionOptions(co_mode="exact")
        )
        capped = vx.create_graph_view(
            "cap", view,
            extraction=ExtractionOptions(co_mode="capped", co_cap=4),
        )
        stats = capped.last_extraction
        assert stats.truncated_groups > 0
        assert stats.num_edges < exact.last_extraction.num_edges
        assert f"truncated_groups={stats.truncated_groups}" in stats.summary()
        # Surviving members are each group's top-4 by like count, so every
        # capped pair must exist in the exact graph with weight >= capped.
        ex, cap = graph_tables(vx, "ex"), graph_tables(vx, "cap")
        exact_pairs = {
            (s, d): w for s, d, w in zip(ex["src"], ex["dst"], ex["weight"])
        }
        for s, d, w in zip(cap["src"], cap["dst"], cap["weight"]):
            assert exact_pairs[(s, d)] >= w

    def test_cap_defaults_to_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_CO_GROUP_CAP", "4")
        vx = Vertexica()
        schema = social(vx)
        view = GraphView(
            edges=CoEdgeSpec(schema.likes_table, member="user_id", via="post_id")
        )
        handle = vx.create_graph_view(
            "cap", view, extraction=ExtractionOptions(co_mode="capped")
        )
        assert handle.last_extraction.truncated_groups > 0


class TestExpansionUnit:
    def test_pair_counts_sum_over_groups(self):
        members = np.array([1, 2, 3, 1, 2, 9], dtype=np.int64)
        vias = np.array([0, 0, 0, 5, 5, 5], dtype=np.int64)
        src, dst, weight, truncated = expand_co_occurrence(members, vias)
        pairs = dict(zip(zip(src, dst), weight))
        assert truncated == 0
        # (1, 2) co-occurs in both groups, every other pair in one.
        assert pairs[(1, 2)] == 2.0 and pairs[(2, 1)] == 2.0
        assert pairs[(1, 3)] == 1.0 and pairs[(2, 9)] == 1.0
        assert (1, 1) not in pairs
        assert np.array_equal(src, np.sort(src))

    def test_cap_keeps_largest_members_by_count(self):
        # Member 7 likes the via twice, members 1/2/3 once each: cap=2
        # keeps {7, 1} (count desc, then member asc as the tiebreak).
        members = np.array([7, 7, 1, 2, 3], dtype=np.int64)
        vias = np.zeros(5, dtype=np.int64)
        src, dst, weight, truncated = expand_co_occurrence(members, vias, cap=2)
        assert truncated == 1
        assert set(zip(src, dst)) == {(1, 7), (7, 1)}
        assert list(weight) == [2.0, 2.0]

    def test_single_member_groups_emit_nothing(self):
        members = np.array([1, 2, 3], dtype=np.int64)
        vias = np.array([0, 1, 2], dtype=np.int64)
        src, dst, weight, truncated = expand_co_occurrence(members, vias)
        assert len(src) == 0 and truncated == 0


class TestFailureHygiene:
    def test_poisoned_spec_leaves_no_scratch_tables(self):
        # A sliced, threaded extraction that fails at planning must drop
        # every _gvslice scratch table on its way out (try/finally), not
        # leak them into the catalog.
        vx = Vertexica()
        schema = social(vx)
        before = set(vx.db.catalog.table_names())
        view = GraphView(
            vertices=NodeSpec(schema.users_table, key="id"),
            edges=EdgeSpec(schema.follows_table, src="follower_id",
                           dst="followee_id", where="no_such_column > 1"),
        )
        options = ExtractionOptions(
            executor="threads", n_workers=4, slice_min_rows=50
        )
        with pytest.raises(GraphViewError, match="edge spec"):
            vx.create_graph_view("poisoned", view, extraction=options)
        after = set(vx.db.catalog.table_names())
        assert after == before
        assert not any(name.startswith("_gvslice") for name in after)

    def test_serial_failure_names_the_spec(self):
        vx = Vertexica()
        schema = social(vx)
        view = GraphView(vertices=NodeSpec("missing_table", key="id"))
        with pytest.raises(GraphViewError, match="node spec"):
            vx.create_graph_view("nope", view)


class TestOptionsValidation:
    def test_bad_executor_rejected(self):
        with pytest.raises(GraphViewError, match="executor"):
            ExtractionOptions(executor="fibers").validate()

    def test_bad_co_mode_rejected(self):
        with pytest.raises(GraphViewError, match="co_mode"):
            ExtractionOptions(co_mode="fuzzy").validate()

    def test_bad_cap_rejected(self):
        with pytest.raises(GraphViewError, match="co_cap"):
            ExtractionOptions(co_cap=0).validate()

    @pytest.mark.parametrize(
        "removed,replacement", [("auto", "'threads'"), ("serial", "n_workers=1")]
    )
    def test_removed_executor_values_name_their_replacement(self, removed, replacement):
        with pytest.raises(GraphViewError, match=replacement):
            ExtractionOptions(executor=removed).validate()

    def test_zero_workers_resolves_to_core_count(self):
        assert ExtractionOptions(n_workers=0).resolved_workers() >= 1
