"""Randomized DML parity: incremental refresh == full re-extraction, bit-exact.

The lockdown suite for delta-based view maintenance.  Seeded random
sequences of INSERT / DELETE / UPDATE run against the normalized social
schema (:func:`repro.datasets.load_social_schema`); after every few steps
the materialized view refreshes incrementally and a shadow copy of the
same declaration re-extracts from scratch.  Both must produce *identical*
graph tables — same vertex ids, same edge triples, same weights, same row
order (both paths store edges canonically, so equality here is bit-level,
not just multiset-level).

Run matrix: every spec kind (plain edges, undirected edges, join-derived
co-occurrence edges, all combined with filtered nodes) × every seed in
``INCREMENTAL_FUZZ_SEEDS`` (comma-separated; default one fixed seed for
tier-1 — CI sweeps more in a separate job), plus the combined view
created and refreshed on a session with two worker processes, and the
combined view refreshed while a writer thread streams DML into its base tables.  Writes injected
mid-refresh pin the bookmark contract: a refresh bookmarks exactly the
versions it read, so a write that lands after the read is the next
refresh's delta.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec, Vertexica, VertexicaConfig
from repro.core.storage import GraphStorage
from repro.datasets import load_social_schema
from repro.programs import PageRank
from repro.graphview.view import GraphViewHandle

SEEDS = [int(s) for s in os.environ.get("INCREMENTAL_FUZZ_SEEDS", "7").split(",")]

#: DML steps per (spec kind, seed) — the acceptance bar asks for >= 200.
N_STEPS = int(os.environ.get("INCREMENTAL_FUZZ_STEPS", "200"))
REFRESH_EVERY = 8

NUM_USERS = 60
NUM_POSTS = 18

VIEWS = {
    "edge_directed": GraphView(
        vertices=NodeSpec("users", key="id"),
        edges=EdgeSpec(
            "follows", src="follower_id", dst="followee_id", weight="closeness"
        ),
    ),
    "edge_undirected": GraphView(
        vertices=NodeSpec("users", key="id"),
        edges=EdgeSpec(
            "follows",
            src="follower_id",
            dst="followee_id",
            weight="closeness * 2.0",
            directed=False,
        ),
    ),
    "edge_filtered": GraphView(
        vertices=NodeSpec("users", key="id", where="karma > 1.0"),
        edges=EdgeSpec(
            "follows", src="follower_id", dst="followee_id", where="closeness > 1.5"
        ),
    ),
    "co_edge": GraphView(
        vertices=NodeSpec("users", key="id"),
        edges=CoEdgeSpec("likes", member="user_id", via="post_id"),
    ),
    "combined": GraphView(
        vertices=NodeSpec("users", key="id"),
        edges=[
            EdgeSpec(
                "follows", src="follower_id", dst="followee_id", weight="closeness"
            ),
            CoEdgeSpec("likes", member="user_id", via="post_id"),
        ],
    ),
}


def fresh_vertexica(seed: int, config: VertexicaConfig | None = None) -> Vertexica:
    vx = Vertexica(config=config)
    load_social_schema(
        vx.db,
        num_users=NUM_USERS,
        num_follows=300,
        num_likes=180,
        num_posts=NUM_POSTS,
        seed=seed,
    )
    return vx


def random_dml(vx: Vertexica, rng: np.random.Generator) -> None:
    """One random INSERT / DELETE / UPDATE against users/follows/likes."""
    op = int(rng.integers(0, 9))
    uid = int(rng.integers(0, NUM_USERS + 20))
    other = int(rng.integers(0, NUM_USERS + 20))
    post = int(rng.integers(0, NUM_POSTS))
    w = round(float(rng.uniform(0.1, 5.0)), 3)
    if op == 0:
        vx.sql(f"INSERT INTO follows VALUES ({uid}, {other}, {w})")
    elif op == 1:
        vx.sql(
            "INSERT INTO follows VALUES "
            f"({uid}, {other}, {w}), ({other}, {uid}, {w})"
        )
    elif op == 2:
        vx.sql(f"DELETE FROM follows WHERE follower_id = {uid}")
    elif op == 3:
        vx.sql(
            f"UPDATE follows SET closeness = {w} WHERE followee_id = {other}"
        )
    elif op == 4:
        vx.sql(f"UPDATE follows SET followee_id = {other} WHERE follower_id = {uid}")
    elif op == 5:
        vx.sql(f"INSERT INTO likes VALUES ({uid}, {post})")
    elif op == 6:
        vx.sql(f"DELETE FROM likes WHERE post_id = {post} AND user_id < {uid}")
    elif op == 7:
        vx.sql(f"INSERT INTO users VALUES ({uid + 1000}, 'xx', {w})")
    else:
        vx.sql(f"UPDATE users SET karma = {w} WHERE id = {uid}")


def graph_tables(vx: Vertexica, name: str):
    """Edge rows with every weight as its int64 bit pattern (a Python
    float comparison would call ``-0.0`` and ``+0.0`` equal), and node
    rows; ids compare by value."""
    batch = vx.sql(f"SELECT src, dst, weight FROM {name}_edge").batch
    weight_bits = np.asarray(batch.column("weight").values, dtype=np.float64).view(np.int64)
    edges = list(
        zip(
            batch.column("src").values.tolist(),
            batch.column("dst").values.tolist(),
            weight_bits.tolist(),
        )
    )
    nodes = vx.sql(f"SELECT id FROM {name}_node").rows()
    return edges, nodes


def assert_view_parity(vx: Vertexica, handle: GraphViewHandle, tag: str) -> None:
    """Full-extract a shadow of the same declaration and compare tables
    positionally (canonical order makes row order part of the contract)."""
    shadow = GraphViewHandle(vx.db, vx.storage, tag, handle.view)
    shadow.refresh(incremental=False)
    try:
        assert graph_tables(vx, handle.name) == graph_tables(vx, tag)
    finally:
        shadow.drop()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(VIEWS))
def test_incremental_matches_full_under_random_dml(kind: str, seed: int):
    vx = fresh_vertexica(seed)
    handle = vx.create_graph_view("live", VIEWS[kind])
    rng = np.random.default_rng(seed * 7919 + 13)
    incremental_refreshes = 0
    for step in range(N_STEPS):
        random_dml(vx, rng)
        if (step + 1) % REFRESH_EVERY == 0 or step == N_STEPS - 1:
            handle.refresh()
            if handle.last_extraction.mode == "incremental":
                incremental_refreshes += 1
            assert_view_parity(vx, handle, f"shadow_{step}")
    # The suite is vacuous if everything silently fell back to full.
    assert incremental_refreshes >= (N_STEPS // REFRESH_EVERY) // 2


#: DML steps per seed of the worker-session sequence; each one is
#: followed by a refresh and a parity check.
WORKER_SESSION_STEPS = 24


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_refresh_on_a_worker_process_session(seed: int):
    """A session whose runs use two worker processes extracts and
    maintains its views in-process like any other: every refresh of a DML
    sequence patches in place, equals a full extraction, and starts no
    worker process."""
    config = VertexicaConfig(data_plane="shards", n_workers=2)
    with fresh_vertexica(seed, config) as vx:
        handle = vx.create_graph_view("live", VIEWS["combined"])
        rng = np.random.default_rng(seed * 104729 + 3)
        for step in range(WORKER_SESSION_STEPS):
            random_dml(vx, rng)
            handle.refresh(incremental=True)  # no delta-size cut-off: every step patches
            assert handle.last_extraction.mode == "incremental", handle.last_fallback_reason
            assert_view_parity(vx, handle, f"shadow_{step}")
        assert multiprocessing.active_children() == []


#: Refreshes the main thread runs while the writer streams DML, and the
#: writer's cap on statements.
CONCURRENT_REFRESHES = 16
CONCURRENT_WRITES = 400


def random_insert_or_delete(vx: Vertexica, rng: np.random.Generator) -> None:
    """One random INSERT or DELETE against users/follows/likes."""
    op = int(rng.integers(0, 5))
    uid = int(rng.integers(0, NUM_USERS + 20))
    other = int(rng.integers(0, NUM_USERS + 20))
    post = int(rng.integers(0, NUM_POSTS))
    if op == 0:
        vx.sql(f"INSERT INTO follows VALUES ({uid}, {other}, {rng.uniform(0.1, 5.0):.3f})")
    elif op == 1:
        vx.sql(f"DELETE FROM follows WHERE follower_id = {uid} AND followee_id < {other}")
    elif op == 2:
        vx.sql(f"INSERT INTO likes VALUES ({uid}, {post})")
    elif op == 3:
        vx.sql(f"DELETE FROM likes WHERE post_id = {post} AND user_id < {uid}")
    else:
        vx.sql(f"INSERT INTO users VALUES ({uid + 1000}, 'xx', 1.5)")


@pytest.mark.parametrize("seed", SEEDS)
def test_refresh_under_concurrent_writer(seed: int):
    """A writer thread streams seeded INSERT / DELETE statements into the
    base tables while the main thread refreshes (every fourth refresh a
    full one); once the writer stops, one last refresh equals a full
    extraction bit for bit — no write slipped between a refresh's read
    and its bookmark."""
    vx = fresh_vertexica(seed)
    handle = vx.create_graph_view("live", VIEWS["combined"])
    stop = threading.Event()
    failures: list[BaseException] = []

    def writer() -> None:
        rng = np.random.default_rng(seed * 7349 + 11)
        try:
            for _ in range(CONCURRENT_WRITES):
                if stop.is_set():
                    return
                random_insert_or_delete(vx, rng)
                time.sleep(0.001)  # spread the writes across the refreshes
        except BaseException as exc:  # surfaced by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads finely
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for index in range(CONCURRENT_REFRESHES):
            handle.refresh(incremental=False if index % 4 == 3 else None)
    finally:
        stop.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and failures == []
    handle.refresh()
    assert_view_parity(vx, handle, "shadow_concurrent")


class TestWritesDuringARefresh:
    """A write that lands after a refresh read the base tables but before
    it finished is the next refresh's delta, never skipped."""

    def test_write_during_a_full_load_is_the_next_delta(self, monkeypatch):
        vx = fresh_vertexica(16)
        load_graph = GraphStorage.load_graph

        def load_then_write(storage, name, *args, **kwargs):
            if name == "live":
                vx.sql("INSERT INTO follows VALUES (7, 8, 2.5)")
            return load_graph(storage, name, *args, **kwargs)

        monkeypatch.setattr(GraphStorage, "load_graph", load_then_write)
        handle = vx.create_graph_view("live", VIEWS["combined"])
        monkeypatch.undo()
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        assert handle.last_extraction.delta_rows == 1
        assert_view_parity(vx, handle, "shadow_full_load")

    def test_write_during_a_patch_is_the_next_delta(self, monkeypatch):
        vx = fresh_vertexica(17)
        handle = vx.create_graph_view("live", VIEWS["combined"])
        vx.sql("INSERT INTO likes VALUES (3, 4)")
        replace_graph = GraphStorage.replace_graph

        def replace_then_write(storage, *args, **kwargs):
            vx.sql("INSERT INTO follows VALUES (7, 8, 2.5)")
            return replace_graph(storage, *args, **kwargs)

        monkeypatch.setattr(GraphStorage, "replace_graph", replace_then_write)
        handle.refresh()
        monkeypatch.undo()
        assert handle.last_extraction.mode == "incremental"
        assert handle.last_extraction.delta_rows == 1
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        assert handle.last_extraction.delta_rows == 1
        assert_view_parity(vx, handle, "shadow_patch")


def test_signed_zero_parallel_edges_match_full_extraction_bitwise():
    # Parallel edges weighing -0.0 and +0.0 tie under float comparison;
    # both refresh paths must still store them in one order (-0.0 first).
    vx = Vertexica()
    vx.sql("CREATE TABLE f (a INTEGER, b INTEGER, w FLOAT)")
    vx.sql("INSERT INTO f VALUES (1, 2, 0.0), (1, 3, 1.0), (2, 3, -0.0)")
    view = GraphView(edges=EdgeSpec("f", src="a", dst="b", weight="w"))
    handle = vx.create_graph_view("live", view)
    vx.sql("INSERT INTO f VALUES (1, 2, -0.0), (2, 3, 0.0)")
    handle.refresh(incremental=True)
    assert handle.last_extraction.mode == "incremental"
    edges, _ = graph_tables(vx, "live")
    signs = [np.signbit(np.int64(bits).view(np.float64)) for _, _, bits in edges]
    assert signs == [True, False, False, True, False]
    assert_view_parity(vx, handle, "shadow_zero")


class TestFallbacks:
    """The paths that must *not* take the delta shortcut still agree."""

    def test_large_delta_falls_back_to_full(self):
        vx = fresh_vertexica(3)
        handle = vx.create_graph_view("live", VIEWS["edge_directed"])
        vx.sql("DELETE FROM follows WHERE closeness > 1.0")  # way over 25%
        handle.refresh()
        assert handle.last_extraction.mode == "full"
        assert_view_parity(vx, handle, "shadow_big")

    def test_forced_incremental_ignores_threshold(self):
        vx = fresh_vertexica(4)
        handle = vx.create_graph_view("live", VIEWS["edge_directed"])
        doomed = vx.sql("SELECT COUNT(*) FROM follows WHERE closeness > 1.0").scalar()
        assert doomed > 0.25 * 300
        vx.sql("DELETE FROM follows WHERE closeness > 1.0")
        handle.refresh(incremental=True)
        assert handle.last_extraction.mode == "incremental"
        assert handle.last_extraction.delta_rows == doomed
        assert_view_parity(vx, handle, "shadow_forced")

    def test_forced_full_never_patches(self):
        vx = fresh_vertexica(5)
        handle = vx.create_graph_view("live", VIEWS["combined"])
        vx.sql("INSERT INTO follows VALUES (0, 1, 2.0)")
        handle.refresh(incremental=False)
        assert handle.last_extraction.mode == "full"

    def test_truncate_breaks_window_full_refresh(self):
        vx = fresh_vertexica(6)
        handle = vx.create_graph_view("live", VIEWS["co_edge"])
        vx.sql("TRUNCATE likes")
        handle.refresh()
        assert handle.last_extraction.mode == "full"
        assert handle.resolve().num_edges == 0
        assert_view_parity(vx, handle, "shadow_trunc")

    def test_dropped_base_table_detected(self):
        vx = fresh_vertexica(8)
        handle = vx.create_graph_view("live", VIEWS["edge_directed"])
        follows = vx.sql("SELECT follower_id, followee_id, closeness FROM follows").rows()
        vx.sql("DROP TABLE follows")
        vx.sql(
            "CREATE TABLE follows (follower_id INTEGER, followee_id INTEGER, "
            "closeness FLOAT)"
        )
        for a, b, w in follows[:50]:
            vx.sql(f"INSERT INTO follows VALUES ({a}, {b}, {w})")
        handle.refresh()  # uid mismatch -> full, not a bogus delta
        assert handle.last_extraction.mode == "full"
        assert handle.resolve().num_edges == 50

    def test_stripes_over_the_edge_count_fall_back(self):
        # Three via groups of three members: 18 co-occurrence edges.  Five
        # new likers of a fresh post are 5 x 5 = 25 pair updates, more
        # than a full refresh reloads, so the refresh takes the full path
        # and says why with both numbers.
        vx = Vertexica()
        vx.sql("CREATE TABLE likes (user_id INTEGER, post_id INTEGER)")
        vx.sql(
            "INSERT INTO likes VALUES "
            + ", ".join(f"({3 * post + k}, {post})" for post in range(3) for k in range(3))
        )
        handle = vx.create_graph_view(
            "live",
            GraphView(edges=CoEdgeSpec("likes", member="user_id", via="post_id")),
        )
        assert handle.last_extraction.num_edges == 18
        vx.sql("INSERT INTO likes VALUES " + ", ".join(f"({uid}, 99)" for uid in range(20, 25)))
        handle.refresh(incremental=True)  # past the size check: the stripes guard decides
        assert handle.last_extraction.mode == "full"
        reason = handle.last_fallback_reason
        assert "25 pair updates" in reason and "view's 18 edges" in reason, reason
        assert_view_parity(vx, handle, "shadow_stripes")
        # The bound is the delta's, not the dense group's: after the
        # rebuild (38 edges), one more liker of that group (1 x 6 = 6)
        # patches in place.
        vx.sql("INSERT INTO likes VALUES (30, 99)")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental", handle.last_fallback_reason
        assert_view_parity(vx, handle, "shadow_small")

    def test_one_row_delta_on_a_dense_group_stays_incremental(self):
        # A via group of 1 030 likers, ~1.06 M pair edges: one new liker
        # is 1 x 1 031 pair updates, far under the edge count, so the
        # refresh patches in place however dense the group.
        vx = fresh_vertexica(14)
        rows = ", ".join(f"({uid}, 3)" for uid in range(1000, 2030))
        vx.sql(f"INSERT INTO likes VALUES {rows}")
        handle = vx.create_graph_view("live", VIEWS["co_edge"])
        assert handle.last_extraction.num_edges > 1030 * 1029
        vx.sql("INSERT INTO likes VALUES (5000, 3)")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental", handle.last_fallback_reason
        assert handle.last_fallback_reason is None
        # Compared as arrays: a million-row table is too big for tuples.
        shadow = GraphViewHandle(vx.db, vx.storage, "shadow_dense_small", handle.view)
        shadow.refresh(incremental=False)
        for table, columns in (("edge", "src, dst, weight"), ("node", "id")):
            live = vx.db.query_batch(f"SELECT {columns} FROM live_{table}")
            full = vx.db.query_batch(f"SELECT {columns} FROM shadow_dense_small_{table}")
            for column in columns.split(", "):
                a, b = live.column(column).values, full.column(column).values
                assert a.tobytes() == b.tobytes(), (table, column)

    def test_fallback_reason_lifecycle(self):
        vx = fresh_vertexica(15)
        handle = vx.create_graph_view("live", VIEWS["edge_directed"])
        # create_graph_view's initial refresh had nothing to patch.
        assert handle.last_fallback_reason == "no maintenance state (first refresh)"
        vx.sql("INSERT INTO follows VALUES (1, 2, 1.5)")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        assert handle.last_fallback_reason is None
        # An explicit full refresh is not a fallback; the reason field
        # tracks only abandoned *incremental* attempts.
        handle.refresh(incremental=False)
        assert handle.last_fallback_reason is None

    def test_custom_weight_reason_names_the_cause(self):
        vx = fresh_vertexica(9)
        view = GraphView(
            vertices=NodeSpec("users", key="id"),
            edges=CoEdgeSpec(
                "likes", member="user_id", via="post_id", weight="COUNT(*) * 2"
            ),
        )
        handle = vx.create_graph_view("live", view)
        vx.sql("INSERT INTO likes VALUES (0, 1)")
        handle.refresh()
        assert handle.last_extraction.mode == "full"
        assert handle.last_fallback_reason == "spec has no incremental lowering"

    def test_custom_co_edge_weight_always_full(self):
        vx = fresh_vertexica(9)
        view = GraphView(
            vertices=NodeSpec("users", key="id"),
            edges=CoEdgeSpec(
                "likes", member="user_id", via="post_id", weight="COUNT(*) * 2"
            ),
        )
        handle = vx.create_graph_view("live", view)
        vx.sql("INSERT INTO likes VALUES (0, 1)")
        handle.refresh()
        assert handle.last_extraction.mode == "full"  # AVG/MAX-style: no delta form
        assert_view_parity(vx, handle, "shadow_custom")

    def test_dropping_last_view_disarms_capture(self):
        vx = fresh_vertexica(11)
        vx.create_graph_view("live", VIEWS["edge_directed"])
        follows = vx.db.table("follows")
        assert follows.changelog.enabled
        vx.drop_graph_view("live")
        assert not follows.changelog.enabled
        vx.sql("DELETE FROM follows WHERE follower_id = 0")
        assert follows.changelog.retained_rows == 0  # nothing materialized

    def test_virtual_and_ad_hoc_runs_leave_capture_disarmed(self):
        # Extraction arms capture as it pins; a run over a view that is
        # never refreshed incrementally hands it back.
        vx = fresh_vertexica(18)
        virtual = vx.create_graph_view("virtual", VIEWS["edge_directed"], materialized=False)
        vx.run(virtual, PageRank(iterations=2))
        vx.run(VIEWS["co_edge"], PageRank(iterations=2))
        for table in ("users", "follows", "likes"):
            assert not vx.db.table(table).changelog.enabled, table

    def test_shared_table_keeps_capture_while_another_view_remains(self):
        vx = fresh_vertexica(12)
        vx.create_graph_view("a", VIEWS["edge_directed"])
        vx.create_graph_view("b", VIEWS["edge_undirected"])
        vx.drop_graph_view("a")
        assert vx.db.table("follows").changelog.enabled  # b still derives
        vx.sql("INSERT INTO follows VALUES (0, 1, 1.0)")
        handle = vx.graph_view("b")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        vx.drop_graph_view("b")
        assert not vx.db.table("follows").changelog.enabled

    def test_refresh_counts_the_statements_it_runs(self):
        # One statement per spec statement and non-empty delta side: the
        # edge spec over follows' inserted and deleted rows, the
        # co-occurrence side query over likes' inserted rows, and nothing
        # for users, which did not change.
        vx = fresh_vertexica(13)
        handle = vx.create_graph_view("live", VIEWS["combined"])
        vx.sql("INSERT INTO follows VALUES (1, 2, 1.5)")
        vx.sql("DELETE FROM follows WHERE follower_id = 3")
        vx.sql("INSERT INTO likes VALUES (4, 5)")
        handle.refresh()
        stats = handle.last_extraction
        assert stats.mode == "incremental" and stats.num_queries == 3
        assert_view_parity(vx, handle, "shadow_counted")

    def test_no_op_refresh_is_incremental_and_free(self):
        vx = fresh_vertexica(10)
        handle = vx.create_graph_view("live", VIEWS["combined"])
        before = graph_tables(vx, "live")
        handle.refresh()
        stats = handle.last_extraction
        assert stats.mode == "incremental"
        assert stats.delta_rows == 0 and stats.num_queries == 0
        assert graph_tables(vx, "live") == before
