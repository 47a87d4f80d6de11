"""Analytics on incrementally refreshed views match freshly extracted ones.

Because both refresh paths produce bit-identical graph tables (canonical
edge order), the vertex-program results must be *exactly* equal — float
for float — not merely close.  Also guards the graph version's topology
(the ``ShardIndex`` both data planes read their out-edges from, kept on
the edge table): it must never leak a pre-refresh edge set into a run
that starts after the refresh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec, Vertexica
from repro.core.shards import ShardIndex
from repro.datasets import load_social_schema
from repro.programs import ConnectedComponents, PageRank


def social_view(directed: bool = True) -> GraphView:
    return GraphView(
        vertices=NodeSpec("users", key="id"),
        edges=[
            EdgeSpec(
                "follows",
                src="follower_id",
                dst="followee_id",
                weight="closeness",
                directed=directed,
            ),
            CoEdgeSpec("likes", member="user_id", via="post_id"),
        ],
    )


def make_vx(seed: int = 31) -> Vertexica:
    vx = Vertexica()
    load_social_schema(
        vx.db, num_users=60, num_follows=300, num_likes=160, num_posts=20, seed=seed
    )
    return vx


def apply_dml(vx: Vertexica) -> None:
    vx.sql("INSERT INTO follows VALUES (0, 59, 2.5), (59, 0, 0.5)")
    vx.sql("DELETE FROM follows WHERE follower_id = 7")
    vx.sql("UPDATE follows SET closeness = 4.0 WHERE followee_id = 3")
    vx.sql("INSERT INTO likes VALUES (11, 2), (12, 2)")
    vx.sql("INSERT INTO users VALUES (200, 'us', 1.0)")


class TestResultsMatchFreshExtraction:
    @pytest.mark.parametrize(
        "program", [PageRank(iterations=8), ConnectedComponents()], ids=["pr", "cc"]
    )
    def test_incremental_equals_fresh(self, program):
        directed = isinstance(program, PageRank)
        vx = make_vx()
        live = vx.create_graph_view("live", social_view(directed))
        apply_dml(vx)
        live.refresh()
        assert live.last_extraction.mode == "incremental"
        fresh = vx.create_graph_view("fresh", social_view(directed))
        assert (
            vx.run(live, program).values == vx.run(fresh, program).values
        )  # bit-identical, no tolerance

    def test_incremental_equals_fresh_scalar_path(self):
        """The per-vertex scalar worker consumes messages in table order —
        the strictest consumer of canonical edge ordering."""
        vx = make_vx(seed=32)
        live = vx.create_graph_view("live", social_view())
        apply_dml(vx)
        live.refresh()
        assert live.last_extraction.mode == "incremental"
        fresh = vx.create_graph_view("fresh", social_view())
        program = PageRank(iterations=5)
        assert (
            vx.run(live, program, compute_strategy="scalar").values
            == vx.run(fresh, program, compute_strategy="scalar").values
        )


class TestTopologyFreshness:
    def test_runs_see_refreshed_edges(self):
        """Two SQL-plane ``vx.run`` calls around a refresh: the refresh
        drops the index the first run left on the edge table, and the
        second run rebuilds it, computes on the refreshed edge relation,
        and agrees exactly with a run over a freshly extracted graph."""
        vx = make_vx(seed=33)
        live = vx.create_graph_view("live", social_view())
        program = PageRank(iterations=6)
        before = vx.run(live, program).values
        edges = vx.db.table("live_edge")
        stale = edges.derived
        assert isinstance(stale, ShardIndex)

        apply_dml(vx)
        live.refresh()
        assert live.last_extraction.mode == "incremental"
        assert edges.derived is None

        after = vx.run(live, program).values
        assert isinstance(edges.derived, ShardIndex) and edges.derived is not stale
        assert edges.derived.key[:2] == (edges.uid, edges.version)
        fresh = vx.create_graph_view("fresh", social_view())
        assert after == vx.run(fresh, program).values
        assert after != before  # the DML genuinely moved the ranks

    def test_isolated_vertex_appears_after_refresh(self):
        vx = make_vx(seed=34)
        live = vx.create_graph_view("live", social_view())
        vx.sql("INSERT INTO users VALUES (300, 'de', 9.9)")
        live.refresh()
        assert live.last_extraction.mode == "incremental"
        values = vx.run(live, ConnectedComponents()).values
        assert 300 in values

    def test_vertex_disappears_when_last_derivation_goes(self):
        vx = Vertexica()
        vx.sql("CREATE TABLE rel (a INTEGER, b INTEGER)")
        vx.sql("INSERT INTO rel VALUES (0, 1), (1, 2), (2, 0)")
        live = vx.create_graph_view("live", GraphView(edges=EdgeSpec("rel", src="a", dst="b")))
        vx.sql("DELETE FROM rel WHERE a = 1")
        # Tiny table: one deleted row exceeds the default delta fraction,
        # so insist on the incremental path to exercise it.
        live.refresh(incremental=True)
        assert live.last_extraction.mode == "incremental"
        node_ids = [r[0] for r in vx.sql("SELECT id FROM live_node").rows()]
        # 2 still derives from (2, 0); nothing references... all of 0,1,2
        # remain endpoints except none vanished here: (0,1) and (2,0) stay.
        assert node_ids == [0, 1, 2]
        vx.sql("DELETE FROM rel WHERE b = 1")
        live.refresh(incremental=True)
        node_ids = [r[0] for r in vx.sql("SELECT id FROM live_node").rows()]
        assert node_ids == [0, 2]  # 1 lost its last derivation

    def test_weights_update_exactly(self):
        vx = Vertexica()
        vx.sql("CREATE TABLE rel (a INTEGER, b INTEGER, w FLOAT)")
        vx.sql("INSERT INTO rel VALUES (0, 1, 1.25), (1, 0, 2.5)")
        live = vx.create_graph_view(
            "live", GraphView(edges=EdgeSpec("rel", src="a", dst="b", weight="w * 3.0"))
        )
        vx.sql("UPDATE rel SET w = 0.1 WHERE a = 0")
        live.refresh(incremental=True)
        assert live.last_extraction.mode == "incremental"
        rows = vx.sql("SELECT src, dst, weight FROM live_edge").rows()
        assert rows == [(0, 1, pytest.approx(0.1 * 3.0, abs=0)), (1, 0, 7.5)]
        weights = np.array([r[2] for r in rows])
        assert weights.dtype == np.float64
