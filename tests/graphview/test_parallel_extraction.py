"""In-process spec lowering and the co-occurrence expansion.

The contract under test: a graph view extracts and refreshes in the
session's own process, through one spec runner, whatever ``n_workers``
says (worker processes run shard tasks only); the group-by expansion
that lowers a ``COUNT(*)`` co-occurrence spec produces the same bytes as
the SQL self-join, reached by spelling the weight out as
``weight="COUNT(*)"``; and a failing extraction leaves the live catalog
as it was.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import Vertexica, VertexicaConfig
from repro.datasets.relational import load_social_schema
from repro.engine.types import FLOAT
from repro.errors import GraphViewError
from repro.graphview import (
    CoEdgeSpec,
    EdgeSpec,
    GraphView,
    GraphViewHandle,
    NodeSpec,
    expand_co_occurrence,
)
from repro.graphview import lowering
from repro.graphview import view as view_module
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


def serial_tables(vx: Vertexica, name: str, view: GraphView):
    """Tables of a full extraction of ``view`` in ``vx``'s database by a
    bare handle, outside any session."""
    GraphViewHandle(vx.db, vx.storage, name, view).refresh()
    return graph_tables(vx, name)


def assert_tables_identical(a: dict, b: dict) -> None:
    for key in ("src", "dst", "weight", "id"):
        assert a[key].dtype == b[key].dtype, key
        assert a[key].tobytes() == b[key].tobytes(), f"{key} differs"


#: A session whose runs use two worker processes on the shard plane.
SHARD_WORKERS = VertexicaConfig(data_plane="shards", n_workers=2)


class TestInProcessExtraction:
    def test_views_extract_and_refresh_without_worker_processes(self, monkeypatch):
        # Full extraction runs every compiled statement once; an
        # incremental refresh runs every statement once per non-empty
        # delta side; neither spawns a worker process.  The session's
        # runs still use its two.
        statements = []
        run_statement = lowering.run_statement

        def counting(what, sql, pin):
            statements.append(what)
            return run_statement(what, sql, pin)

        monkeypatch.setattr(lowering, "run_statement", counting)
        with Vertexica(config=SHARD_WORKERS) as vx:
            schema = social(vx)
            # 1 node + 1 directed + 2 undirected + 1 side statement
            view = GraphView(
                vertices=NodeSpec(schema.users_table, key="id"),
                edges=[
                    EdgeSpec(schema.follows_table, src="follower_id", dst="followee_id"),
                    EdgeSpec(schema.follows_table, src="follower_id", dst="followee_id",
                             directed=False),
                    CoEdgeSpec(schema.likes_table, member="user_id", via="post_id"),
                ],
            )
            handle = vx.create_graph_view("live", view)
            assert len(statements) == handle.last_extraction.num_queries == 5
            assert multiprocessing.active_children() == []

            # follows gains and loses rows (both sides: 2 x 3 statements),
            # likes only loses them (1 x 1), users is untouched.
            vx.sql("INSERT INTO follows VALUES (1, 2, 0.5)")
            vx.sql("DELETE FROM follows WHERE follower_id = 3")
            vx.sql("DELETE FROM likes WHERE user_id = 4")
            handle.refresh(incremental=True)
            assert handle.last_extraction.mode == "incremental", handle.last_fallback_reason
            assert len(statements) - 5 == handle.last_extraction.num_queries == 7
            assert multiprocessing.active_children() == []

            handle.refresh(incremental=False)
            assert len(statements) - 12 == handle.last_extraction.num_queries == 5
            assert multiprocessing.active_children() == []

            vx.run(handle, PageRank(iterations=2))
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []


class TestExecutorParity:
    """A session's executor does not reach its views: the tables of a
    worker-process session are the bytes a bare handle extracts."""

    def test_worker_session_tables_bit_identical_to_serial(self):
        with Vertexica(config=SHARD_WORKERS) as vx:
            view = full_view(social(vx))
            vx.create_graph_view("par", view)
            assert_tables_identical(serial_tables(vx, "base", view), graph_tables(vx, "par"))

    def test_ad_hoc_view_extracts_on_the_run_config(self, monkeypatch):
        # A bare GraphView passed to run() with worker-process overrides
        # is extracted once, in-process, before the run's workers start,
        # and holds the bytes a bare handle extracts.
        children_at_extraction = []
        lower_view = view_module.lower_view

        def recording(db, view):
            children_at_extraction.append(len(multiprocessing.active_children()))
            return lower_view(db, view)

        monkeypatch.setattr(view_module, "lower_view", recording)
        with Vertexica() as vx:
            view = full_view(social(vx))
            result = vx.run(view, PageRank(iterations=2), data_plane="shards", n_workers=2)
            assert result.values and children_at_extraction == [0]
            monkeypatch.undo()
            assert_tables_identical(
                serial_tables(vx, "base", view), graph_tables(vx, "adhoc_view")
            )


class TestSpecRunner:
    """:func:`lowering.run_spec` over a whole-table pin, unit by unit."""

    @staticmethod
    def pinned(vx: Vertexica, table: str):
        return vx.db.pin_tables([table])[table]

    @pytest.mark.parametrize(
        "kind,statements",
        [("node", 1), ("edge", 1), ("undirected", 2), ("co_edge_weighted", 1)],
    )
    def test_whole_table_pin_yields_one_result_per_statement(self, kind, statements):
        vx = Vertexica()
        schema = social(vx)
        spec = {
            "node": NodeSpec(schema.users_table, key="id"),
            "edge": EdgeSpec(schema.follows_table, src="follower_id", dst="followee_id"),
            "undirected": EdgeSpec(schema.follows_table, src="follower_id",
                                   dst="followee_id", directed=False),
            "co_edge_weighted": CoEdgeSpec(schema.likes_table, member="user_id",
                                           via="post_id", weight="COUNT(*) * 2"),
        }[kind]
        assert len(lowering.spec_statements(spec)) == statements
        out = lowering.run_spec(spec, self.pinned(vx, spec.table))
        if kind == "node":
            count = vx.sql(f"SELECT COUNT(*) FROM {schema.users_table}").scalar()
            assert out.dtype == np.int64 and len(out) == count
            return
        assert len(out) == statements
        for src, dst, weight in out:
            assert src.dtype == dst.dtype == np.int64 and weight.dtype == np.float64
            assert len(src) == len(dst) == len(weight) > 0
        if kind == "undirected":
            (s0, d0, _), (s1, d1, _) = out
            assert np.array_equal(s0, d1) and np.array_equal(d0, s1)

    def test_side_rows_drop_null_member_or_via(self):
        # The one NULL-dropping side converter: a NULL member or via never
        # equi-joins, so its row is dropped; via keeps its column's dtype.
        vx = Vertexica()
        vx.sql("CREATE TABLE likes (user_id INTEGER, tag VARCHAR)")
        vx.sql("INSERT INTO likes VALUES (1, 'a'), (NULL, 'a'), (2, NULL), "
               "(3, 'b'), (2, 'a')")
        spec = CoEdgeSpec("likes", member="user_id", via="tag")
        member, via = lowering.run_spec(spec, self.pinned(vx, "likes"))
        assert member.dtype == np.int64 and member.tolist() == [1, 3, 2]
        assert via.tolist() == ["a", "b", "a"]


class TestCoOccurrenceLowering:
    """The expansion == the ``COUNT(*)`` self-join, byte for byte."""

    @pytest.mark.parametrize(
        "flush_pairs", [1 << 21, 64], ids=["streamed", "streamed-flushed"]
    )
    def test_expansion_matches_count_selfjoin(self, monkeypatch, flush_pairs):
        # The streamed path with a 64-pair buffer merges many times over
        # the skewed groups.
        monkeypatch.setattr(lowering, "_EXPANSION_FLUSH_PAIRS", flush_pairs)
        vx = Vertexica()
        schema = social(vx)
        spec = dict(table=schema.likes_table, member="user_id", via="post_id")
        vx.create_graph_view("ex", GraphView(edges=CoEdgeSpec(**spec)))
        vx.create_graph_view("sj", GraphView(edges=CoEdgeSpec(**spec, weight="COUNT(*)")))
        ex = graph_tables(vx, "ex")
        assert len(ex["src"]) > 1000
        assert_tables_identical(graph_tables(vx, "sj"), ex)

    def test_expansion_matches_count_selfjoin_with_nulls(self):
        # 300 rows, NULL members and NULL vias among them (a NULL never
        # joins), a filter, duplicate (member, via) rows and members far
        # apart: both lowerings drop the same rows and count the same pairs.
        rng = np.random.default_rng(17)
        vx = Vertexica()
        vx.sql("CREATE TABLE likes (user_id INTEGER, post_id INTEGER, score FLOAT)")
        rows = []
        for _ in range(300):
            member = int(rng.choice([rng.integers(0, 40), rng.integers(2**40, 2**40 + 5)]))
            via = int(rng.integers(0, 12))
            rows.append((
                "NULL" if rng.random() < 0.08 else str(member),
                "NULL" if rng.random() < 0.08 else str(via),
                f"{rng.uniform(0, 2):.3f}",
            ))
        vx.sql("INSERT INTO likes VALUES " + ", ".join(f"({a}, {b}, {c})" for a, b, c in rows))
        spec = dict(table="likes", member="user_id", via="post_id", where="score > 0.3")
        vx.create_graph_view("ex", GraphView(edges=CoEdgeSpec(**spec)))
        vx.create_graph_view("sj", GraphView(edges=CoEdgeSpec(**spec, weight="COUNT(*)")))
        ex = graph_tables(vx, "ex")
        assert len(ex["src"]) > 100
        assert_tables_identical(graph_tables(vx, "sj"), ex)

    def test_custom_weight_takes_the_selfjoin(self):
        # Only COUNT(*) decomposes per via group; a custom weight keeps the
        # self-join (and doubles every pair count here).
        vx = Vertexica()
        schema = social(vx)
        spec = dict(table=schema.likes_table, member="user_id", via="post_id")
        vx.create_graph_view("ex", GraphView(edges=CoEdgeSpec(**spec)))
        vx.create_graph_view("x2", GraphView(edges=CoEdgeSpec(**spec, weight="COUNT(*) * 2")))
        ex, x2 = graph_tables(vx, "ex"), graph_tables(vx, "x2")
        assert np.array_equal(ex["src"], x2["src"]) and np.array_equal(ex["dst"], x2["dst"])
        assert np.array_equal(2.0 * ex["weight"], x2["weight"])


class TestExpansionUnit:
    def test_pair_counts_sum_over_groups(self):
        members = np.array([1, 2, 3, 1, 2, 9], dtype=np.int64)
        vias = np.array([0, 0, 0, 5, 5, 5], dtype=np.int64)
        src, dst, weight = expand_co_occurrence(members, vias)
        pairs = dict(zip(zip(src, dst), weight))
        # (1, 2) co-occurs in both groups, every other pair in one.
        assert pairs[(1, 2)] == 2.0 and pairs[(2, 1)] == 2.0
        assert pairs[(1, 3)] == 1.0 and pairs[(2, 9)] == 1.0
        assert (1, 1) not in pairs
        assert np.array_equal(src, np.sort(src))

    def test_single_member_groups_emit_nothing(self):
        members = np.array([1, 2, 3], dtype=np.int64)
        vias = np.array([0, 1, 2], dtype=np.int64)
        src, dst, weight = expand_co_occurrence(members, vias)
        assert len(src) == 0


EXECUTORS = pytest.mark.parametrize(
    "config",
    [VertexicaConfig(), SHARD_WORKERS],
    ids=["serial", "processes"],
)


class TestFailureHygiene:
    @EXECUTORS
    def test_failing_extraction_leaves_the_live_catalog_unchanged(self, monkeypatch, config):
        # Every statement runs in a private catalog, so an extraction that
        # fails registers no table in the live catalog, not even for a
        # moment.
        with Vertexica(config=config) as vx:
            schema = social(vx)
            before = set(vx.db.catalog.table_names())
            registered = []
            register = vx.db.catalog.register

            def spying(table, *args, **kwargs):
                registered.append(table.name)
                return register(table, *args, **kwargs)

            monkeypatch.setattr(vx.db.catalog, "register", spying)
            view = GraphView(
                vertices=NodeSpec(schema.users_table, key="id"),
                edges=EdgeSpec(schema.follows_table, src="follower_id",
                               dst="followee_id", where="no_such_column > 1"),
            )
            with pytest.raises(GraphViewError, match="edge spec"):
                vx.create_graph_view("poisoned", view)
            assert registered == []
            assert set(vx.db.catalog.table_names()) == before
            assert multiprocessing.active_children() == []

    @EXECUTORS
    def test_spec_expressions_call_only_builtin_functions(self, config):
        # A function registered on the live database is not in the private
        # catalog a statement runs in: the spec fails, named, while the
        # same spec with a built-in extracts.
        with Vertexica(config=config) as vx:
            schema = social(vx)
            vx.db.register_function("plus_one", lambda x: x + 1.0, [FLOAT], FLOAT)
            assert vx.sql("SELECT plus_one(1.0)").scalar() == 2.0

            def view(weight: str) -> GraphView:
                return GraphView(edges=EdgeSpec(schema.follows_table, src="follower_id",
                                                dst="followee_id", weight=weight))

            with pytest.raises(GraphViewError, match="edge spec.*plus_one"):
                vx.create_graph_view("udf", view("plus_one(closeness)"))
            handle = vx.create_graph_view("builtin", view("ABS(closeness) + 1.0"))
            assert handle.last_extraction.num_edges > 0
            assert multiprocessing.active_children() == []

    def test_serial_failure_names_the_spec(self):
        vx = Vertexica()
        schema = social(vx)
        view = GraphView(vertices=NodeSpec("missing_table", key="id"))
        with pytest.raises(GraphViewError, match="node spec"):
            vx.create_graph_view("nope", view)
