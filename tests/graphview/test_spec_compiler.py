"""Unit tests: graph-view specs, SQL lowering, expression rendering."""

from __future__ import annotations

import pytest

from repro.engine.sql.parser import Parser
from repro.engine.sql.lexer import tokenize
from repro.errors import GraphViewError
from repro.graphview import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec
from repro.graphview.compiler import (
    co_edge_query,
    co_edge_side_query,
    edge_spec_queries,
    node_query,
    render_expression,
)


class TestSpecValidation:
    def test_empty_view_rejected(self):
        with pytest.raises(GraphViewError, match="at least one"):
            GraphView()

    def test_bad_identifiers_rejected(self):
        with pytest.raises(GraphViewError, match="identifier"):
            GraphView(vertices=NodeSpec("users; DROP TABLE x", key="id"))
        with pytest.raises(GraphViewError, match="identifier"):
            GraphView(edges=EdgeSpec("follows", src="a b", dst="c"))
        with pytest.raises(GraphViewError, match="identifier"):
            GraphView(name="not a name", edges=EdgeSpec("e", src="a", dst="b"))

    def test_co_spec_member_via_must_differ(self):
        with pytest.raises(GraphViewError, match="different columns"):
            GraphView(edges=CoEdgeSpec("likes", member="post_id", via="post_id"))

    def test_single_specs_promoted_to_tuples(self):
        view = GraphView(
            vertices=NodeSpec("users", key="id"),
            edges=EdgeSpec("follows", src="a", dst="b"),
        )
        assert len(view.vertices) == 1
        assert len(view.edges) == 1

    def test_non_spec_entries_rejected(self):
        with pytest.raises(GraphViewError, match="entries must be"):
            GraphView(edges=["not a spec"])


class TestCompiler:
    def test_node_query_shape(self):
        sql = node_query(NodeSpec("users", key="uid", where="karma > 1"))
        assert sql == (
            "SELECT CAST(uid AS INTEGER) AS id FROM users WHERE karma > 1"
        )

    def test_directed_edge_one_query(self):
        assert len(edge_spec_queries(EdgeSpec("follows", src="a", dst="b"))) == 1

    def test_undirected_edge_two_queries(self):
        spec = EdgeSpec("follows", src="a", dst="b", directed=False)
        forward, backward = edge_spec_queries(spec)
        assert "CAST(a AS INTEGER) AS src" in forward
        assert "CAST(b AS INTEGER) AS src" in backward

    def test_default_weight_is_one(self):
        (sql,) = edge_spec_queries(EdgeSpec("follows", src="a", dst="b"))
        assert "CAST(1.0 AS FLOAT) AS weight" in sql

    def test_co_edge_groups_on_member_pair(self):
        sql = co_edge_query(CoEdgeSpec("likes", member="user_id", via="post_id"))
        # Flat self-join over the base table, grouped on the casted member
        # pair by position so group keys and output see identical values.
        assert "FROM likes AS a JOIN likes AS b ON a.post_id = b.post_id" in sql
        assert "GROUP BY 1, 2" in sql
        assert "COUNT(*)" in sql
        assert "CAST(a.user_id AS INTEGER) <> CAST(b.user_id AS INTEGER)" in sql

    def test_co_edge_filter_qualified_onto_both_sides(self):
        sql = co_edge_query(
            CoEdgeSpec("likes", member="user_id", via="post_id",
                       where="score > 0.5 AND likes.flag = 1")
        )
        assert "(a.score > 0.5)" in sql and "(a.flag = 1)" in sql
        assert "(b.score > 0.5)" in sql and "(b.flag = 1)" in sql

    def test_queries_are_parseable_sql(self, db):
        """Every compiled query must be valid for the engine's parser."""
        from repro.engine.sql.parser import parse_statement

        co_spec = CoEdgeSpec("likes", member="user_id", via="post_id",
                             weight="COUNT(*) + 1", where="post_id > 0")
        statements = [
            node_query(NodeSpec("users", key="id", where="country = 'us'")),
            *edge_spec_queries(
                EdgeSpec("follows", src="a", dst="b", weight="w * 2", directed=False)
            ),
            co_edge_query(co_spec),
            co_edge_side_query(co_spec),
        ]
        for sql in statements:
            parse_statement(sql)  # raises on malformed SQL


def _roundtrip(sql_expr: str) -> str:
    parser = Parser(tokenize(sql_expr))
    return render_expression(parser.parse_expression())


class TestExpressionRenderer:
    @pytest.mark.parametrize(
        "expr",
        [
            "karma > 5.0",
            "a + b * c",
            "country IN ('us', 'de')",
            "name LIKE 'a%'",
            "age BETWEEN 10 AND 20",
            "value IS NOT NULL",
            "NOT (a = 1 OR b = 2)",
            "CASE WHEN x > 0 THEN 1 ELSE 0 END",
            "CAST(x AS FLOAT)",
            "COUNT(*)",
            "COUNT(DISTINCT uid)",
            "COALESCE(x, 0) - 1",
            "'it''s' || 'quoted'",
            "-x",
            "TRUE",
            "NULL",
        ],
    )
    def test_roundtrip_is_stable(self, expr):
        """render(parse(e)) must itself parse, to the same tree."""
        once = _roundtrip(expr)
        assert _roundtrip(once) == once

    def test_precedence_preserved(self):
        rendered = _roundtrip("a + b * c")
        assert rendered == "(a + (b * c))"
