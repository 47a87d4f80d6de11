"""End-to-end SELECT execution tests (parser + planner + operators)."""

import pytest

from repro.engine import Database
from repro.errors import CatalogError, PlanError, TypeMismatchError


@pytest.fixture
def graph_db(db: Database) -> Database:
    db.execute("CREATE TABLE node (id INTEGER, label VARCHAR)")
    db.execute("CREATE TABLE edge (src INTEGER, dst INTEGER, w FLOAT)")
    db.execute(
        "INSERT INTO node VALUES (0,'a'), (1,'b'), (2,'c'), (3,'a'), (4, NULL)"
    )
    db.execute(
        "INSERT INTO edge VALUES (0,1,1.0), (0,2,2.0), (1,2,0.5), (2,3,4.0), (3,0,1.5)"
    )
    return db


class TestProjection:
    def test_expressions_and_aliases(self, graph_db):
        rows = graph_db.execute(
            "SELECT id * 2 AS double_id, label FROM node ORDER BY id LIMIT 2"
        ).rows()
        assert rows == [(0, "a"), (2, "b")]

    def test_select_star(self, graph_db):
        result = graph_db.execute("SELECT * FROM node ORDER BY id")
        assert result.schema.names() == ["id", "label"]
        assert result.row_count == 5

    def test_select_without_from(self, db):
        assert db.execute("SELECT 2 + 3 * 4").scalar() == 14

    def test_duplicate_output_names_uniquified(self, graph_db):
        result = graph_db.execute("SELECT id, id FROM node LIMIT 1")
        assert result.schema.names() == ["id", "id_1"]


class TestWhere:
    def test_comparison(self, graph_db):
        rows = graph_db.execute("SELECT id FROM node WHERE id >= 3 ORDER BY id").rows()
        assert rows == [(3,), (4,)]

    def test_null_predicate_filters_row(self, graph_db):
        # label = 'a' is NULL for the NULL label row; WHERE keeps only TRUE.
        rows = graph_db.execute("SELECT id FROM node WHERE label = 'a' ORDER BY id").rows()
        assert rows == [(0,), (3,)]

    def test_is_null(self, graph_db):
        assert graph_db.execute("SELECT id FROM node WHERE label IS NULL").rows() == [(4,)]

    def test_in_and_between(self, graph_db):
        assert graph_db.execute(
            "SELECT COUNT(*) FROM node WHERE id IN (1, 3)"
        ).scalar() == 2
        assert graph_db.execute(
            "SELECT COUNT(*) FROM node WHERE id BETWEEN 1 AND 3"
        ).scalar() == 3

    def test_like(self, graph_db):
        graph_db.execute("INSERT INTO node VALUES (9, 'abc')")
        assert graph_db.execute(
            "SELECT id FROM node WHERE label LIKE 'ab_'"
        ).rows() == [(9,)]

    def test_where_must_be_boolean(self, graph_db):
        with pytest.raises(TypeMismatchError):
            graph_db.execute("SELECT id FROM node WHERE id + 1")


class TestJoins:
    def test_inner_join(self, graph_db):
        rows = graph_db.execute(
            "SELECT n.label, e.dst FROM node n JOIN edge e ON n.id = e.src "
            "ORDER BY e.src, e.dst"
        ).rows()
        assert rows[0] == ("a", 1)
        assert len(rows) == 5

    def test_left_join_pads_nulls(self, graph_db):
        rows = graph_db.execute(
            "SELECT n.id, e.dst FROM node n LEFT JOIN edge e ON n.id = e.src "
            "WHERE n.id = 4"
        ).rows()
        assert rows == [(4, None)]

    def test_self_join(self, graph_db):
        rows = graph_db.execute(
            "SELECT e1.src, e2.dst FROM edge e1 JOIN edge e2 ON e1.dst = e2.src "
            "ORDER BY 1, 2"
        ).rows()
        assert (0, 2) in rows  # 0->1->2

    def test_join_with_residual_condition(self, graph_db):
        rows = graph_db.execute(
            "SELECT e1.src, e2.src FROM edge e1 JOIN edge e2 "
            "ON e1.dst = e2.dst AND e1.src < e2.src"
        ).rows()
        assert rows == [(0, 1)]  # both 0->2 and 1->2

    def test_cross_join_count(self, graph_db):
        assert graph_db.execute(
            "SELECT COUNT(*) FROM node a CROSS JOIN node b"
        ).scalar() == 25

    def test_non_equi_inner_join_falls_back(self, graph_db):
        rows = graph_db.execute(
            "SELECT COUNT(*) FROM node a JOIN node b ON a.id < b.id"
        ).scalar()
        assert rows == 10

    def test_left_join_requires_equality(self, graph_db):
        with pytest.raises(PlanError, match="LEFT JOIN requires"):
            graph_db.execute("SELECT * FROM node a LEFT JOIN node b ON a.id < b.id")

    def test_null_keys_never_join(self, db):
        db.execute("CREATE TABLE l (k INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER)")
        db.execute("INSERT INTO l VALUES (1), (NULL)")
        db.execute("INSERT INTO r VALUES (1), (NULL)")
        assert db.execute(
            "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k"
        ).scalar() == 1

    def test_derived_table_join(self, graph_db):
        rows = graph_db.execute(
            "SELECT n.id, d.cnt FROM node n "
            "JOIN (SELECT src, COUNT(*) AS cnt FROM edge GROUP BY src) d "
            "ON n.id = d.src ORDER BY n.id"
        ).rows()
        assert rows[0] == (0, 2)


class TestAggregation:
    def test_global_aggregates(self, graph_db):
        row = graph_db.execute(
            "SELECT COUNT(*), SUM(w), MIN(w), MAX(w), AVG(w) FROM edge"
        ).rows()[0]
        assert row == (5, 9.0, 0.5, 4.0, 1.8)

    def test_global_aggregate_on_empty_table(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        row = db.execute("SELECT COUNT(*), SUM(x), MIN(x) FROM t").rows()[0]
        assert row == (0, None, None)

    def test_group_by_with_nulls_grouped(self, graph_db):
        rows = graph_db.execute(
            "SELECT label, COUNT(*) AS c FROM node GROUP BY label ORDER BY c DESC, label"
        ).rows()
        assert rows[0] == ("a", 2)
        assert (None, 1) in rows

    def test_having(self, graph_db):
        rows = graph_db.execute(
            "SELECT src, COUNT(*) AS c FROM edge GROUP BY src HAVING COUNT(*) > 1"
        ).rows()
        assert rows == [(0, 2)]

    def test_count_distinct(self, graph_db):
        assert graph_db.execute(
            "SELECT COUNT(DISTINCT label) FROM node"
        ).scalar() == 3  # NULL not counted

    def test_aggregate_expression_in_projection(self, graph_db):
        value = graph_db.execute("SELECT SUM(w) / COUNT(*) FROM edge").scalar()
        assert value == pytest.approx(1.8)

    def test_group_by_alias_and_position(self, graph_db):
        by_alias = graph_db.execute(
            "SELECT label AS l, COUNT(*) FROM node GROUP BY l ORDER BY 1"
        ).rows()
        by_position = graph_db.execute(
            "SELECT label, COUNT(*) FROM node GROUP BY 1 ORDER BY 1"
        ).rows()
        assert by_alias == by_position

    def test_ungrouped_column_rejected(self, graph_db):
        with pytest.raises(PlanError, match="GROUP BY"):
            graph_db.execute("SELECT label, id, COUNT(*) FROM node GROUP BY label")

    def test_nested_aggregate_rejected(self, graph_db):
        with pytest.raises(PlanError, match="nested aggregate"):
            graph_db.execute("SELECT SUM(COUNT(*)) FROM node")

    def test_stddev(self, db):
        db.execute("CREATE TABLE t (x FLOAT)")
        db.execute("INSERT INTO t VALUES (1.0), (2.0), (3.0)")
        assert db.execute("SELECT STDDEV(x) FROM t").scalar() == pytest.approx(1.0)

    def test_aggregates_ignore_nulls(self, db):
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (NULL), (3)")
        row = db.execute("SELECT COUNT(x), SUM(x), AVG(x) FROM t").rows()[0]
        assert row == (2, 4, 2.0)


class TestOrderLimitDistinct:
    def test_order_by_multiple_keys(self, graph_db):
        rows = graph_db.execute(
            "SELECT label, id FROM node ORDER BY label DESC, id ASC"
        ).rows()
        # NULL label sorts as largest -> first under DESC.
        assert rows[0] == (None, 4)
        assert rows[-1] == ("a", 3)

    def test_order_by_expression_not_in_select(self, graph_db):
        rows = graph_db.execute("SELECT id FROM node ORDER BY id * -1").rows()
        assert [r[0] for r in rows] == [4, 3, 2, 1, 0]

    def test_order_by_alias(self, graph_db):
        rows = graph_db.execute(
            "SELECT id * 2 AS d FROM node ORDER BY d DESC LIMIT 1"
        ).rows()
        assert rows == [(8,)]

    def test_limit_offset(self, graph_db):
        rows = graph_db.execute(
            "SELECT id FROM node ORDER BY id LIMIT 2 OFFSET 1"
        ).rows()
        assert rows == [(1,), (2,)]

    def test_distinct(self, graph_db):
        rows = graph_db.execute("SELECT DISTINCT label FROM node ORDER BY label").rows()
        assert rows == [("a",), ("b",), ("c",), (None,)]

    def test_sort_stability(self, db):
        db.execute("CREATE TABLE t (k INTEGER, seq INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 1), (1, 2), (1, 3), (0, 4)")
        rows = db.execute("SELECT seq FROM t ORDER BY k").rows()
        assert [r[0] for r in rows] == [4, 1, 2, 3]


class TestSetOperations:
    def test_union_all_keeps_duplicates(self, graph_db):
        count = graph_db.execute(
            "SELECT src FROM edge UNION ALL SELECT dst FROM edge"
        ).row_count
        assert count == 10

    def test_union_dedups(self, graph_db):
        rows = graph_db.execute(
            "SELECT src FROM edge UNION SELECT dst FROM edge ORDER BY 1"
        ).rows()
        assert rows == [(0,), (1,), (2,), (3,)]

    def test_union_incompatible_schemas(self, graph_db):
        with pytest.raises(TypeMismatchError):
            graph_db.execute("SELECT id FROM node UNION SELECT label FROM node")


class TestMisc:
    def test_unknown_table(self, db):
        with pytest.raises(CatalogError, match="unknown table"):
            db.execute("SELECT * FROM ghosts")

    def test_unknown_column(self, graph_db):
        with pytest.raises(CatalogError, match="unknown column"):
            graph_db.execute("SELECT nope FROM node")

    def test_explain_produces_tree(self, graph_db):
        plan = graph_db.explain(
            "SELECT label, COUNT(*) FROM node WHERE id > 0 GROUP BY label"
        )
        assert "Aggregate" in plan and "Filter" in plan and "TableScan" in plan

    def test_case_expression(self, graph_db):
        rows = graph_db.execute(
            "SELECT id, CASE WHEN id < 2 THEN 'low' WHEN id < 4 THEN 'mid' "
            "ELSE 'high' END AS bucket FROM node ORDER BY id"
        ).rows()
        assert [r[1] for r in rows] == ["low", "low", "mid", "mid", "high"]

    def test_division_by_zero_is_null(self, db):
        assert db.execute("SELECT 1 / 0").scalar() is None
        assert db.execute("SELECT 1.0 / 0.0").scalar() is None

    def test_division_returns_float(self, db):
        assert db.execute("SELECT 7 / 2").scalar() == 3.5

    def test_modulo(self, db):
        assert db.execute("SELECT 7 % 3").scalar() == 1

    def test_modulo_matches_sqlite(self, db):
        # The remainder takes the dividend's sign (sqlite3, PostgreSQL and
        # Vertica agree); a zero divisor gives NULL in both engines.
        import sqlite3

        pairs = [(a, b) for a in (-9, -7, -1, 0, 1, 7, 9) for b in (-4, -3, -1, 0, 1, 3, 4)]
        pairs.append(("-9223372036854775807 - 1", -1))  # INT64_MIN % -1 is 0
        items = ", ".join(f"({a}) % ({b})" for a, b in pairs)
        got = db.execute(f"SELECT {items}").rows()
        with sqlite3.connect(":memory:") as conn:
            expected = conn.execute(f"SELECT {items}").fetchall()
        assert got == expected
        assert db.execute("SELECT -7.5 % 2.0, 7.5 % -2.0, 7.0 % 0.0").rows() == [
            (-1.5, 1.5, None)
        ]

    def test_three_valued_logic(self, db):
        assert db.execute("SELECT NULL AND FALSE").scalar() is False
        assert db.execute("SELECT NULL AND TRUE").scalar() is None
        assert db.execute("SELECT NULL OR TRUE").scalar() is True
        assert db.execute("SELECT NULL OR FALSE").scalar() is None
