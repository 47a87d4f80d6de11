"""Property-based tests (hypothesis) for core engine invariants.

Strategy: generate random data, run it through the engine, and compare
against straightforward Python oracles — the SQL engine must agree with
plain ``sorted()``, ``sum()``, dict-based grouping, and set algebra on
every input hypothesis can dream up.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.column import Column, concat_columns
from repro.engine.operators import factorize_columns
from repro.engine.types import FLOAT, INTEGER, VARCHAR

# Example budgets are the ``repro`` / ``sweep`` profiles of tests/conftest.py.

INT64 = np.iinfo(np.int64)
int64s = st.integers(min_value=int(INT64.min), max_value=int(INT64.max))
int_or_none = st.one_of(st.none(), int64s)
#: Addends no 64 of which can overflow an int64 SUM.
summable = st.integers(min_value=int(INT64.min) // 64, max_value=int(INT64.max) // 64)
small_text = st.text(alphabet="abcxyz", max_size=4)


def fresh_db_with(values: list[int | None]) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (x INTEGER)")
    if values:
        placeholders = ", ".join(["(?)"] * len(values))
        db.execute(f"INSERT INTO t VALUES {placeholders}", params=tuple(values))
    return db


class TestColumnProperties:
    @given(st.lists(int_or_none, max_size=50))
    def test_roundtrip(self, values):
        assert Column.from_values(INTEGER, values).to_list() == values

    @given(st.lists(int_or_none, max_size=30), st.lists(int_or_none, max_size=30))
    def test_concat_is_list_concat(self, a, b):
        col = concat_columns(
            [Column.from_values(INTEGER, a), Column.from_values(INTEGER, b)]
        )
        assert col.to_list() == a + b

    @given(st.lists(int_or_none, min_size=1, max_size=50), st.data())
    def test_take_matches_indexing(self, values, data):
        col = Column.from_values(INTEGER, values)
        indices = data.draw(
            st.lists(st.integers(0, len(values) - 1), max_size=30)
        )
        taken = col.take(np.array(indices, dtype=np.int64))
        assert taken.to_list() == [values[i] for i in indices]

    @given(st.lists(st.booleans(), max_size=50))
    def test_filter_matches_compress(self, mask):
        values = list(range(len(mask)))
        col = Column.from_values(INTEGER, values)
        kept = col.filter(np.array(mask, dtype=bool))
        assert kept.to_list() == [v for v, keep in zip(values, mask) if keep]


class TestFactorize:
    @given(st.lists(int_or_none, min_size=1, max_size=60))
    def test_codes_group_equal_values(self, values):
        col = Column.from_values(INTEGER, values)
        codes, n_groups = factorize_columns([col])
        assert len(codes) == len(values)
        assert codes.min() >= 0 and codes.max() < n_groups
        # same value (NULLs equal) <=> same code
        by_value: dict[object, int] = {}
        for value, code in zip(values, codes):
            key = ("null",) if value is None else value
            if key in by_value:
                assert by_value[key] == code
            else:
                by_value[key] = code
        assert len(by_value) == n_groups

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["a", "b", "c"])),
            min_size=1,
            max_size=50,
        )
    )
    def test_multi_column_codes_match_tuple_identity(self, pairs):
        col_a = Column.from_values(INTEGER, [p[0] for p in pairs])
        col_b = Column.from_values(VARCHAR, [p[1] for p in pairs])
        codes, n_groups = factorize_columns([col_a, col_b])
        mapping: dict[tuple, int] = {}
        for pair, code in zip(pairs, codes):
            assert mapping.setdefault(pair, code) == code
        assert len(mapping) == n_groups


class TestSqlAgainstPythonOracles:
    @given(st.lists(int_or_none, max_size=40))
    def test_aggregates(self, values):
        db = fresh_db_with(values)
        row = db.execute("SELECT COUNT(*), COUNT(x), MIN(x), MAX(x) FROM t").rows()[0]
        non_null = [v for v in values if v is not None]
        assert row[0] == len(values)
        assert row[1] == len(non_null)
        assert row[2] == (min(non_null) if non_null else None)
        assert row[3] == (max(non_null) if non_null else None)

    @given(st.lists(st.one_of(st.none(), summable), max_size=40))
    def test_sum(self, values):
        db = fresh_db_with(values)
        non_null = [v for v in values if v is not None]
        assert db.execute("SELECT SUM(x) FROM t").scalar() == (sum(non_null) if non_null else None)

    @given(st.lists(int64s, max_size=40))
    def test_order_by_matches_sorted(self, values):
        db = fresh_db_with(values)
        rows = db.execute("SELECT x FROM t ORDER BY x").rows()
        assert [r[0] for r in rows] == sorted(values)
        rows = db.execute("SELECT x FROM t ORDER BY x DESC").rows()
        assert [r[0] for r in rows] == sorted(values, reverse=True)

    @given(st.lists(st.integers(-20, 20), max_size=40))
    def test_distinct_matches_set(self, values):
        db = fresh_db_with(values)
        rows = db.execute("SELECT DISTINCT x FROM t").rows()
        assert sorted(r[0] for r in rows) == sorted(set(values))

    @given(st.lists(st.integers(-20, 20), max_size=40), st.integers(-20, 20))
    def test_where_matches_comprehension(self, values, pivot):
        db = fresh_db_with(values)
        count = db.execute("SELECT COUNT(*) FROM t WHERE x > ?", params=(pivot,)).scalar()
        assert count == len([v for v in values if v > pivot])

    @given(st.lists(int_or_none, min_size=1, max_size=6), st.data())
    def test_group_by_matches_dict(self, key_pool, data):
        pairs = data.draw(
            st.lists(st.tuples(st.sampled_from(key_pool), summable), max_size=40)
        )
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        for k, v in pairs:
            db.execute("INSERT INTO t VALUES (?, ?)", params=(k, v))
        rows = db.execute(
            "SELECT k, SUM(v), COUNT(*), MIN(v), MAX(v) FROM t GROUP BY k"
        ).rows()
        oracle: dict[int | None, list[int]] = {}
        for k, v in pairs:
            oracle.setdefault(k, []).append(v)
        assert len(rows) == len(oracle)
        for k, total, count, lo, hi in rows:
            group = oracle[k]
            assert (total, count, lo, hi) == (sum(group), len(group), min(group), max(group))

    @given(
        st.lists(st.integers(0, 8), max_size=25),
        st.lists(st.integers(0, 8), max_size=25),
    )
    def test_join_matches_nested_loop(self, left, right):
        db = Database()
        db.execute("CREATE TABLE l (x INTEGER)")
        db.execute("CREATE TABLE r (y INTEGER)")
        for v in left:
            db.execute("INSERT INTO l VALUES (?)", params=(v,))
        for v in right:
            db.execute("INSERT INTO r VALUES (?)", params=(v,))
        got = db.execute(
            "SELECT l.x, r.y FROM l JOIN r ON l.x = r.y ORDER BY 1, 2"
        ).rows()
        oracle = sorted((a, b) for a in left for b in right if a == b)
        assert got == oracle

    @given(
        st.lists(st.integers(0, 8), max_size=20),
        st.lists(st.integers(0, 8), max_size=20),
    )
    def test_left_join_covers_all_left_rows(self, left, right):
        db = Database()
        db.execute("CREATE TABLE l (x INTEGER)")
        db.execute("CREATE TABLE r (y INTEGER)")
        for v in left:
            db.execute("INSERT INTO l VALUES (?)", params=(v,))
        for v in right:
            db.execute("INSERT INTO r VALUES (?)", params=(v,))
        rows = db.execute("SELECT l.x, r.y FROM l LEFT JOIN r ON l.x = r.y").rows()
        right_set = set(right)
        expected = sum(
            max(right.count(v), 1) if v in right_set else 1 for v in left
        )
        assert len(rows) == expected
        # unmatched rows padded with NULL
        for x, y in rows:
            assert y is None or y == x

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30))
    def test_avg_matches_mean(self, values):
        db = Database()
        db.execute("CREATE TABLE t (x FLOAT)")
        for v in values:
            db.execute("INSERT INTO t VALUES (?)", params=(v,))
        avg = db.execute("SELECT AVG(x) FROM t").scalar()
        assert avg == pytest.approx(sum(values) / len(values), abs=1e-9)

    @given(st.lists(st.integers(-1000, 1000), max_size=30))
    def test_union_all_is_multiset_sum(self, values):
        db = fresh_db_with(values)
        total = db.execute(
            "SELECT COUNT(*) FROM (SELECT x FROM t UNION ALL SELECT x FROM t) u"
        ).scalar()
        assert total == 2 * len(values)
