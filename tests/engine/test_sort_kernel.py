"""The stable integer-order kernel equals the lexsort it replaces.

:func:`~repro.engine.operators.stable_int_order` sorts integer keys by
radix passes (or merges a key's few presorted runs) and must return
*exactly* ``np.lexsort(reversed(keys))`` — the permutation every caller
(``GROUP BY``, ``ORDER BY``, ``hash_bucket_order``, the hash-join build
side, the shard plane's merges) had before.  This module pins:

* kernel == lexsort, property-based, over 1-4 keys of every integer
  width, the full int64 range, bool, presorted runs, empty/one-row/
  constant keys, and sizes on both sides of the cut-over; and
  ``hash_bucket_order`` against a lexsort reference;
* which path runs: radix at or above the cut-over, a merge for a few
  runs, lexsort below the cut-over, past the pass budget, or for a
  non-integer key;
* SQL over cut-over-sized tables (``GROUP BY`` / ``ORDER BY``) against
  Python oracles;
* a hardware-independent gate: on a SQL-plane PageRank the message
  ``GROUP BY dst`` factorizes nothing and no comparison sort runs over
  cut-over-sized integer rows, apart from merges of a few presorted runs
  and the hash join's key factorize, which this kernel does not claim.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Vertexica
from repro.engine import Database, operators
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.operators import hash_bucket_order, stable_int_order
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import INTEGER, VARCHAR
from repro.programs import PageRank

INT64 = np.iinfo(np.int64)
CUT = operators._RADIX_MIN_ROWS


def lexsort(keys) -> np.ndarray:
    return np.lexsort(tuple(reversed(tuple(keys))))


# ---------------------------------------------------------------------------
# kernel == lexsort
# ---------------------------------------------------------------------------
@st.composite
def key_sets(draw):
    """1-4 aligned integer keys; row count either small (0-40) or around
    the cut-over.  Values come from a seeded generator — Hypothesis picks
    the shape, the seed and the value range of every key."""
    n = draw(st.one_of(st.integers(0, 40), st.integers(CUT - 3, CUT + 500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["full", "span", "runs", "extremes", "constant", "bool", "narrow", "uint64"]
        ))
        if kind == "full":
            key = rng.integers(INT64.min, INT64.max, n, dtype=np.int64, endpoint=True)
        elif kind == "span":
            lo = draw(st.integers(INT64.min, INT64.max))
            hi = min(lo + draw(st.integers(0, 2**40)), INT64.max)
            key = rng.integers(lo, hi, n, dtype=np.int64, endpoint=True)
        elif kind == "runs":  # a few ascending runs, around the merge cut-over
            key = rng.integers(-50, 2**20, n)
            runs = np.split(key, np.sort(rng.integers(0, n + 1, draw(st.integers(0, 12)))))
            key = np.concatenate([np.sort(run) for run in runs])
        elif kind == "extremes":
            pool = np.array([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max])
            key = rng.choice(pool, n)
        elif kind == "constant":
            key = np.full(n, draw(st.integers(INT64.min, INT64.max)), dtype=np.int64)
        elif kind == "bool":
            key = rng.integers(0, 2, n).astype(bool)
        elif kind == "narrow":
            dtype = draw(st.sampled_from([np.int8, np.uint8, np.int16, np.int32, np.uint32]))
            info = np.iinfo(dtype)
            key = rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True)
        else:
            key = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
        keys.append(key)
    return keys


class TestKernelEqualsLexsort:
    @given(key_sets())
    def test_same_permutation(self, keys):
        assert np.array_equal(stable_int_order(keys), lexsort(keys))

    @given(key_sets(), st.integers(1, 9))
    def test_hash_bucket_order_unchanged(self, keys, n_buckets):
        buckets = keys[0].astype(np.int64) % n_buckets
        order, bounds = hash_bucket_order(buckets, n_buckets, keys[1:])
        expected = np.lexsort(tuple(reversed(keys[1:])) + (buckets,))
        assert np.array_equal(order, expected)
        assert np.array_equal(
            bounds, np.searchsorted(buckets[expected], np.arange(n_buckets + 1))
        )

    @pytest.mark.parametrize("n", [0, 1, CUT - 1, CUT, 5 * CUT])
    def test_edge_sizes(self, n):
        rng = np.random.default_rng(n)
        for keys in (
            [rng.integers(-5, 5, n)],
            [np.full(n, INT64.min), rng.integers(0, 3, n)],
            [np.full(n, 7)],
        ):
            assert np.array_equal(stable_int_order(keys), lexsort(keys))


class TestWhichPathRuns:
    def _lexsorts(self, keys) -> int:
        expected = lexsort(keys)
        with mock.patch.object(operators.np, "lexsort", wraps=np.lexsort) as spy:
            assert np.array_equal(stable_int_order(keys), expected)
        return spy.call_count

    def test_radix_at_the_cut_over(self):
        rng = np.random.default_rng(3)
        # 17-bit ids under 2-bit buckets: three passes.
        ids = rng.integers(0, 70_000, CUT)
        assert self._lexsorts([ids % 4, ids]) == 0
        # One full-range int64 key: four passes.
        assert self._lexsorts([rng.integers(INT64.min, INT64.max, CUT)]) == 0
        # Constant keys take no pass at all.
        assert self._lexsorts([np.zeros(CUT, dtype=np.int64), np.ones(CUT, dtype=bool)]) == 0

    def test_few_runs_merge(self):
        rng = np.random.default_rng(5)
        runs = [np.sort(rng.integers(0, 70_000, CUT)) for _ in range(3)]
        keys = [np.concatenate(runs)]
        with mock.patch.object(operators.np, "argsort", wraps=np.argsort) as spy:
            assert self._lexsorts(keys) == 0
        (call,) = spy.call_args_list
        assert call.args[0].dtype == np.int64  # one timsort, no digit passes

    def test_lexsort_below_the_cut_over(self):
        assert self._lexsorts([np.arange(CUT - 1)[::-1]]) == 1

    def test_lexsort_past_the_pass_budget(self):
        rng = np.random.default_rng(4)
        wide = rng.integers(INT64.min, INT64.max, CUT)
        assert self._lexsorts([np.arange(CUT) % 2, wide]) == 1

    def test_lexsort_for_a_float_key(self):
        assert self._lexsorts([np.zeros(CUT, dtype=np.int64), np.linspace(1, 0, CUT)]) == 1


# ---------------------------------------------------------------------------
# SQL over cut-over-sized tables
# ---------------------------------------------------------------------------
def table_db(k: Column, x: Column) -> Database:
    db = Database()
    db.execute(f"CREATE TABLE t (k {k.dtype.name}, x INTEGER)")
    schema = Schema([ColumnDef("k", k.dtype), ColumnDef("x", INTEGER)])
    db.insert_batch("t", RecordBatch(schema, [k, x]))
    return db


def group_oracle(keys: list, xs: list) -> list[tuple]:
    groups: dict = {}
    for key, x in zip(keys, xs):
        groups.setdefault(key, []).append(x)
    return [(key, len(v), min(v), max(v), sum(v)) for key, v in groups.items()]


class TestSqlAtScale:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    def test_group_by_and_order_by_match_python(self, seed, n_keys):
        rng = np.random.default_rng(seed)
        n = CUT + int(rng.integers(0, 400))
        pool = rng.integers(INT64.min, INT64.max, n_keys, endpoint=True)
        keys = rng.choice(pool, n)
        xs = rng.integers(INT64.min // n, INT64.max // n, n)  # SUM cannot overflow
        db = table_db(Column.from_numpy(INTEGER, keys), Column.from_numpy(INTEGER, xs))
        rows = db.execute(
            "SELECT k, COUNT(*), MIN(x), MAX(x), SUM(x) FROM t GROUP BY k"
        ).rows()
        expected = group_oracle(keys.tolist(), xs.tolist())
        assert rows == sorted(expected)  # groups come out in key order
        # Ties keep input order: ORDER BY is a stable sort, like sorted().
        got = db.execute("SELECT k, x FROM t ORDER BY k DESC").rows()
        assert got == sorted(zip(keys.tolist(), xs.tolist()), key=lambda r: -r[0])


# ---------------------------------------------------------------------------
# The gate: no factorize and no comparison sort on the SQL plane's hot path
# ---------------------------------------------------------------------------
class SortSpy:
    """Counts, by monkeypatching ``repro.engine.operators``' module globals,
    ``factorize_columns`` calls made under ``AggregateOp.execute`` and every
    comparison sort (``np.unique``/``np.lexsort``/``np.sort``, or an
    ``np.argsort`` that is neither a radix sort of 8/16-bit digits nor a
    merge of a few presorted runs) the module runs over ``>= CUT`` integer
    rows outside the hash join's ``_join_codes``."""

    def __init__(self, monkeypatch) -> None:
        self.aggregate_factorizes = 0
        self.aggregates_at_scale = 0
        self.radix_passes = 0
        self.comparison_sorts: list[tuple[str, int, str]] = []
        self._in_aggregate = 0
        self._in_join = 0
        real_np = operators.np
        spy = self

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(real_np, name)

            @staticmethod
            def argsort(a, *args, **kwargs):
                a = np.asarray(a)
                if kwargs.get("kind") != "stable":
                    spy._record("argsort", a)
                elif a.dtype.itemsize <= 2:
                    spy.radix_passes += 1
                elif np.count_nonzero(a[1:] < a[:-1]) >= operators._MERGE_MAX_RUNS:
                    spy._record("argsort", a)  # a timsort, but not of a few runs
                return real_np.argsort(a, *args, **kwargs)

            @staticmethod
            def lexsort(keys, *args, **kwargs):
                for key in keys:
                    spy._record("lexsort", key)
                return real_np.lexsort(keys, *args, **kwargs)

            @staticmethod
            def unique(a, *args, **kwargs):
                spy._record("unique", a)
                return real_np.unique(a, *args, **kwargs)

            @staticmethod
            def sort(a, *args, **kwargs):
                spy._record("sort", a)
                return real_np.sort(a, *args, **kwargs)

        monkeypatch.setattr(operators, "np", CountingNumpy())
        self._wrap(monkeypatch, operators, "factorize_columns", self._on_factorize)
        self._wrap(monkeypatch, operators, "stable_int_order", self._on_kernel)
        self._wrap(monkeypatch, operators, "_join_codes", self._nest("_in_join"))
        self._wrap(monkeypatch, operators.AggregateOp, "execute", self._nest("_in_aggregate"))

    @staticmethod
    def _wrap(monkeypatch, owner, name, around) -> None:
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: around(original, *a, **kw))

    def _nest(self, flag: str):
        def around(original, *args, **kwargs):
            setattr(self, flag, getattr(self, flag) + 1)
            try:
                return original(*args, **kwargs)
            finally:
                setattr(self, flag, getattr(self, flag) - 1)

        return around

    def _on_factorize(self, original, *args, **kwargs):
        if self._in_aggregate and not self._in_join:
            self.aggregate_factorizes += 1
        return original(*args, **kwargs)

    def _on_kernel(self, original, keys):
        if self._in_aggregate:
            self.aggregates_at_scale += len(keys[0]) >= CUT
        return original(keys)

    def _record(self, name: str, a) -> None:
        a = np.asarray(a)
        if not self._in_join and len(a) >= CUT and a.dtype.kind in "biu":
            self.comparison_sorts.append((name, len(a), a.dtype.str))


class TestSqlPlaneGate:
    def test_pagerank_sql_sorts_no_int_rows_by_comparison(self, monkeypatch):
        rng = np.random.default_rng(7)
        n, m = 2_000, 12_000
        vx = Vertexica()
        graph = vx.load_graph("g", rng.integers(0, n, m), rng.integers(0, n, m), num_vertices=n)
        spy = SortSpy(monkeypatch)
        result = vx.run(graph, PageRank(iterations=3))
        assert result.stats.n_supersteps == 4
        # Every superstep's message GROUP BY dst (>= CUT staged rows) plus
        # the set-up's out-degree GROUP BY src ran; none factorized.
        assert spy.aggregates_at_scale >= 4
        assert spy.aggregate_factorizes == 0
        assert spy.comparison_sorts == []
        assert spy.radix_passes > 0

    @pytest.mark.parametrize("key_type", ["nullable", "varchar"])
    def test_other_group_keys_still_factorize(self, monkeypatch, key_type):
        rng = np.random.default_rng(9)
        n = CUT + 100
        raw = rng.integers(0, 50, n)
        xs = rng.integers(-1000, 1000, n)
        if key_type == "nullable":
            valid = raw % 7 != 0
            key_col = Column(INTEGER, raw, valid)
            keys = [int(k) if ok else None for k, ok in zip(raw, valid)]
        else:
            keys = [f"k{k}" for k in raw]
            key_col = Column.from_values(VARCHAR, keys)
        db = table_db(key_col, Column.from_numpy(INTEGER, xs))
        spy = SortSpy(monkeypatch)
        rows = db.execute("SELECT k, COUNT(*), MIN(x), MAX(x), SUM(x) FROM t GROUP BY k").rows()
        assert spy.aggregate_factorizes == 1
        expected = group_oracle(keys, xs.tolist())
        # Groups in key order, NULL last (its code follows every value's).
        assert rows == sorted(expected, key=lambda r: (r[0] is None, r[0] or 0))
