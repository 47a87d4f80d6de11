"""The stable integer-order kernel equals the lexsort it replaces.

:func:`~repro.engine.operators.stable_int_order` sorts integer keys by one
packed ``uint64`` sort (or merges a few presorted runs, or runs 16-bit
digit passes for keys too wide for the word) and must return *exactly*
``np.lexsort(reversed(keys))`` — the permutation every caller
(``GROUP BY``, ``ORDER BY``, ``hash_bucket_order``, the hash-join build
side, the shard plane's merges) had before.  This module pins:

* kernel == lexsort, property-based, over 1-4 keys of every integer
  width, the full int64 range, bool, presorted runs, empty/one-row/
  constant keys, and sizes on both sides of the cut-over; and
  ``hash_bucket_order`` against a lexsort reference;
* which path runs: nothing for presorted keys, a merge for a few runs,
  one radix pass for a key word of at most 16 bits, one packed sort when
  ``index bits + key bits <= 64`` (property-based at 63, 64 and 65 bits),
  digit passes past that, and lexsort below the cut-over, past 64 key
  bits, or for a non-integer key;
* ``unique_ints`` == a ``np.union1d`` fold, ``int_runs`` marks each
  distinct key's first row and ``_column_codes`` == ``np.unique``'s
  inverse (NULLs one last group), property-based;
* SQL over cut-over-sized tables (``GROUP BY`` / ``ORDER BY``) against
  Python oracles;
* hardware-independent gates: on a SQL-plane PageRank, a ``load_graph``
  and a ``create_graph_view``, every at-scale kernel call runs one sort
  over its rows (or none), and no ``np.unique`` / ``np.union1d``, no
  at-scale ``np.lexsort`` and no at-scale integer ``np.sort`` /
  ``np.argsort`` outside the kernel and ``unique_ints`` runs; the
  message ``GROUP BY dst`` factorizes nothing; incremental refreshes of
  a node + edge + co-occurrence view call no ``np.unique`` /
  ``np.union1d`` either.
"""


from __future__ import annotations

import functools
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec
from repro.core import Vertexica
from repro.engine import Database, operators
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.operators import hash_bucket_order, stable_int_order, unique_ints
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import FLOAT, INTEGER, VARCHAR
from repro.programs import PageRank

INT64 = np.iinfo(np.int64)
CUT = operators._KERNEL_MIN_ROWS


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


def kernel_calls(keys) -> list[tuple]:
    """The numpy sorts one :func:`stable_int_order` call runs, recorded by
    patching ``repro.engine.operators``' ``np`` global, after checking the
    call against lexsort: ``("sort", dtype, kind)``, ``("argsort", dtype,
    kind)`` and ``("lexsort", n_keys)`` tuples."""
    real_np = operators.np
    calls: list[tuple] = []

    class Recording:
        def __getattr__(self, name):
            return getattr(real_np, name)

        @staticmethod
        def sort(a, *args, kind=None, **kwargs):
            calls.append(("sort", np.asarray(a).dtype.str, kind))
            return real_np.sort(a, *args, kind=kind, **kwargs)

        @staticmethod
        def argsort(a, *args, kind=None, **kwargs):
            calls.append(("argsort", np.asarray(a).dtype.str, kind))
            return real_np.argsort(a, *args, kind=kind, **kwargs)

        @staticmethod
        def lexsort(keys, *args, **kwargs):
            calls.append(("lexsort", len(keys)))
            return real_np.lexsort(keys, *args, **kwargs)

    with mock.patch.object(operators, "np", Recording()):
        order = stable_int_order(keys)
    assert order.dtype == np.int64
    assert np.array_equal(order, lexsort(keys))
    return calls


PACKED = [("sort", "<u8", None)]
MERGED = [("argsort", "<u8", "stable")]
ONE_BYTE = [("argsort", "|u1", "stable")]
ONE_DIGIT = [("argsort", "<u2", "stable")]


class TestWhichPathRuns:
    def test_packed_at_the_cut_over(self):
        rng = np.random.default_rng(3)
        # 17-bit ids under 2-bit buckets, 11 index bits: one packed sort.
        ids = rng.integers(0, 70_000, CUT)
        assert kernel_calls([ids % 4, ids]) == PACKED
        # Bool, narrow, unsigned and negative keys pack alike.
        keys = [ids % 2 == 0, (ids % 256).astype(np.uint8), ids.astype(np.uint32), -ids]
        assert kernel_calls(keys) == PACKED

    def test_presorted_keys_take_no_sort(self):
        assert kernel_calls([np.zeros(CUT, dtype=np.int64), np.ones(CUT, dtype=bool)]) == []
        assert kernel_calls([np.arange(CUT) // 7, np.arange(CUT) % 7]) == []

    def test_a_presorted_last_key_drops_out(self):
        rng = np.random.default_rng(6)
        # 2-bit buckets beside 64 more bits would lexsort.
        wide = rng.integers(INT64.min, INT64.max, CUT)
        assert kernel_calls([rng.integers(0, 4, CUT), np.sort(wide)]) == ONE_BYTE

    def test_one_radix_pass_for_a_word_of_16_bits(self):
        rng = np.random.default_rng(9)
        ids = rng.integers(0, 2**13, 4 * CUT)
        assert kernel_calls([ids % 4, ids % 64]) == ONE_BYTE
        assert kernel_calls([ids % 8, ids]) == ONE_DIGIT
        assert kernel_calls([ids % 16, ids]) == PACKED

    def test_few_runs_merge(self):
        rng = np.random.default_rng(5)
        runs = [np.sort(rng.integers(0, 70_000, CUT)) for _ in range(3)]
        assert kernel_calls([np.concatenate(runs)]) == MERGED
        # Runs of the whole key tuple, not of each key, decide.
        buckets = np.repeat([1, 0], CUT)
        ids = np.concatenate(runs[:2])
        assert kernel_calls([buckets, ids]) == MERGED
        # So does a key too wide to carry the row index.
        wide = [np.sort(rng.integers(INT64.min, INT64.max, CUT)) for _ in range(3)]
        assert kernel_calls([np.concatenate(wide)]) == MERGED

    def test_digit_passes_past_the_packed_word(self):
        rng = np.random.default_rng(8)
        # One full-range int64 key: four 16-bit passes.
        assert kernel_calls([rng.integers(INT64.min, INT64.max, CUT)]) == ONE_DIGIT * 4
        # 11 index bits beside 9 + 45 key bits: four passes (the top one a byte).
        keys = [rng.integers(0, 2**9, CUT), rng.integers(0, 2**45, CUT)]
        assert kernel_calls(keys) == ONE_DIGIT * 3 + ONE_BYTE

    def test_lexsort_below_the_cut_over(self):
        assert kernel_calls([np.arange(CUT - 1)[::-1]]) == [("lexsort", 1)]

    def test_lexsort_past_64_key_bits(self):
        rng = np.random.default_rng(4)
        wide = rng.integers(INT64.min, INT64.max, CUT)
        assert kernel_calls([np.arange(CUT) % 2, wide]) == [("lexsort", 2)]

    def test_lexsort_for_a_float_key(self):
        keys = [np.zeros(CUT, dtype=np.int64), np.linspace(1, 0, CUT)]
        assert kernel_calls(keys) == [("lexsort", 2)]


@st.composite
def word_sized_keys(draw):
    """A bool key, an unsigned key and an all-negative int64 key whose span
    bit lengths plus the row-index bits add up to 63, 64 or 65 — either
    side of the packed word's edge — in a drawn key order."""
    n = draw(st.integers(CUT, CUT + 600))
    total = draw(st.sampled_from([63, 64, 65]))
    free = total - (n - 1).bit_length() - 1  # the bool key spans one bit
    u_bits = draw(st.integers(1, free - 1))
    neg_bits = free - u_bits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = rng.integers(0, 2, n).astype(bool)
    u_lo = draw(st.integers(0, 2**64 - 2**u_bits))
    unsigned = (rng.integers(0, 2**u_bits, n, dtype=np.uint64) + np.uint64(u_lo)).astype(np.uint64)
    negative = rng.integers(-(2**neg_bits), 0, n, dtype=np.int64)
    # Pin each key's span at exactly its bit length.
    flags[:2] = (False, True)
    unsigned[:2] = (u_lo, u_lo + 2**u_bits - 1)
    negative[:2] = (-(2**neg_bits), -1)
    rows = rng.permutation(n)
    keys = [flags[rows], unsigned[rows], negative[rows]]
    keys = [keys[i] for i in draw(st.permutations(range(3)))]
    return total, keys


class TestPackedWordEdge:
    @given(word_sized_keys())
    def test_packed_iff_the_word_fits(self, case):
        total, keys = case
        calls = kernel_calls(keys)  # asserts kernel == lexsort
        if total <= 64:
            assert calls == PACKED
        else:  # a 53- or 54-bit word: four digit passes
            assert calls == ONE_DIGIT * 3 + ONE_BYTE


# ---------------------------------------------------------------------------
# Set and rank helpers == numpy's hash/compare-based originals
# ---------------------------------------------------------------------------
@st.composite
def int_array_sets(draw):
    """0-4 int64 arrays (some empty) over a dense span, a sparse span, or
    the int64 extremes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from([0, 1, 5, 300, CUT + 7]))
        kind = draw(st.sampled_from(["dense", "sparse", "extremes"]))
        if kind == "dense":
            lo = draw(st.integers(-(2**40), 2**40))
            arrays.append(rng.integers(lo, lo + max(n, 1), n))
        elif kind == "sparse":
            arrays.append(rng.integers(INT64.min, INT64.max, n, endpoint=True))
        else:
            pool = np.array([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max])
            arrays.append(rng.choice(pool, n))
    return arrays


class TestSetOps:
    @given(int_array_sets())
    def test_unique_ints_is_the_union(self, arrays):
        expected = functools.reduce(np.union1d, arrays, np.empty(0, dtype=np.int64))
        got = unique_ints(*arrays)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 40, CUT + 7]), st.integers(1, 3))
    def test_int_runs_mark_each_keys_first_row(self, seed, n, n_keys):
        rng = np.random.default_rng(seed)
        pool = np.array([INT64.min, -1, 0, 1, 2**32, INT64.max])
        keys = [rng.choice(pool, n) for _ in range(n_keys)]
        order, starts = operators.int_runs(keys)
        assert np.array_equal(order, np.lexsort(tuple(reversed(keys))))
        first: dict = {}
        for row, key in enumerate(zip(*(key.tolist() for key in keys))):
            first.setdefault(key, row)
        assert order[starts].tolist() == [first[key] for key in sorted(first)]

    @given(int_array_sets(), st.integers(0, 2**32 - 1))
    def test_column_codes_are_the_unique_inverse(self, arrays, seed):
        values = np.concatenate([np.empty(0, dtype=np.int64), *arrays])
        rng = np.random.default_rng(seed)
        valid = rng.random(len(values)) < rng.choice([0.0, 0.6, 1.0])
        codes = operators._column_codes(Column(INTEGER, values, valid))
        expected = np.zeros(len(values), dtype=np.int64)
        if valid.any():
            expected[valid] = np.unique(values[valid], return_inverse=True)[1]
        expected[~valid] = expected[valid].max(initial=-1) + 1  # NULL: one last group
        assert codes.dtype == np.int64
        assert np.array_equal(codes, expected)


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
# The gates: one sort per kernel call, no hash set, no factorize on hot paths
# ---------------------------------------------------------------------------
class SortSpy:
    """Counts, by patching numpy's ``sort`` / ``argsort`` / ``lexsort`` /
    ``unique`` / ``union1d`` for every caller and wrapping the kernel
    wherever it was imported:

    * ``kernel_sorts`` — per :func:`stable_int_order` call over ``>= CUT``
      rows, how many sorts it ran over all of its rows;
    * ``hash_sets`` — every ``np.unique`` / ``np.union1d`` call;
    * ``lexsorts`` — every ``np.lexsort`` over ``>= CUT`` rows;
    * ``outside_sorts`` — every ``np.sort`` / ``np.argsort`` over
      ``>= CUT`` integer rows outside the kernel and outside
      :func:`unique_ints` (whose sparse path is one ``np.sort`` of the
      values): an integer sort the kernel does not own;
    * ``aggregate_factorizes`` / ``aggregates_at_scale`` — the
      ``factorize_columns`` calls and the at-scale kernel calls made under
      ``AggregateOp.execute``."""

    def __init__(self, monkeypatch) -> None:
        self.kernel_sorts: list[int] = []
        self.hash_sets: list[tuple[str, int]] = []
        self.lexsorts: list[int] = []
        self.outside_sorts: list[tuple[str, int, str]] = []
        self.aggregate_factorizes = 0
        self.aggregates_at_scale = 0
        self._kernel_rows: int | None = None
        self._in_set_op = 0
        self._in_aggregate = 0
        for name in ("sort", "argsort"):
            self._patch_numpy(monkeypatch, name, self._on_sort)
        for name in ("unique", "union1d"):
            self._patch_numpy(monkeypatch, name, self._on_hash_set)
        self._patch_numpy(monkeypatch, "lexsort", self._on_lexsort)
        kernel = stable_int_order
        wrapped = lambda keys, *a, **kw: self._on_kernel(  # noqa: E731
            lambda k: kernel(k, *a, **kw), keys
        )
        set_op = unique_ints
        wrapped_set_op = lambda *arrays: self._on_set_op(set_op, *arrays)  # noqa: E731
        for module in list(sys.modules.values()):
            if getattr(module, "stable_int_order", None) is kernel:
                monkeypatch.setattr(module, "stable_int_order", wrapped)
            if getattr(module, "unique_ints", None) is set_op:
                monkeypatch.setattr(module, "unique_ints", wrapped_set_op)
        factorize = operators.factorize_columns
        monkeypatch.setattr(
            operators, "factorize_columns", lambda *a: self._on_factorize(factorize, *a)
        )
        execute = operators.AggregateOp.execute
        monkeypatch.setattr(
            operators.AggregateOp, "execute", lambda op: self._on_aggregate(execute, op)
        )

    @staticmethod
    def _patch_numpy(monkeypatch, name: str, record) -> None:
        original = getattr(np, name)

        def counted(*args, **kwargs):
            record(name, args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)

    def _on_sort(self, name: str, a) -> None:
        a = np.asarray(a)
        if self._kernel_rows is not None:
            self.kernel_sorts[-1] += len(a) == self._kernel_rows
        elif not self._in_set_op and len(a) >= CUT and a.dtype.kind in "biu":
            self.outside_sorts.append((name, len(a), a.dtype.str))

    def _on_hash_set(self, name: str, a) -> None:
        self.hash_sets.append((name, len(np.asarray(a))))

    def _on_lexsort(self, name: str, keys) -> None:
        n = len(keys[0]) if len(keys) else 0
        if n >= CUT:
            self.lexsorts.append(n)

    def _on_kernel(self, kernel, keys):
        n = len(keys[0]) if len(keys) else 0
        if n < CUT:
            return kernel(keys)
        self.aggregates_at_scale += bool(self._in_aggregate)
        self.kernel_sorts.append(0)
        self._kernel_rows = n
        try:
            return kernel(keys)
        finally:
            self._kernel_rows = None

    def _on_set_op(self, set_op, *arrays):
        self._in_set_op += 1
        try:
            return set_op(*arrays)
        finally:
            self._in_set_op -= 1

    def _on_factorize(self, factorize, columns):
        self.aggregate_factorizes += bool(self._in_aggregate)
        return factorize(columns)

    def _on_aggregate(self, execute, op):
        self._in_aggregate += 1
        try:
            return execute(op)
        finally:
            self._in_aggregate -= 1

    def assert_sorts_once_and_never_hashes(self) -> None:
        assert self.kernel_sorts and max(self.kernel_sorts) == 1
        assert self.hash_sets == []
        assert self.lexsorts == []
        assert self.outside_sorts == []


def insert(db, table: str, *columns) -> None:
    schema = db.table(table).schema
    db.insert_batch(
        table, RecordBatch(schema, [Column.from_numpy(t, np.asarray(a)) for t, a in columns])
    )


class TestSqlPlaneGate:
    def test_pagerank_sql_sorts_once_per_kernel_call_and_never_hashes(self, monkeypatch):
        rng = np.random.default_rng(7)
        n, m = 2_000, 12_000
        vx = Vertexica()
        graph = vx.load_graph("g", rng.integers(0, n, m), rng.integers(0, n, m), num_vertices=n)
        spy = SortSpy(monkeypatch)
        result = vx.run(graph, PageRank(iterations=3))
        assert result.stats.n_supersteps == 4
        # The message GROUP BY dst of every superstep that sent (>= CUT
        # staged rows) ran, and no other (set-up counts out-degrees without
        # SQL); none factorized.
        assert spy.aggregates_at_scale == 3
        assert spy.aggregate_factorizes == 0
        spy.assert_sorts_once_and_never_hashes()

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


class TestLoadAndViewGate:
    def test_load_graph_sorts_once_per_kernel_call_and_never_hashes(self, monkeypatch):
        rng = np.random.default_rng(11)
        n, m = 3_000, 10_000
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        weights = rng.choice([0.5, -0.0, 0.0, 2.0], m)
        vx = Vertexica()
        spy = SortSpy(monkeypatch)
        graph = vx.load_graph("g", src, dst, weights, num_vertices=n + 5, symmetrize=True)
        vx.storage.load_graph("h", src, dst, node_ids=rng.integers(0, 2**40, 50))
        spy.assert_sorts_once_and_never_hashes()
        assert graph.num_vertices == n + 5

    def test_create_graph_view_sorts_once_per_kernel_call_and_never_hashes(
        self, monkeypatch
    ):
        vx = social_view_db(np.random.default_rng(12))
        spy = SortSpy(monkeypatch)
        handle = vx.create_graph_view("v", SOCIAL_VIEW)
        assert handle.last_extraction.num_edges > 10 * CUT
        spy.assert_sorts_once_and_never_hashes()

    def test_incremental_view_refresh_never_hashes(self, monkeypatch):
        # Delta-sized set work in maintenance (the support ledger's net
        # counts, the touched via groups, each group's member union) runs
        # on the kernel and unique_ints, not np.unique / np.union1d.
        rng = np.random.default_rng(13)
        vx = social_view_db(rng)
        handle = vx.create_graph_view("v", SOCIAL_VIEW)
        spy = SortSpy(monkeypatch)
        for step in range(3):
            insert(
                vx.db, "likes",
                (INTEGER, rng.integers(0, 4100, 12)),
                (INTEGER, np.r_[rng.integers(0, 600, 6), np.full(6, 600 + step)]),
            )
            insert(vx.db, "users", (INTEGER, [5000 + step]))
            insert(
                vx.db, "follows",
                (INTEGER, rng.integers(0, 4000, 8)),
                (INTEGER, rng.integers(0, 4000, 8)),
                (FLOAT, rng.choice([0.0, -0.0, 3.0], 8)),
            )
            vx.sql(f"DELETE FROM likes WHERE post_id = {step * 7}")
            vx.sql(f"DELETE FROM follows WHERE a = {step * 11}")
            vx.sql(f"DELETE FROM users WHERE id = {step * 13}")
            handle.refresh()
            assert handle.last_extraction.mode == "incremental", handle.last_fallback_reason
        assert spy.hash_sets == []
        assert spy.lexsorts == []
        assert spy.outside_sorts == []


SOCIAL_VIEW = GraphView(
    vertices=NodeSpec("users", key="id"),
    edges=[
        EdgeSpec("follows", src="a", dst="b", weight="w"),
        CoEdgeSpec("likes", member="user_id", via="post_id"),
    ],
)


def social_view_db(rng) -> Vertexica:
    """4 000 users, 3 000 weighted follows (signed zeros among the
    weights) and 8 000 likes over 600 posts."""
    vx = Vertexica()
    vx.sql("CREATE TABLE users (id INTEGER NOT NULL)")
    vx.sql("CREATE TABLE follows (a INTEGER NOT NULL, b INTEGER NOT NULL, w FLOAT NOT NULL)")
    vx.sql("CREATE TABLE likes (user_id INTEGER NOT NULL, post_id INTEGER NOT NULL)")
    insert(vx.db, "users", (INTEGER, np.arange(4000)))
    insert(
        vx.db, "follows",
        (INTEGER, rng.integers(0, 4000, 3000)),
        (INTEGER, rng.integers(0, 4000, 3000)),
        (FLOAT, rng.choice([0.0, -0.0, 1.0, 2.5], 3000)),
    )
    insert(
        vx.db, "likes",
        (INTEGER, np.repeat(np.arange(4000), 2)),
        (INTEGER, rng.integers(0, 600, 8000)),
    )
    return vx
