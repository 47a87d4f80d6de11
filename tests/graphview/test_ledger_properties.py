"""Graph-view maintenance ledgers: columnar, sort-free, and exact.

The incremental-maintenance ledgers (:mod:`repro.graphview.maintenance`)
are tuples of plain int64 / float64 columns in canonical order, patched
by one merge per refresh.  This module pins:

* the merge against a ``sorted()``-list reference, property-based, over
  random multisets with parallel edges, ``±0.0``, ``±inf`` and duplicate
  removals (a removal the ledger cannot cover raises the fallback);
* the linear order check and its sort-only-when-needed seeding;
* ``canonical_edge_order`` == ``np.lexsort((weight_order_key, dst, src))``
  and ``weight_order_key`` as a total order of float64;
* a counting gate over a streamed co-occurrence view (one build plus
  three incremental refreshes): no sort, ``np.unique``, ``searchsorted``
  or ``np.insert`` on a structured array anywhere, and no ``np.lexsort``
  over cut-over-sized rows in the graph-view modules;
* ``expand_co_occurrence`` (streamed, and flushed after every group)
  against a ``dict`` reference, property-based;
* seeding from unsorted co-occurrence pairs, and the state a fallback
  leaves behind.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec, Vertexica
from repro.core import storage
from repro.core.storage import canonical_edge_order, weight_order_key
from repro.datasets import load_social_schema
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.operators import _KERNEL_MIN_ROWS
from repro.engine.types import FLOAT, INTEGER
from repro.graphview import lowering, maintenance, view as view_module
from repro.graphview.lowering import expand_co_occurrence
from repro.graphview.view import GraphViewHandle

CUT = _KERNEL_MIN_ROWS
WEIGHT_POOL = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, 1e-300, -7.25])


def bit_rows(rows) -> list[tuple]:
    """Ledger rows as tuples, float columns by their int64 bit pattern."""
    columns = [c.view(np.int64) if c.dtype.kind == "f" else c for c in rows]
    return list(zip(*(c.tolist() for c in columns)))


def order_rows(rows) -> list[tuple]:
    """Ledger rows as tuples of their order keys (the reference sort key)."""
    columns = [weight_order_key(c) if c.dtype.kind == "f" else c for c in rows]
    return list(zip(*(c.tolist() for c in columns)))


def random_rows(rng, n: int, width: int, id_span: int):
    """``width`` = 3: ``(src, dst, weight)`` edges; 2: ``(via, member)``."""
    lo = int(rng.choice([0, -id_span, 2**40]))
    ids = [rng.integers(lo, lo + id_span, n) for _ in range(2)]
    if width == 2:
        return tuple(ids)
    return (*ids, rng.choice(WEIGHT_POOL, n))


def pick(rng, rows, k: int):
    index = rng.integers(0, len(rows[0]), k) if len(rows[0]) else np.empty(0, np.intp)
    return tuple(c[index] for c in rows)


def concat(*parts):
    return tuple(np.concatenate(columns) for columns in zip(*parts))


@st.composite
def merge_cases(draw):
    """A sorted ledger plus added / removed rows: removals mostly drawn
    from the ledger and the additions (duplicates included), sometimes
    with rows of neither."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([2, 3]))
    id_span = draw(st.sampled_from([2, 5, 1000]))
    n = draw(st.one_of(st.integers(0, 40), st.integers(CUT - 3, CUT + 300)))
    ledger = maintenance._sorted_rows(random_rows(rng, n, width, id_span))
    added = random_rows(rng, draw(st.integers(0, 30)), width, id_span)
    pool = concat(ledger, added)
    removed = pick(rng, pool, draw(st.integers(0, 30)))
    if draw(st.booleans()):
        removed = concat(removed, random_rows(rng, draw(st.integers(1, 3)), width, id_span))
    return ledger, added, removed


class TestMerge:
    @given(merge_cases())
    def test_merge_equals_sorted_list_reference(self, case):
        ledger, added, removed = case
        multiset = Counter(bit_rows(ledger)) + Counter(bit_rows(added))
        covered = True
        for row in bit_rows(removed):
            if multiset[row] == 0:
                covered = False
                break
            multiset[row] -= 1
        if not covered:
            with pytest.raises(maintenance._Fallback):
                maintenance._merge(ledger, added, removed)
            return
        merged = maintenance._merge(ledger, added, removed)
        assert [c.dtype for c in merged] == [c.dtype for c in ledger]
        assert all(c.dtype.names is None for c in merged)
        assert Counter(bit_rows(merged)) == +multiset
        assert order_rows(merged) == sorted(order_rows(merged))

    def test_merge_leaves_its_inputs_untouched(self):
        rng = np.random.default_rng(3)
        ledger = maintenance._sorted_rows(random_rows(rng, 2 * CUT, 3, 50))
        before = [c.copy() for c in ledger]
        added = random_rows(rng, 20, 3, 50)
        maintenance._merge(ledger, added, pick(rng, ledger, 10))
        assert all(np.array_equal(a, b) for a, b in zip(ledger, before))

    @pytest.mark.parametrize("absent", [(1, 2, -0.0), (1, 2, 0.0), (3, 3, 1.0)])
    def test_removing_an_absent_row_raises_the_fallback(self, absent):
        # (1, 2, +0.0) is held once; a signed zero is a different row.
        ledger = (
            np.array([1, 1, 2], dtype=np.int64),
            np.array([2, 2, 3], dtype=np.int64),
            np.array([0.0, 1.0, 1.0]),
        )
        removed = tuple(np.array([v], dtype=c.dtype) for v, c in zip(absent, ledger))
        if absent == (1, 2, 0.0):
            removed = concat(removed, removed)  # held once, removed twice
        with pytest.raises(maintenance._Fallback):
            maintenance._merge(ledger, maintenance._NO_EDGES, removed)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 1, 500, 4000]),
        st.sampled_from([3, 400, 2**50]),
    )
    def test_support_counts_equal_unique_counts(self, seed, n, span):
        # 4000 ids take the kernel's radix passes, 500 its lexsort fallback.
        rng = np.random.default_rng(seed)
        ids = rng.integers(-span, span, n)
        support = maintenance._SupportLedger.from_derivations(ids)
        expected_ids, expected_counts = np.unique(ids, return_counts=True)
        assert np.array_equal(support.ids, expected_ids)
        assert np.array_equal(support.counts, expected_counts)
        assert support.ids.dtype == support.counts.dtype == np.int64

    def test_a_row_added_and_removed_in_one_delta_nets_out(self):
        ledger = maintenance._NO_EDGES
        row = (np.array([4]), np.array([5]), np.array([-0.0]))
        merged = maintenance._merge(ledger, row, row)
        assert all(len(c) == 0 for c in merged)


class TestOrder:
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(0, 40), st.integers(CUT - 3, CUT + 500)),
        st.sampled_from([2, 1000, 2**31, 2**62]),
        st.sampled_from(["pool", "uniform", "nan"]),
    )
    def test_canonical_edge_order_is_the_weight_key_lexsort(self, seed, n, span, weights):
        rng = np.random.default_rng(seed)
        lo = int(rng.choice([0, -span // 2]))
        src = rng.integers(lo, lo + span, n)
        dst = rng.integers(lo, lo + span, n)
        if weights == "uniform":
            weight = rng.uniform(-2, 2, n)
        else:
            pool = WEIGHT_POOL if weights == "pool" else np.append(WEIGHT_POOL, np.nan)
            weight = rng.choice(pool, n)
        expected = np.lexsort((weight_order_key(weight), dst, src))
        assert np.array_equal(canonical_edge_order(src, dst, weight), expected)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 300))
    def test_weight_order_key_is_a_total_float_order(self, seed, n):
        rng = np.random.default_rng(seed)
        weight = np.concatenate([
            rng.choice(np.append(WEIGHT_POOL, np.nan), n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        ])
        key = weight_order_key(weight)
        nan = np.isnan(weight)
        # NaNs last, tied with each other, as np.argsort puts them.
        assert np.all(key[nan] == np.iinfo(np.int64).max)
        assert np.all(key[~nan] < np.iinfo(np.int64).max)
        finite = weight[~nan]
        order = np.argsort(key[~nan], kind="stable")
        ranked = finite[order]
        assert np.all(ranked[1:] >= ranked[:-1])
        # ...and among equal floats only ±0.0 differ: -0.0 first.
        ties = ranked[1:] == ranked[:-1]
        signs = np.signbit(ranked)
        assert not np.any(ties & ~signs[:-1] & signs[1:])

    def test_signed_zero_sorts_below_positive_zero(self):
        assert weight_order_key(np.array([-0.0]))[0] < weight_order_key(np.array([0.0]))[0]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3 * CUT), st.sampled_from([2, 3]))
    def test_sorted_rows_sorts_only_out_of_order_rows(self, seed, n, width):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, n, width, int(rng.choice([3, 10_000])))
        result = maintenance._sorted_rows(rows)
        keys = [weight_order_key(c) if c.dtype.kind == "f" else c for c in rows]
        expected = np.lexsort(tuple(reversed(keys)))
        assert bit_rows(result) == bit_rows(tuple(c[expected] for c in rows))
        assert maintenance._rows_sorted(result)
        assert maintenance._sorted_rows(result) is result  # checked, not re-sorted


# ---------------------------------------------------------------------------
# The co-occurrence expansion against a dict reference
# ---------------------------------------------------------------------------
INT64 = np.iinfo(np.int64)


@st.composite
def co_occurrence_inputs(draw):
    """``(members, vias)``: duplicate rows, single-member groups, member
    ids at the int64 extremes, and integer or float group keys."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 120))
    pool = np.array(
        [INT64.min, INT64.min + 1, -3, 0, 1, 2, 7, 2**40, INT64.max - 1, INT64.max],
        dtype=np.int64,
    )
    members = rng.choice(pool, n) if draw(st.booleans()) else rng.integers(-50, 50, n)
    n_groups = draw(st.integers(1, 30))
    vias = rng.integers(0, n_groups, n)
    if draw(st.booleans()):
        vias = vias * 0.5 - 3.25  # float group keys
    if n and draw(st.booleans()):  # duplicate some rows outright
        extra = rng.integers(0, n, draw(st.integers(1, 20)))
        members, vias = np.append(members, members[extra]), np.append(vias, vias[extra])
    return members.astype(np.int64), vias


def reference_expansion(members, vias) -> list[tuple[int, int, float]]:
    """Σ over groups of count_a · count_b for a ≠ b, sorted by (src, dst)."""
    groups: dict = {}
    for member, via in zip(members.tolist(), vias.tolist()):
        counts = groups.setdefault(via, Counter())
        counts[member] += 1
    pairs: Counter = Counter()
    for counts in groups.values():
        for a, count_a in counts.items():
            for b, count_b in counts.items():
                if a != b:
                    pairs[a, b] += count_a * count_b
    return [(a, b, float(w)) for (a, b), w in sorted(pairs.items())]


class TestExpansion:
    @pytest.mark.parametrize(
        "flush_pairs", [1 << 21, 1], ids=["streamed", "streamed-flush-every-group"]
    )
    @given(co_occurrence_inputs())
    def test_expansion_equals_dict_reference(self, flush_pairs, case):
        members, vias = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lowering, "_EXPANSION_FLUSH_PAIRS", flush_pairs)
            src, dst, weight = expand_co_occurrence(members, vias)
        assert (src.dtype, dst.dtype, weight.dtype) == (np.int64, np.int64, np.float64)
        got = list(zip(src.tolist(), dst.tolist(), weight.tolist()))
        assert got == reference_expansion(members, vias)


# ---------------------------------------------------------------------------
# Counting gate over a streamed co-occurrence view
# ---------------------------------------------------------------------------
class SortSpy:
    """Replaces the ``np`` global of the graph-view modules and of
    ``repro.core.storage`` with a proxy that records every sort,
    ``np.unique``, ``searchsorted`` or ``np.insert`` given a structured
    array, and every ``np.lexsort`` over ``>= CUT`` rows."""

    MODULES = (maintenance, lowering, view_module, storage)
    COUNTED = ("sort", "argsort", "unique", "searchsorted", "insert", "lexsort")

    def __init__(self, monkeypatch) -> None:
        self.structured: list[tuple[str, str]] = []
        self.lexsorts: list[tuple[str, int]] = []
        spy = self
        real_np = np

        class CountingNumpy:
            def __getattr__(self, name):
                value = getattr(real_np, name)
                if name not in SortSpy.COUNTED:
                    return value

                def counted(*args, **kwargs):
                    spy.record(name, args)
                    return value(*args, **kwargs)

                return counted

        for module in self.MODULES:
            monkeypatch.setattr(module, "np", CountingNumpy())

    def record(self, name: str, args) -> None:
        arrays = list(args[0]) if name == "lexsort" else list(args[:2])
        for a in arrays:
            if isinstance(a, np.ndarray) and a.dtype.names is not None:
                self.structured.append((name, str(a.dtype)))
        if name == "lexsort" and len(args[0]) and len(args[0][0]) >= CUT:
            self.lexsorts.append((name, len(args[0][0])))


def insert(db, table: str, *columns) -> None:
    schema = db.table(table).schema
    db.insert_batch(
        table, RecordBatch(schema, [Column.from_numpy(t, np.asarray(a)) for t, a in columns])
    )


def streamed_co_db(rng) -> Vertexica:
    """Users 0..4999, each liking two of 700 posts, and weighted follows
    with signed zeros among the weights."""
    vx = Vertexica()
    vx.sql("CREATE TABLE users (id INTEGER NOT NULL)")
    vx.sql("CREATE TABLE follows (a INTEGER NOT NULL, b INTEGER NOT NULL, w FLOAT NOT NULL)")
    vx.sql("CREATE TABLE likes (user_id INTEGER NOT NULL, post_id INTEGER NOT NULL)")
    insert(vx.db, "users", (INTEGER, np.arange(5000)))
    insert(
        vx.db, "follows",
        (INTEGER, rng.integers(0, 5000, 3000)),
        (INTEGER, rng.integers(0, 5000, 3000)),
        (FLOAT, rng.choice([0.0, -0.0, 1.0, 2.5], 3000)),
    )
    insert(
        vx.db, "likes",
        (INTEGER, np.repeat(np.arange(5000), 2)),
        (INTEGER, rng.integers(0, 700, 10_000)),
    )
    return vx


GATE_VIEW = GraphView(
    vertices=NodeSpec("users", key="id"),
    edges=[
        EdgeSpec("follows", src="a", dst="b", weight="w"),
        CoEdgeSpec("likes", member="user_id", via="post_id"),
    ],
)


def assert_bitwise_parity(vx: Vertexica, handle: GraphViewHandle, tag: str) -> None:
    shadow = GraphViewHandle(vx.db, vx.storage, tag, handle.view)
    shadow.refresh(incremental=False)
    try:
        for column in ("src", "dst", "weight"):
            live = vx.db.query_batch(f"SELECT {column} FROM {handle.name}_edge")
            full = vx.db.query_batch(f"SELECT {column} FROM {tag}_edge")
            a, b = live.column(column).values, full.column(column).values
            assert a.tobytes() == b.tobytes(), column
        live = vx.db.query_batch(f"SELECT id FROM {handle.name}_node").column("id").values
        full = vx.db.query_batch(f"SELECT id FROM {tag}_node").column("id").values
        assert np.array_equal(live, full)
    finally:
        shadow.drop()


class TestSortGate:
    def test_streamed_co_view_builds_and_refreshes_without_struct_or_lexsort(
        self, monkeypatch
    ):
        rng = np.random.default_rng(5)
        vx = streamed_co_db(rng)
        spy = SortSpy(monkeypatch)
        handle = vx.create_graph_view("live", GATE_VIEW)
        assert handle.last_extraction.num_edges > 10 * CUT
        for step in range(3):
            insert(
                vx.db, "likes",
                (INTEGER, rng.integers(0, 5000, 12)),
                (INTEGER, np.r_[rng.integers(0, 700, 6), np.full(6, 700 + step)]),
            )
            insert(
                vx.db, "follows",
                (INTEGER, rng.integers(0, 5000, 8)),
                (INTEGER, rng.integers(0, 5000, 8)),
                (FLOAT, rng.choice([0.0, -0.0, 3.0], 8)),
            )
            vx.sql(f"DELETE FROM likes WHERE post_id = {step * 7}")
            vx.sql(f"DELETE FROM follows WHERE a = {step * 11}")
            handle.refresh()
            assert handle.last_extraction.mode == "incremental", handle.last_fallback_reason
        assert spy.structured == []
        assert spy.lexsorts == []
        monkeypatch.undo()
        assert_bitwise_parity(vx, handle, "shadow")


# ---------------------------------------------------------------------------
# Seeding from unsorted pairs; the state a fallback leaves
# ---------------------------------------------------------------------------
def social_vx(seed: int) -> Vertexica:
    vx = Vertexica()
    load_social_schema(
        vx.db, num_users=60, num_follows=300, num_likes=180, num_posts=18, seed=seed
    )
    return vx


CO_VIEW = GraphView(
    vertices=NodeSpec("users", key="id"),
    edges=[
        EdgeSpec("follows", src="follower_id", dst="followee_id", weight="closeness"),
        CoEdgeSpec("likes", member="user_id", via="post_id"),
    ],
)


def assert_columnar_and_capable(state) -> None:
    ledgers = [state.edges]
    for co in state.co_states.values():
        ledgers += [co.side, co.pairs]
    for ledger in ledgers:
        assert isinstance(ledger, tuple)
        assert all(isinstance(c, np.ndarray) and c.dtype.names is None for c in ledger)
        assert maintenance._rows_sorted(ledger)
    assert state.capable
    assert state.co_states


class TestSeedingAndFallbacks:
    def test_out_of_order_pairs_seed_a_sorted_ledger(self, monkeypatch):
        # The expansion emits its pairs in key order; reversing them (and
        # the side rows) pins the seeding's sort-when-unsorted path.
        seen = []
        real_build = maintenance.build_state

        def build_from_reversed(db, view, node_parts, edge_parts, *args, **kwargs):
            for part in edge_parts:
                if isinstance(part.spec, CoEdgeSpec):
                    part.triples = [tuple(c[::-1] for c in part.triples[0])]
                    part.side_member, part.side_via = part.side_member[::-1], part.side_via[::-1]
                    seen.append(maintenance._rows_sorted(part.triples[0]))
            return real_build(db, view, node_parts, edge_parts, *args, **kwargs)

        monkeypatch.setattr(maintenance, "build_state", build_from_reversed)
        vx = social_vx(21)
        handle = vx.create_graph_view("live", CO_VIEW)
        assert seen == [False]
        assert_columnar_and_capable(handle._state)
        vx.sql("INSERT INTO likes VALUES (3, 4), (5, 4), (7, 17)")
        vx.sql("DELETE FROM likes WHERE post_id = 2")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        assert_bitwise_parity(vx, handle, "shadow")

    def test_threshold_fallback_rebuilds_a_capable_columnar_state(self):
        vx = social_vx(22)
        handle = vx.create_graph_view("live", CO_VIEW)
        vx.sql("DELETE FROM follows WHERE closeness > 1.0")  # over 25% of the rows
        handle.refresh()
        assert handle.last_extraction.mode == "full"
        assert "exceeds" in handle.last_fallback_reason
        assert_columnar_and_capable(handle._state)
        vx.sql("INSERT INTO likes VALUES (1, 1)")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        assert_bitwise_parity(vx, handle, "shadow")

    def test_nan_guard_fallback_rebuilds_a_capable_columnar_state(self):
        vx = social_vx(23)
        handle = vx.create_graph_view("live", CO_VIEW)
        # A NaN weight enters and leaves within one delta window: the
        # delta trips the guard, the rebuilt tables hold no NaN.
        insert(vx.db, "follows", (INTEGER, [1]), (INTEGER, [2]), (FLOAT, [np.nan]))
        vx.sql("DELETE FROM follows WHERE closeness <> closeness")
        assert vx.db.table("follows").num_rows == 300
        handle.refresh()
        assert handle.last_extraction.mode == "full"
        assert handle.last_fallback_reason == "NaN weight in delta"
        assert_columnar_and_capable(handle._state)
        vx.sql("INSERT INTO follows VALUES (4, 5, 0.5)")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        assert_bitwise_parity(vx, handle, "shadow")

    def test_a_raising_refresh_leaves_the_live_catalog_unchanged(self, monkeypatch):
        # Delta statements run in private catalogs: a refresh whose delta
        # statement raises leaves the live table set as it was, and the
        # untouched state patches exactly on the next refresh.
        vx = social_vx(24)
        handle = vx.create_graph_view("live", CO_VIEW)
        vx.sql("INSERT INTO likes VALUES (2, 3)")
        vx.sql("INSERT INTO follows VALUES (2, 3, 1.5)")
        before = set(vx.db.catalog.table_names())

        def boom(spec, pin):
            raise RuntimeError("delta query interrupted")

        monkeypatch.setattr(maintenance, "run_spec", boom)
        with pytest.raises(RuntimeError, match="interrupted"):
            handle.refresh()
        monkeypatch.undo()
        assert set(vx.db.catalog.table_names()) == before
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        assert_bitwise_parity(vx, handle, "shadow")
