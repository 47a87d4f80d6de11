"""A filtered ``GROUP BY`` reads its filter as a selection and must not
change a bit.

``SELECT k, agg… FROM t WHERE p GROUP BY k`` plans as an aggregate over a
filter: the aggregate takes the filter's input and the ascending ids of
the rows that pass, sorts those ids by the key in one packed word, and
gathers each column an aggregate reads once.  The same query over a
derived table, ``… FROM (SELECT * FROM t WHERE p) s GROUP BY k``, plans
an alias between the two and keeps the materialising path.  This module
pins, property-based:

* fused == unfused bitwise (same NULLs, same value bits — ``-0.0``, NaN
  and ±inf included) over NULL and non-NULL keys, dense and wide key
  spans (int64 extremes, too wide to pack with the row ids), two-column
  and ``VARCHAR`` keys, global aggregates, selections below the kernel's
  cut-over, empty and all-true predicates, and every aggregate the
  engine has;
* the ``INTEGER`` cases against stdlib ``sqlite3`` as an independent
  oracle, and a 60 000-row dense 17-bit key (row ids in the packed
  word, extrema folded by key) against a Python one;
* the selection kernel: ``stable_int_order(keys, rows)`` ==
  ``rows[lexsort(keys)]`` and its sorted keys == ``key[order]``;

and, as a counting gate on a SQL-plane PageRank, that the message
combine (``apply_messages``) filters no batch or column, runs one kernel
sort per superstep and gathers each aggregate argument at most once.
"""

from __future__ import annotations

import sqlite3

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Vertexica
from repro.core.storage import GraphStorage
from repro.engine import Database, operators
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.operators import stable_int_order
from repro.engine.schema import ColumnDef, Schema
from repro.engine.types import FLOAT, INTEGER, VARCHAR
from repro.programs import PageRank

INT64 = np.iinfo(np.int64)
CUT = operators._KERNEL_MIN_ROWS

COLUMNS = (
    ("kd", INTEGER),  # dense key: MIN / MAX fold by key
    ("kp", INTEGER),  # 21-bit key: the packed word carries the row ids
    ("ke", INTEGER),  # int64 extremes: too wide to pack with the row ids
    ("kn", INTEGER),  # nullable key: factorized
    ("kc", INTEGER),  # constant key: drops out of the word
    ("k2", INTEGER),  # a second key, a handful of values, some NULL
    ("g", VARCHAR),   # a string key
    ("x", INTEGER),   # integer argument, some NULL
    ("e", INTEGER),   # integer argument at the int64 extremes, no NULL
    ("f", FLOAT),     # float argument: ±0.0, ±inf, NaN, some NULL
    ("p", INTEGER),   # the predicate column
)

KEYS = ("kd", "kp", "ke", "kn", "kc", "kd, k2", "g", "")

AGGREGATES = (
    "COUNT(*), COUNT(x), SUM(x), MIN(x), MAX(x), AVG(x), COUNT(DISTINCT x)",
    "MIN(e), MAX(e), COUNT(e), MIN(k2), MAX(k2)",
    "SUM(f), MIN(f), MAX(f), AVG(f), COUNT(f), COUNT(DISTINCT f)",
    "SUM(x * 2 + k2), MAX(x - e), MIN(1)",
    "COUNT(*), MIN(e), SUM(x), MAX(k2)",
)

INTEGER_AGGREGATES = (*AGGREGATES[:2], AGGREGATES[4])


@st.composite
def tables(draw):
    """Seeded columns for one table; Hypothesis picks the row count (a
    few rows or around the kernel's cut-over), the seed and the NULL
    share of the arguments."""
    n = draw(st.one_of(st.integers(0, 30), st.integers(CUT - 40, CUT + 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    null_share = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    ones = np.ones(n, dtype=bool)
    extremes = np.array([INT64.min, INT64.min + 1, -7, -1, 0, 7, INT64.max - 1, INT64.max])
    f = rng.choice(np.array([-0.0, 0.0, 1.5, -2.25, 1e300, np.inf, -np.inf, np.nan]), n)
    g = np.empty(n, dtype=object)
    g[:] = [f"g{v}" for v in rng.integers(0, 5, n)]
    return [
        Column(INTEGER, rng.integers(-20, 20 + n // 4, n), ones),
        Column(INTEGER, rng.integers(-(2**20), 2**20, n), ones),
        Column(INTEGER, rng.choice(extremes[[0, 1, 3, 4, 7]], n), ones),
        Column(INTEGER, rng.integers(0, 9, n), rng.random(n) >= 0.2),
        Column(INTEGER, np.full(n, draw(st.integers(INT64.min, INT64.max)), dtype=np.int64), ones),
        Column(INTEGER, rng.integers(0, 4, n), rng.random(n) >= 0.1),
        Column(VARCHAR, g, ones),
        Column(INTEGER, rng.integers(-(2**40), 2**40, n), rng.random(n) >= null_share),
        Column(INTEGER, rng.choice(extremes, n), ones),
        Column(FLOAT, np.where(rng.random(n) < 0.5, rng.normal(size=n), f), rng.random(n) >= null_share),
        Column(INTEGER, rng.integers(0, 100, n), ones),
    ]


# Empty, all-true, few-row and partial selections; ``p < 90`` keeps
# more than the kernel's cut-over of the larger tables but not all rows.
PREDICATES = st.sampled_from(
    ["p < 0", "p >= 0", "p < 2", "p < 50", "p < 90", "p % 3 = 1", "x IS NOT NULL AND p < 90", "1 = 1"]
)


def load(columns: list[Column]) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (" + ", ".join(f"{n} {t.name}" for n, t in COLUMNS) + ")")
    schema = Schema(ColumnDef(n, t) for n, t in COLUMNS)
    db.insert_batch("t", RecordBatch(schema, columns))
    return db


def queries(keys: str, aggs: str, predicate: str) -> tuple[str, str]:
    select = f"{keys}, {aggs}" if keys else aggs
    group = f" GROUP BY {keys}" if keys else ""
    fused = f"SELECT {select} FROM t WHERE {predicate}{group}"
    unfused = f"SELECT {select} FROM (SELECT * FROM t WHERE {predicate}) s{group}"
    return fused, unfused


def aggregate_child(plan: str) -> str:
    """The EXPLAIN line of the aggregate's child."""
    lines = plan.splitlines()
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("Aggregate"))
    return lines[at + 1].strip()


def assert_bitwise_equal(got: RecordBatch, expected: RecordBatch) -> None:
    assert [c.dtype for c in got.schema] == [c.dtype for c in expected.schema]
    assert got.num_rows == expected.num_rows
    for a, b in zip(got.columns, expected.columns):
        assert np.array_equal(a.valid, b.valid)
        if a.dtype is FLOAT:  # bits: tells -0.0 from 0.0 and matches NaN
            assert np.array_equal(a.values[a.valid].view(np.int64), b.values[b.valid].view(np.int64))
        else:
            assert a.to_list() == b.to_list()


class TestFusedEqualsUnfused:
    @given(tables(), PREDICATES)
    def test_bitwise(self, columns, predicate):
        db = load(columns)
        for keys in KEYS:
            for aggs in AGGREGATES:
                fused, unfused = queries(keys, aggs, predicate)
                assert aggregate_child(db.explain(fused)).startswith("Filter")
                assert aggregate_child(db.explain(unfused)).startswith("Alias")
                assert_bitwise_equal(db.query_batch(fused), db.query_batch(unfused))

    @given(tables(), PREDICATES)
    def test_projection_over_filter(self, columns, predicate):
        # A projection over a filter gathers only the columns it reads.
        db = load(columns)
        items = "x, f * 2.0, k2 % 3, kn, g"
        fused = f"SELECT {items} FROM t WHERE {predicate}"
        unfused = f"SELECT {items} FROM (SELECT * FROM t WHERE {predicate}) s"
        assert_bitwise_equal(db.query_batch(fused), db.query_batch(unfused))


class TestAgainstSqlite:
    @given(tables(), PREDICATES)
    def test_integer_aggregates(self, columns, predicate):
        db = load(columns)
        order = lambda row: tuple((v is None, v or 0) for v in row)  # noqa: E731
        with sqlite3.connect(":memory:") as conn:
            names = [n for n, t in COLUMNS if t is INTEGER]
            conn.execute(f"CREATE TABLE t ({', '.join(names)})")
            ints = [c for c, (_, t) in zip(columns, COLUMNS) if t is INTEGER]
            conn.executemany(
                f"INSERT INTO t VALUES ({', '.join('?' * len(names))})",
                zip(*(c.to_list() for c in ints)),
            )
            for keys in (k for k in KEYS if k != "g"):
                for aggs in INTEGER_AGGREGATES:
                    fused, _ = queries(keys, aggs, predicate)
                    expected = sorted(conn.execute(fused).fetchall(), key=order)
                    assert sorted(db.execute(fused).rows(), key=order) == expected


class TestAtScale:
    def test_dense_packed_key(self):
        # 40 000 selected rows over a 17-bit key span: the word carries
        # the row ids and the integer extrema fold by key.
        rng = np.random.default_rng(3)
        n = 60_000
        columns = [Column(INTEGER, np.zeros(n, dtype=np.int64)) for _ in COLUMNS]
        columns[0] = Column(INTEGER, rng.integers(0, 2**17, n))
        columns[7] = Column(INTEGER, rng.integers(-(2**40), 2**40, n))
        columns[8] = Column(INTEGER, rng.integers(-9, 9, n))
        columns[6] = Column(VARCHAR, np.full(n, "", dtype=object))
        columns[9] = Column(FLOAT, rng.normal(size=n))
        columns[10] = Column(INTEGER, rng.integers(0, 3, n))
        db = load(columns)
        sql = "SELECT kd, MIN(x), MAX(x), SUM(x), COUNT(*), MIN(e) FROM t WHERE p < 2 GROUP BY kd"
        groups: dict = {}
        for k, x, e, p in zip(*(columns[i].values.tolist() for i in (0, 7, 8, 10))):
            if p < 2:
                groups.setdefault(k, []).append((x, e))
        expected = [
            (k, min(x for x, _ in v), max(x for x, _ in v), sum(x for x, _ in v), len(v),
             min(e for _, e in v))
            for k, v in sorted(groups.items())
        ]
        assert db.execute(sql).rows() == expected


class TestSelectionKernel:
    @given(
        st.one_of(st.integers(0, 40), st.integers(CUT - 3, CUT + 500)),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["dense", "packed", "wide", "extremes", "sorted", "two"]),
        st.sampled_from([0, 2**20, 2**62]),
    )
    def test_named_order_and_sorted_keys(self, n, seed, kind, base):
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(3 * n + 1, n, replace=False)).astype(np.int64) + base
        if kind == "dense":
            keys = [rng.integers(-5, n // 8 + 2, n)]
        elif kind == "packed":  # 21 bits: room for the row ids up to 2**43
            keys = [rng.integers(-(2**20), 2**20, n)]
        elif kind == "wide":
            keys = [rng.integers(-(2**50), 2**50, n)]
        elif kind == "extremes":
            keys = [rng.choice(np.array([INT64.min, 0, INT64.max]), n)]
        elif kind == "sorted":
            keys = [np.sort(rng.integers(0, 50, n))]
        else:
            keys = [rng.integers(0, 30, n), rng.integers(-3, 3, n)]
        positions = np.lexsort(tuple(reversed(keys)))
        assert np.array_equal(stable_int_order(keys, rows), rows[positions])
        order, sorted_keys = stable_int_order(keys, rows, with_keys=True)
        assert np.array_equal(order, rows[positions])
        for key, got in zip(keys, sorted_keys):
            assert got.dtype == key.dtype
            assert np.array_equal(got, key[positions])
        order, sorted_keys = stable_int_order(keys, with_keys=True)
        assert np.array_equal(order, positions)
        assert all(np.array_equal(g, k[positions]) for k, g in zip(keys, sorted_keys))


class TestMessageCombineGate:
    """On a SQL-plane PageRank, inside ``apply_messages``: no batch or
    column is filtered; a superstep that sends messages makes one kernel
    call and one numpy sort, no other; and no column is gathered twice."""

    def test_pagerank_sql(self, monkeypatch):
        # 70 000 vertex ids span 17 bits: the message key takes the packed
        # path, as on the benchmark's graph.
        rng = np.random.default_rng(5)
        n, m = 70_000, 30_000
        vx = Vertexica()
        graph = vx.load_graph("g", rng.integers(0, n, m), rng.integers(0, n, m), num_vertices=n)
        calls: list[tuple[int, dict]] = []
        inside: list[dict] = []

        def count(name: str) -> None:
            if inside:
                inside[-1][name] = inside[-1].get(name, 0) + 1

        def counted(name, original):
            def wrapper(*args, **kwargs):
                count(name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(RecordBatch, "filter", counted("filter", RecordBatch.filter))
        monkeypatch.setattr(Column, "filter", counted("filter", Column.filter))
        monkeypatch.setattr(
            operators, "stable_int_order", counted("kernel", operators.stable_int_order)
        )
        for name in ("sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, counted("sort", getattr(np, name)))
        gather = operators._gather

        def gather_spy(batch, exprs, ids, selected=None):
            out = gather(batch, exprs, ids, selected)
            if inside and ids is not None and exprs:
                gathered = inside[-1].setdefault("gathered", [])
                gathered.extend(c.name for c in out.schema)
            return out

        monkeypatch.setattr(operators, "_gather", gather_spy)
        apply = GraphStorage.apply_messages

        def apply_spy(storage, *args, **kwargs):
            inside.append({})
            try:
                sent = apply(storage, *args, **kwargs)
            finally:
                counts = inside.pop()
            calls.append((sent, counts))
            return sent

        monkeypatch.setattr(GraphStorage, "apply_messages", apply_spy)
        result = vx.run(graph, PageRank(iterations=3))

        assert result.stats.n_supersteps == 4 and len(calls) == 4
        assert sum(sent > CUT for sent, _ in calls) == 3
        for sent, counts in calls:
            assert "filter" not in counts
            if sent:
                assert counts["kernel"] == 1 and counts["sort"] == 1
                # dst (the key), vid (MIN, by key), p0 (SUM, in order)
                assert sorted(counts["gathered"]) == ["dst", "p0", "vid"]
