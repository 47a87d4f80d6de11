"""Run setup in arrays: ``initial_values`` and the out-degree array.

``GraphStorage.setup_run`` takes every vertex's start value from one
``VertexProgram.initial_values(ids, out_degrees, num_vertices)`` call and
the out-degrees from one pass over the edge table's ``src`` column
(``out_degree_array``).  This module pins:

* every shipped program's ``initial_values`` equals the base class's
  per-vertex ``initial_value`` loop bitwise — ids with gaps, ids at the
  int64 top, isolated vertices, duplicate edges;
* the out-degree array equals the ``GROUP BY src`` counts it replaced on
  a loaded graph, a graph view's edge table (before and after an
  incremental refresh through ``replace_graph``), edges inserted out of
  order and sources with no node row;
* a gate: ``setup_run`` issues no ``GROUP BY`` and, for a program that
  overrides ``initial_values``, calls no ``initial_value``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Vertexica
from repro.core.program import VertexProgram
from repro.core.storage import GraphStorage, out_degree_array
from repro.engine import Database
from repro.errors import ProgramError
from repro.graphview import EdgeSpec, NodeSpec
from repro.programs import (
    AdaptivePageRank,
    CollaborativeFiltering,
    ConnectedComponents,
    FeaturePropagation,
    InDegree,
    LabelPropagation,
    MultiSourceSSSP,
    OutDegree,
    PageRank,
    RandomWalkEmbeddings,
    RandomWalkWithRestart,
    ShortestPaths,
)

INT64_MAX = np.iinfo(np.int64).max


def shipped_programs(ids: list[int]) -> list[VertexProgram]:
    """One instance of every shipped program; sources and seeds are
    vertices of ``ids`` (the first, the last, and one id that is absent)."""
    first, last = ids[0], ids[-1]
    absent = next(v for v in range(len(ids) + 1) if v not in set(ids))
    return [
        PageRank(iterations=3),
        AdaptivePageRank(),
        ShortestPaths(first),
        ShortestPaths(absent),
        ConnectedComponents(),
        RandomWalkWithRestart(last),
        InDegree(),
        OutDegree(),
        LabelPropagation(seeds={last: first, absent: 7, first: -3}),
        LabelPropagation(),
        MultiSourceSSSP([last, first, absent]),
        CollaborativeFiltering(rank=3),
        FeaturePropagation(width=3),
        RandomWalkEmbeddings(dim=2),
    ]


#: overrides of ``initial_values`` — ``setup_run`` must call no
#: ``initial_value`` for these
OVERRIDING = (
    PageRank, AdaptivePageRank, ShortestPaths, ConnectedComponents, RandomWalkWithRestart,
    InDegree, OutDegree, LabelPropagation, MultiSourceSSSP,
)


@st.composite
def vertex_sets(draw):
    """Sorted distinct vertex ids — small, with gaps, or at the int64 top
    — and the out-degrees of an edge list over them with duplicate edges
    and isolated vertices."""
    ids = draw(
        st.one_of(
            st.sets(st.integers(0, 60), min_size=1, max_size=30),
            st.sets(st.integers(INT64_MAX - 40, INT64_MAX), min_size=1, max_size=30),
            st.sets(st.integers(0, INT64_MAX), min_size=1, max_size=30),
        )
    )
    ids = np.array(sorted(ids), dtype=np.int64)
    sources = draw(st.lists(st.sampled_from(ids.tolist()), max_size=60))
    src = np.array(sources + sources[: len(sources) // 3], dtype=np.int64)  # duplicates
    return ids, out_degree_array(src, ids)


def assert_same_storage(got: tuple, want: tuple) -> None:
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestInitialValuesEqualTheLoop:
    @given(vertex_sets())
    def test_every_shipped_program_bitwise(self, case):
        ids, degrees = case
        for program in shipped_programs(ids.tolist()):
            for n in (len(ids), len(ids) + 5):
                want = VertexProgram.initial_values(program, ids, degrees, n)
                assert_same_storage(program.initial_values(ids, degrees, n), want)

    def test_no_vertices(self):
        ids, degrees = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        for program in shipped_programs([0]):
            want = VertexProgram.initial_values(program, ids, degrees, 0)
            assert_same_storage(program.initial_values(ids, degrees, 0), want)


def group_by_degrees(db: Database, edge_table: str, ids: np.ndarray) -> list[int]:
    """The out-degrees the deleted ``GraphStorage.out_degrees`` read: a
    ``GROUP BY src`` in SQL, absent = 0."""
    counts = dict(db.execute(f"SELECT src, COUNT(*) FROM {edge_table} GROUP BY src").rows())
    return [counts.get(v, 0) for v in ids.tolist()]


def array_degrees(db: Database, edge_table: str, ids: np.ndarray) -> list[int]:
    return out_degree_array(db.table(edge_table).data().column("src").values, ids).tolist()


def node_ids(db: Database, node_table: str) -> np.ndarray:
    return np.asarray(db.table(node_table).data().column("id").values, dtype=np.int64)


class TestOutDegreesEqualGroupBy:
    def test_loaded_graph_with_dml(self):
        vx = Vertexica()
        rng = np.random.default_rng(3)
        vx.load_graph("g", rng.integers(0, 50, 400), rng.integers(0, 50, 400), num_vertices=60)
        # Out of (src, dst) order, a duplicate edge, a source with no node row.
        vx.sql("INSERT INTO g_edge VALUES (49, 1, 1.0), (0, 2, 1.0), (0, 2, 1.0), (77, 3, 1.0)")
        vx.sql("DELETE FROM g_node WHERE id = 4")
        ids = np.sort(node_ids(vx.db, "g_node"))
        assert array_degrees(vx.db, "g_edge", ids) == group_by_degrees(vx.db, "g_edge", ids)

    def test_graph_view_before_and_after_incremental_refresh(self):
        vx = Vertexica()
        rng = np.random.default_rng(9)
        vx.sql("CREATE TABLE people (id INTEGER NOT NULL)")
        vx.sql("CREATE TABLE knows (a INTEGER NOT NULL, b INTEGER NOT NULL, w FLOAT NOT NULL)")
        vx.sql("INSERT INTO people VALUES " + ", ".join(f"({i})" for i in range(0, 120, 2)))
        pairs = zip(rng.integers(0, 60, 300) * 2, rng.integers(0, 60, 300) * 2)
        vx.sql("INSERT INTO knows VALUES " + ", ".join(f"({a}, {b}, 1.0)" for a, b in pairs))
        handle = vx.create_graph_view(
            "v", vertices=NodeSpec("people", key="id"),
            edges=EdgeSpec("knows", src="a", dst="b", weight="w"),
        )
        ids = node_ids(vx.db, "v_node")
        assert array_degrees(vx.db, "v_edge", ids) == group_by_degrees(vx.db, "v_edge", ids)
        vx.sql("INSERT INTO knows VALUES (4, 8, 0.5), (8, 4, 1.5), (4, 8, 0.5), (118, 0, 2.0)")
        vx.sql("DELETE FROM knows WHERE a = 10")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        ids = node_ids(vx.db, "v_node")
        assert array_degrees(vx.db, "v_edge", ids) == group_by_degrees(vx.db, "v_edge", ids)

    def test_after_replace_graph(self):
        db = Database()
        storage = GraphStorage(db)
        storage.load_graph("g", [0, 1, 1], [1, 2, 0], num_vertices=4)
        src = np.array([0, 0, 2, 2, 2, 9], dtype=np.int64)
        dst = np.array([1, 1, 0, 3, 3, 0], dtype=np.int64)
        storage.replace_graph("g", src, dst, np.ones(6), np.array([0, 1, 2, 3, 5]))
        ids = node_ids(db, "g_node")
        assert array_degrees(db, "g_edge", ids) == group_by_degrees(db, "g_edge", ids)
        assert array_degrees(db, "g_edge", ids) == [2, 0, 3, 0, 0]

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert out_degree_array(empty, np.arange(3)).tolist() == [0, 0, 0]
        assert out_degree_array(np.arange(3), empty).tolist() == []


class TestSetupRunChecksTheHook:
    def test_wrong_length_raises_program_error(self):
        class Short(PageRank):
            def initial_values(self, ids, out_degrees, num_vertices):
                values, valid = super().initial_values(ids, out_degrees, num_vertices)
                return values[1:], valid[1:]

        storage = GraphStorage(Database())
        graph = storage.load_graph("g", [0, 1], [1, 2])
        with pytest.raises(ProgramError, match=r"Short.initial_values returned 2 values"):
            storage.setup_run(graph, Short())


class TestSetupRunGate:
    @pytest.mark.parametrize(
        "program", [p for p in shipped_programs([0, 5, 9])], ids=lambda p: p.name
    )
    def test_no_group_by_and_no_per_vertex_calls(self, program, monkeypatch):
        db = Database()
        storage = GraphStorage(db)
        rng = np.random.default_rng(1)
        graph = storage.load_graph("g", rng.integers(0, 40, 200), rng.integers(0, 40, 200))
        statements: list[str] = []
        calls = [0]
        execute, query_batch = Database.execute, Database.query_batch
        initial_value = type(program).initial_value

        def spy_execute(self, sql, *args, **kwargs):
            statements.append(sql)
            return execute(self, sql, *args, **kwargs)

        def spy_query_batch(self, sql, *args, **kwargs):
            statements.append(sql)
            return query_batch(self, sql, *args, **kwargs)

        def counting_initial_value(self, *args):
            calls[0] += 1
            return initial_value(self, *args)

        monkeypatch.setattr(Database, "execute", spy_execute)
        monkeypatch.setattr(Database, "query_batch", spy_query_batch)
        monkeypatch.setattr(type(program), "initial_value", counting_initial_value)
        storage.setup_run(graph, program)
        assert statements and not any("GROUP BY" in sql.upper() for sql in statements)
        assert calls[0] == (0 if isinstance(program, OVERRIDING) else graph.num_vertices)
