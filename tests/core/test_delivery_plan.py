"""Delivering once: the shard plane's index and delivery plan per graph version.

The shard plane keeps its partitioned topology and its delivery plan
(:class:`~repro.core.shards.ShardIndex`) in the edge table's derived-state
slot and reuses them until the edge table, the node table or
``n_partitions`` changes.  This module pins:

* **plan == lexsort**: delivery through the plan equals the per-superstep
  sort it replaces — senders, destinations, values, validity and the
  combined inbox — for full, masked and near-empty frontiers, with SUM /
  MIN / MAX and with no combiner, over hostile graphs;
* **reuse**: a second run on an unchanged graph sorts nothing and builds
  nothing, and its values are bitwise the first run's;
* **invalidation**: every path that changes the graph's tables (SQL DML on
  either table, ``load_graph`` over the name, an incremental view refresh,
  a transaction rollback) and a different ``n_partitions`` make the next
  run rebuild, bitwise equal to a fresh session over the same tables;
* **lifetime**: the index goes with its table (``DROP TABLE``, a replaced
  view), and worker processes never leave it pointing into their shared
  segments — a reused index survives a rollback's plane rebuild with no
  segment left behind.
"""

from __future__ import annotations

import gc
import mmap
import os
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_route_plan import (  # noqa: F401  (builds is a fixture)
    PROPERTY,
    assert_same_inboxes,
    build_index,
    builds,
    graphs,
    lexsort_delivery,
)

from repro.core import Vertexica, VertexicaConfig, faults, shards
from repro.core.api import Vertex
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.program import BatchVertexProgram, VertexBatch
from repro.core.shards import EmittedMessages, ShardedDataPlane, ShardIndex, _deliver
from repro.core.storage import GraphStorage
from repro.engine.operators import hash_bucket_order
from repro.graphview import EdgeSpec, NodeSpec
from repro.programs import PageRank

SHARDS = VertexicaConfig(data_plane="shards", n_partitions=4)


# ---------------------------------------------------------------------------
# plan == lexsort
# ---------------------------------------------------------------------------
_UFUNCS = {"SUM": (np.add, 0.0), "MIN": (np.minimum, np.inf), "MAX": (np.maximum, -np.inf)}


def combined(inbox: tuple, combiner: str, dtype) -> tuple:
    """The reference combiner: the SQL plane's ``MIN(src), dst,
    OP(value) ... GROUP BY dst`` over one sorted inbox, as the shard plane
    computed it before the plan — float64 ``reduceat``, NULLs as the
    identity, a group of NULLs NULL."""
    senders, dst, values, valid = inbox
    bounds = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    out_valid = np.add.reduceat(valid.astype(np.int64), bounds) > 0
    floats = values.astype(np.float64)
    two_d = floats.ndim == 2
    ufunc, identity = _UFUNCS[combiner]
    floats = np.where(valid[:, None] if two_d else valid, floats, identity)
    agg = ufunc.reduceat(floats, bounds, axis=0)
    agg = np.where(out_valid[:, None] if two_d else out_valid, agg, 0.0)
    return np.minimum.reduceat(senders, bounds), dst[bounds], agg.astype(dtype), out_valid


#: payloads that stress bit-exactness: signed zeros, infinities, NaN, huge
SPECIAL = np.array([-0.0, 0.0, 1.5, -2.25, np.inf, -np.inf, np.nan, 1e300, 3e-310])


@st.composite
def deliveries(draw):
    """A graph's index plus one superstep of edge-aligned messages from
    every shard: all edges (``full``), a random sender subset
    (``masked``) or one sender (``near_empty``); scalar float, integer or
    width-2 vector payloads, with or without NULLs; one row per edge, or
    vertex-aligned (one payload per vertex, as ``send_to_all_neighbors``
    emits) in every shard or in some."""
    ids, src, dst, _, _, n_shards = draw(graphs())
    index = build_index(ids, src, dst, n_shards)
    frontier = draw(st.sampled_from(["full", "masked", "near_empty"]))
    kind = draw(st.sampled_from(["float", "integer", "vector"]))
    layout = draw(st.sampled_from(["edges", "vertices", "mixed"]))
    nulls = draw(st.booleans())
    combiner = draw(st.sampled_from([None, "SUM", "MIN", "MAX"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lone = draw(st.sampled_from(sorted(ids)))
    emitted = []
    for s in range(n_shards):
        vertex_ids = index.vertex_ids[s]
        degrees = np.diff(index.edge_indptr[s])
        if frontier == "full":
            sending = np.ones(len(vertex_ids), dtype=bool)
        elif frontier == "masked":
            sending = rng.random(len(vertex_ids)) < 0.5
        else:
            sending = vertex_ids == lone
        edges = np.repeat(sending, degrees)
        m = int(edges.sum())
        if m == 0:
            emitted.append(None)  # a task that sent nothing
            continue
        per_vertex = layout == "vertices" or (layout == "mixed" and s % 2 == 0)
        rows = len(vertex_ids) if per_vertex else m
        if kind == "integer":
            values = rng.integers(-50, 50, rows)
        else:
            shape = (rows, 2) if kind == "vector" else rows
            values = np.where(
                rng.random(shape) < 0.3, rng.choice(SPECIAL, shape), rng.normal(size=shape)
            )
        emitted.append(
            EmittedMessages(
                senders=None if per_vertex else np.repeat(vertex_ids, np.where(sending, degrees, 0)),
                dst=None if per_vertex else index.shard_edges(s)[1][edges],
                values=values,
                valid=rng.random(rows) < 0.7 if nulls else np.ones(rows, dtype=bool),
                route_senders=sending,
                num_rows=m,
            )
        )
    dtype = np.dtype(np.int64 if kind == "integer" else np.float64)
    return index, emitted, combiner, dtype


class TestPlanEqualsLexsort:
    @PROPERTY
    @given(deliveries())
    def test_delivery_through_the_plan(self, case):
        index, emitted, combiner, dtype = case
        want = lexsort_delivery(index, emitted)
        if combiner is not None:
            want = [None if w is None else combined(w, combiner, dtype) for w in want]
        # Forced plan, the shipped cut-over, and forced sort: one answer.
        for share in (0, shards._PLAN_MIN_EDGE_SHARE, 2):
            with mock.patch.object(shards, "_PLAN_MIN_EDGE_SHARE", share):
                got, sent = _deliver(index, emitted, combiner)
            assert sent == sum(0 if m is None else m.num_rows for m in emitted)
            assert_same_inboxes(got, want)


# ---------------------------------------------------------------------------
# Reuse: nothing topological is redone for an unchanged graph
# ---------------------------------------------------------------------------
def bits(values: dict) -> bytes:
    """A run's values as bytes, in id order (bitwise equality; NaN-safe)."""
    return np.array([values[k] for k in sorted(values)], dtype=np.float64).tobytes()


def load(vx: Vertexica, name: str = "g", seed: int = 7):
    rng = np.random.default_rng(seed)
    return vx.load_graph(
        name, rng.integers(0, 60, 400), rng.integers(0, 60, 400),
        weights=rng.uniform(0.25, 2.0, 400), num_vertices=60,
    )


class TestReuse:
    def test_second_run_sorts_and_builds_nothing(self, monkeypatch, builds):
        vx = Vertexica(config=SHARDS)
        graph = load(vx)
        first = vx.run(graph, PageRank(iterations=5))
        assert builds["index"] == builds["plan"] == 1
        sorts = mock.Mock(wraps=hash_bucket_order)
        monkeypatch.setattr(shards, "hash_bucket_order", sorts)
        second = vx.run(graph, PageRank(iterations=5))
        assert sorts.call_count == 0
        assert builds["index"] == builds["plan"] == 1
        assert bits(second.values) == bits(first.values)


# ---------------------------------------------------------------------------
# Invalidation: one case per path that changes the graph
# ---------------------------------------------------------------------------
class WeightedSpread(BatchVertexProgram):
    """Four rounds of ``value <- SUM(value * weight)`` over the in-edges:
    every vertex sends along every out-edge (so delivery takes the plan)
    and the weights reach the values."""

    combiner = "SUM"
    max_supersteps = 5

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> float:
        return 1.0 + vertex_id % 7

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep:
            vertex.modify_vertex_value(sum(vertex.messages))
        if vertex.superstep < 4:
            for edge in vertex.out_edges:
                vertex.send_message(edge.target, vertex.value * edge.weight)
        else:
            vertex.vote_to_halt()

    def compute_batch(self, batch: VertexBatch) -> None:
        if batch.superstep:
            batch.set_values(batch.sum_messages())
        if batch.superstep < 4:
            batch.send_along_edges(np.repeat(batch.values, batch.out_degrees) * batch.edge_weights)
        else:
            batch.vote_to_halt()


def fresh_copy(vx: Vertexica, name: str) -> Vertexica:
    """A new session holding row-for-row copies of a graph's tables."""
    fresh = Vertexica(config=vx.config)
    for table in (f"{name}_edge", f"{name}_node"):
        source = vx.db.table(table)
        columns = ", ".join(f"{c.name} {c.dtype.name}" for c in source.schema)
        fresh.sql(f"CREATE TABLE {table} ({columns})")
        fresh.db.insert_batch(table, source.data())
    return fresh


def rolled_back_insert(vx: Vertexica) -> None:
    vx.db.begin()
    vx.sql("INSERT INTO g_edge VALUES (1, 2, 3.0)")
    vx.db.rollback()


MUTATIONS = {
    "edge_insert": lambda vx: vx.sql("INSERT INTO g_edge VALUES (3, 5, 0.5), (0, 59, 2.0)"),
    "edge_delete": lambda vx: vx.sql("DELETE FROM g_edge WHERE src = 3"),
    "edge_update": lambda vx: vx.sql("UPDATE g_edge SET weight = 0.25 WHERE dst < 20"),
    "node_insert": lambda vx: vx.sql("INSERT INTO g_node VALUES (61)"),
    "node_delete": lambda vx: vx.sql("DELETE FROM g_node WHERE id = 5"),
    "node_update": lambda vx: vx.sql("UPDATE g_node SET id = 77 WHERE id = 7"),
    "load_graph": lambda vx: load(vx, seed=8),
    "rollback": rolled_back_insert,
}


class TestInvalidation:
    def _rebuilds(self, vx: Vertexica, name: str, builds: dict, **run_kw) -> None:
        """The next run rebuilds index and plan once, and equals a fresh
        session over the same tables bitwise."""
        before = builds["index"], builds["plan"]
        after = vx.run(vx.graph(name), WeightedSpread(), **run_kw)
        assert (builds["index"], builds["plan"]) == (before[0] + 1, before[1] + 1)
        fresh = fresh_copy(vx, name)
        expected = fresh.run(fresh.graph(name), WeightedSpread(), **run_kw)
        assert bits(after.values) == bits(expected.values)

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
    def test_mutation_rebuilds(self, mutate, builds):
        vx = Vertexica(config=SHARDS)
        vx.run(load(vx), WeightedSpread())
        mutate(vx)
        self._rebuilds(vx, "g", builds)

    def test_other_partition_count_rebuilds(self, builds):
        vx = Vertexica(config=SHARDS)
        vx.run(load(vx), WeightedSpread())
        self._rebuilds(vx, "g", builds, n_partitions=3)

    def test_vertex_table_other_than_the_node_tables_rebuilds(self, builds):
        """A run's vertex ids normally are the node table's, but a vertex
        table restored from a checkpoint need not be: the index splits the
        ids the run actually has."""
        vx = Vertexica(config=SHARDS)
        graph = load(vx)
        vx.run(graph, WeightedSpread())
        storage = GraphStorage(vx.db)
        storage.setup_run(graph, WeightedSpread())
        vx.sql("UPDATE g_vertex SET id = 77 WHERE id = 7")
        plane = ShardedDataPlane(storage, graph, WeightedSpread(), SHARDS)
        assert builds["index"] == 2
        assert 77 in plane.index.all_ids and 7 not in plane.index.all_ids

    def test_incremental_view_refresh_rebuilds(self, builds):
        vx = Vertexica(config=SHARDS)
        rng = np.random.default_rng(9)
        vx.sql("CREATE TABLE people (id INTEGER NOT NULL)")
        vx.sql("CREATE TABLE knows (a INTEGER NOT NULL, b INTEGER NOT NULL, w FLOAT NOT NULL)")
        vx.sql("INSERT INTO people VALUES " + ", ".join(f"({i})" for i in range(50)))
        vx.sql(
            "INSERT INTO knows VALUES "
            + ", ".join(
                f"({a}, {b}, {w})"
                for a, b, w in zip(
                    rng.integers(0, 50, 300), rng.integers(0, 50, 300), rng.uniform(0.5, 1.5, 300)
                )
            )
        )
        handle = vx.create_graph_view(
            "v", vertices=NodeSpec("people", key="id"),
            edges=EdgeSpec("knows", src="a", dst="b", weight="w"),
        )
        vx.run(handle, WeightedSpread())
        vx.sql("INSERT INTO knows VALUES (4, 9, 0.75), (9, 4, 1.25)")
        handle.refresh()
        assert handle.last_extraction.mode == "incremental"
        self._rebuilds(vx, "v", builds)


# ---------------------------------------------------------------------------
# Lifetime: freed with the table; never a view of a run's shared memory
# ---------------------------------------------------------------------------
def plan_refs(vx: Vertexica, name: str) -> list[weakref.ref]:
    """Weak references to a graph's index and one of its plan arrays."""
    index = vx.db.table(f"{name}_edge").derived
    assert isinstance(index, ShardIndex)
    return [weakref.ref(index), weakref.ref(index.delivery_plan().order[0])]


class TestFreedWithTheTable:
    def test_drop_table(self):
        vx = Vertexica(config=SHARDS)
        vx.run(load(vx), PageRank(iterations=3))
        refs = plan_refs(vx, "g")
        vx.sql("DROP TABLE g_edge")
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_replaced_view(self):
        vx = Vertexica(config=SHARDS)
        vx.sql("CREATE TABLE knows (a INTEGER NOT NULL, b INTEGER NOT NULL)")
        vx.sql("INSERT INTO knows VALUES " + ", ".join(f"({i}, {(i * 7) % 40})" for i in range(40)))
        spec = {"edges": EdgeSpec("knows", src="a", dst="b")}
        handle = vx.create_graph_view("v", **spec)
        vx.run(handle, PageRank(iterations=3))
        refs = plan_refs(vx, "v")
        vx.create_graph_view("v", replace=True, **spec)
        gc.collect()
        assert [r() for r in refs] == [None, None]


def is_shared_memory_view(array: np.ndarray) -> bool:
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, (memoryview, mmap.mmap))


def index_arrays(index: ShardIndex) -> list[np.ndarray]:
    plan = index.delivery_plan()
    return [
        index.all_ids, index.split_order, index.targets, index.weights,
        *index.vertex_ids, *index.edge_indptr,
        *plan.order, *plan.starts, *plan.senders, *plan.targets,
    ]


class TestProcessesReuseTheIndex:
    def test_reused_index_under_rollback_matches_serial(self, monkeypatch, builds, tmp_path):
        tokens = []
        bind = ShardedDataPlane.bind_executor

        def recording(self, executor):
            bind(self, executor)
            tokens.append(self._token)

        monkeypatch.setattr(ShardedDataPlane, "bind_executor", recording)
        serial_vx = Vertexica(config=SHARDS)
        serial = serial_vx.run(load(serial_vx), PageRank(iterations=5))

        vx = Vertexica(
            config=VertexicaConfig(
                data_plane="shards", n_partitions=4, executor="processes", n_workers=2
            )
        )
        graph = load(vx)
        first = vx.run(graph, PageRank(iterations=5))
        index = vx.db.table("g_edge").derived
        built = builds["index"], builds["plan"]
        plan = FaultPlan([FaultSpec(site="shard.route", kind="transient", superstep=2)])
        with faults.injected(plan):
            second = vx.run(
                graph, PageRank(iterations=5),
                checkpoint_every=1, checkpoint_dir=str(tmp_path),
            )
        assert len(plan.fired) == 1 and second.stats.retries == 1
        # The second run and its rollback's plane rebuild reused the index.
        assert (builds["index"], builds["plan"]) == built
        assert vx.db.table("g_edge").derived is index
        assert bits(first.values) == bits(second.values) == bits(serial.values)
        # Three planes went through shared memory (the serial run's bind is
        # a no-op); none left a segment, and the index never became a view
        # of one.
        shared = tuple(t for t in tokens if t is not None)
        assert len(shared) == 3
        if os.path.isdir("/dev/shm"):
            assert [n for n in os.listdir("/dev/shm") if n.startswith(shared)] == []
        assert not any(is_shared_memory_view(a) for a in index_arrays(index))
        vx.close()
