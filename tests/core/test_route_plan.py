"""Edge-aligned delivery: the delivery plan equals the lexsort it replaces.

A destination shard receives its messages in stable ``(destination id,
source shard, emission order)`` order.  For edge-aligned sends
(``VertexBatch.send_to_all_neighbors`` / ``send_along_edges``) that order
comes from the graph version's delivery plan instead of a sort of the
emitted rows.  This module pins:

* plan == lexsort, property-based, over hostile graphs and sender masks,
  for messages computed by real shard tasks, and the fallback for every
  task shape the plan does not cover;
* the edge-aligned tag is validated where it is made (``ProgramError``
  at the send call, on both planes);
* a hardware-independent gate: topology sorts and plan builds are counted
  per edge-table version, not per run or per superstep, and a
  scalar-compute run builds no plan;
* the index follows the edge table: edges inserted out of order between
  two runs are re-planned, a rollback's plane rebuild reuses the index,
  and sql == shards bitwise throughout;
* both planes read one index: the SQL plane's union input takes its
  out-edges from it, so a graph version is partitioned once whichever
  plane runs, and the join input builds none.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Vertexica, VertexicaConfig, faults, shards
from repro.core.api import Vertex
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.program import BatchVertexProgram, VertexBatch
from repro.core.shards import ShardIndex, VertexShard, _deliver
from repro.core.worker import VertexWorker
from repro.engine.operators import hash_bucket_order
from repro.errors import ProgramError
from repro.programs import ConnectedComponents, PageRank, ShortestPaths

#: At least 120 examples; more under a larger profile (CI's ``sweep``).
PROPERTY = settings(max_examples=max(120, settings().max_examples), deadline=None)


# ---------------------------------------------------------------------------
# plan == lexsort
# ---------------------------------------------------------------------------
class Sender(BatchVertexProgram):
    """Vertices in ``senders`` (``None`` = everyone, unmasked) message
    their out-neighbours in the task shape named by ``how``."""

    def __init__(self, senders: frozenset[int] | None, how: str) -> None:
        self.senders = senders
        self.how = how

    def compute(self, vertex: Vertex) -> None:
        if self.senders is None or vertex.id in self.senders:
            vertex.send_message_to_all_neighbors(float(vertex.id))

    def compute_batch(self, batch: VertexBatch) -> None:
        mask = None if self.senders is None else np.isin(batch.ids, sorted(self.senders))
        payload = batch.ids.astype(np.float64)
        if self.how == "along_edges":
            batch.send_along_edges(np.repeat(payload, batch.out_degrees), mask=mask)
            return
        batch.send_to_all_neighbors(payload, mask=mask)
        if self.how == "two_blocks":
            batch.send_to_all_neighbors(payload + 0.5, mask=mask)
        elif self.how == "with_send":
            batch.send(batch.ids[:1], batch.ids[:1] + 7, payload[:1])


def build_index(ids, src, dst, n_shards: int) -> ShardIndex:
    """The shard plane's index of an edge list (unit weights)."""
    return ShardIndex(
        None,
        np.asarray(sorted(ids), dtype=np.int64),
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.ones(len(src)),
        n_shards,
    )


def run_shards(index: ShardIndex, halted: set[int]) -> list[VertexShard]:
    """One run's shards over ``index`` (the layout ``_build_shards``
    produces), zero values, no messages."""
    out = []
    for s in range(index.n_shards):
        vertex_ids = index.vertex_ids[s]
        edge_indptr, edge_targets, edge_weights = index.shard_edges(s)
        nv = len(vertex_ids)
        out.append(
            VertexShard(
                index=s,
                vertex_ids=vertex_ids,
                halted=np.isin(vertex_ids, sorted(halted)),
                raw_values=np.zeros(nv),
                value_valid=np.ones(nv, dtype=bool),
                edge_indptr=edge_indptr,
                edge_targets=edge_targets,
                edge_weights=edge_weights,
                msg_src=np.empty(0, dtype=np.int64),
                msg_dst=np.empty(0, dtype=np.int64),
                msg_raw=np.empty(0),
                msg_valid=np.empty(0, dtype=bool),
            )
        )
    return out


def emit(index: ShardIndex, program, superstep: int, halted=frozenset(), use_batch=True):
    """Every shard task's staging and emitted messages, as
    ``_run_shard_task`` produces them; returns ``(staged, emitted)``."""
    staged, emitted = [], []
    for shard in run_shards(index, set(halted)):
        worker = VertexWorker(program, superstep, 64, use_batch=use_batch)
        out, _ = worker.compute_decoded(shard.decoded())
        updates, messages, _ = out.to_staged()
        staged.append(updates)
        emitted.append(messages)
    return staged, emitted


def lexsort_delivery(index: ShardIndex, emitted) -> list[tuple | None]:
    """The reference: each source's rows (a vertex-aligned block expanded
    to one row per edge) stably sorted by ``(dest shard, dest id)``
    (``np.lexsort``), each destination's buckets concatenated in source
    order and stably sorted by dest id — the routing every superstep did
    before the delivery plan."""
    n_shards = index.n_shards
    buckets = [[] for _ in range(n_shards)]
    for s, m in enumerate(emitted):
        if m is None:
            continue
        m = m.edge_rows(index.vertex_ids[s], index.edge_indptr[s], index.shard_edges(s)[1])
        order = np.lexsort((m.dst, m.dst % n_shards))
        rows = [m.senders[order], m.dst[order], m.values[order], m.valid[order]]
        bounds = np.searchsorted((m.dst % n_shards)[order], np.arange(n_shards + 1))
        for d in range(n_shards):
            buckets[d].append([r[bounds[d] : bounds[d + 1]] for r in rows])
    out = []
    for parts in buckets:
        parts = [p for p in parts if len(p[1])]
        if not parts:
            out.append(None)
            continue
        rows = [np.concatenate([p[i] for p in parts]) for i in range(4)]
        order = np.argsort(rows[1], kind="stable")
        out.append(tuple(r[order] for r in rows))
    return out


def assert_same_inboxes(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is None:
            continue
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.fixture
def builds(monkeypatch) -> dict:
    """Counts of index builds and delivery-plan builds, plus the plans
    built, in order."""
    seen = {"index": 0, "plan": 0, "plans": []}
    index_init = ShardIndex.__init__
    build_plan = shards._build_delivery_plan

    def counting_init(self, *args, **kwargs):
        seen["index"] += 1
        index_init(self, *args, **kwargs)

    def counting_plan(index):
        seen["plan"] += 1
        plan = build_plan(index)
        seen["plans"].append(plan)
        return plan

    monkeypatch.setattr(ShardIndex, "__init__", counting_init)
    monkeypatch.setattr(shards, "_build_delivery_plan", counting_plan)
    return seen


@st.composite
def graphs(draw, ghost_sources: bool = False):
    """Small hostile graphs: parallel edges, self-loops, isolated
    vertices, edges to ids with no vertex row (and, with
    ``ghost_sources``, from them), 1-5 shards, any sender mask (all /
    none / one / some) and some halted (inactive) vertices."""
    ids = draw(st.sets(st.integers(0, 40), min_size=1, max_size=14))
    id_list = sorted(ids)
    endpoint = st.one_of(st.sampled_from(id_list), st.integers(0, 60))  # may be a ghost
    source = endpoint if ghost_sources else st.sampled_from(id_list)
    edges = draw(st.lists(st.tuples(source, endpoint), max_size=50))
    senders = draw(
        st.one_of(
            st.none(),  # unmasked send
            st.just(frozenset(ids)),
            st.just(frozenset()),
            st.sampled_from(id_list).map(lambda v: frozenset([v])),
            st.sets(st.sampled_from(id_list)).map(frozenset),
        )
    )
    halted = draw(st.sets(st.sampled_from(id_list)))
    n_shards = draw(st.integers(1, 5))
    return ids, [e[0] for e in edges], [e[1] for e in edges], senders, halted, n_shards


class TestPlanEqualsLexsort:
    @PROPERTY
    @given(graphs(), st.sampled_from(["neighbors", "along_edges"]), st.booleans())
    def test_edge_aligned_sends_route_through_the_plan(self, graph, how, halted_run):
        ids, src, dst, senders, halted, n_shards = graph
        index = build_index(ids, src, dst, n_shards)
        # Superstep 1 with halted, message-less vertices: the batch holds
        # only the active ones, so the mask must map through ``act``.
        superstep = 1 if halted_run else 0
        _, emitted = emit(index, Sender(senders, how), superstep, halted)
        assert all(m is None or m.route_senders is not None for m in emitted)
        want = lexsort_delivery(index, emitted)
        # Cut-over forced low: the plan serves every tagged superstep.
        with mock.patch.object(shards, "_PLAN_MIN_EDGE_SHARE", 0), mock.patch.object(
            shards, "_sorted_rows", wraps=shards._sorted_rows
        ) as sorts:
            got, sent = _deliver(index, emitted, None)
            assert sorts.call_count == 0  # no sort: the plan
            assert (index._plan is not None) == (sent > 0)
            plan = index._plan
            assert_same_inboxes(_deliver(index, emitted, None)[0], got)
            assert index._plan is plan  # built once
        assert_same_inboxes(got, want)
        # The shipped cut-over may pick either path; same answer.
        assert_same_inboxes(_deliver(index, emitted, None)[0], want)

    @PROPERTY
    @given(graphs(), st.sampled_from(["two_blocks", "with_send", "scalar"]))
    def test_other_task_shapes_fall_back(self, graph, how):
        ids, src, dst, senders, halted, n_shards = graph
        index = build_index(ids, src, dst, n_shards)
        _, emitted = emit(index, Sender(senders, how), 0, use_batch=how != "scalar")
        assert all(m is None or m.route_senders is None for m in emitted)
        with mock.patch.object(shards, "_PLAN_MIN_EDGE_SHARE", 0):
            got, _ = _deliver(index, emitted, None)
        assert index._plan is None
        assert_same_inboxes(got, lexsort_delivery(index, emitted))

    def test_few_messages_sort_instead_of_filtering(self):
        """Below the cut-over a tagged superstep neither builds nor uses
        the plan; at or above it, it does."""
        hub, leaves = 0, list(range(1, 41))
        src = [hub] * 40 + [1]
        dst = leaves + [hub]
        index = build_index([hub, *leaves], src, dst, 1)
        _, emitted = emit(index, Sender(frozenset([1]), "neighbors"), 0)
        assert emitted[0].route_senders is not None
        got, _ = _deliver(index, emitted, None)
        assert index._plan is None
        assert_same_inboxes(got, lexsort_delivery(index, emitted))
        _, emitted = emit(index, Sender(frozenset([hub]), "neighbors"), 0)
        got, _ = _deliver(index, emitted, None)
        assert index._plan is not None
        assert_same_inboxes(got, lexsort_delivery(index, emitted))


# ---------------------------------------------------------------------------
# The tag is checked where it is made
# ---------------------------------------------------------------------------
class RaggedSender(BatchVertexProgram):
    def __init__(self, how: str) -> None:
        self.how = how

    def compute(self, vertex: Vertex) -> None:
        vertex.vote_to_halt()

    def compute_batch(self, batch: VertexBatch) -> None:
        if self.how == "per_edge":
            batch.send_along_edges(batch.edge_weights[:-1])
        elif self.how == "per_vertex":
            batch.send_to_all_neighbors(np.ones(batch.size + 1))
        elif self.how == "edge_mask":
            batch.send_along_edges(batch.edge_weights, mask=np.ones(batch.size + 2, dtype=bool))
        else:
            batch.send_to_all_neighbors(np.ones(batch.size), mask=np.ones(1, dtype=bool))


class TestEdgeAlignedSendsValidate:
    @pytest.mark.parametrize("plane", ["sql", "shards"])
    @pytest.mark.parametrize(
        "how,message",
        [
            ("per_edge", r"send_along_edges\(\) needs per_edge of length \d+ .*edges\), got"),
            ("per_vertex", r"send_to_all_neighbors\(\) needs per_vertex of length \d+ .*got"),
            ("edge_mask", r"send_along_edges\(\) needs mask of length \d+ .*vertices\), got"),
            ("vertex_mask", r"send_to_all_neighbors\(\) needs mask of length \d+ .*got length 1"),
        ],
        ids=["per_edge", "per_vertex", "edge_mask", "vertex_mask"],
    )
    def test_ragged_payload_or_mask_raises_program_error(self, plane, how, message):
        rng = np.random.default_rng(5)
        vx = Vertexica(config=VertexicaConfig(data_plane=plane, n_partitions=2))
        src, dst = rng.integers(0, 20, 80), rng.integers(0, 20, 80)
        graph = vx.load_graph("g", src, dst, num_vertices=20)
        with pytest.raises(ProgramError, match=message):
            vx.run(graph, RaggedSender(how))

    def test_lengths_named_are_the_batch_s(self):
        batch = VertexBatch(
            ids=np.array([3, 4]), values=np.zeros(2), values_valid=np.ones(2, dtype=bool),
            was_halted=np.zeros(2, dtype=bool), edge_indptr=np.array([0, 2, 3]),
            edge_targets=np.array([4, 5, 3]), edge_weights=np.ones(3),
            msg_indptr=np.zeros(3, dtype=np.int64), message_values=np.empty(0),
            message_valid=np.empty(0, dtype=bool), superstep=0, num_vertices=6,
        )
        with pytest.raises(ProgramError, match=r"length 3 \(the batch's edges\), got length 2"):
            batch.send_along_edges(np.ones(2))
        with pytest.raises(ProgramError, match=r"length 2 \(the batch's vertices\), got length 3"):
            batch.send_to_all_neighbors(np.ones(3))
        assert batch.collect_message_blocks() == []
        batch.send_along_edges(np.ones(3), mask=[True, False])  # list masks coerce
        (_, targets, _, sending), = batch.collect_message_blocks()
        assert targets.tolist() == [4, 5] and sending.tolist() == [True, False]


# ---------------------------------------------------------------------------
# Topology sorts and plan builds: per edge-table version, not per run
# ---------------------------------------------------------------------------
N_SHARDS = 3


def gate_graph(vx: Vertexica, weights: bool = False, symmetrize: bool = False):
    rng = np.random.default_rng(23)
    return vx.load_graph(
        "g", rng.integers(0, 90, 600), rng.integers(0, 90, 600),
        weights=rng.uniform(0.5, 3.0, 600) if weights else None,
        num_vertices=90, symmetrize=symmetrize,
    )


class TestRouteSortsPerTableVersion:
    def _route_sorts(self, monkeypatch, vx=None, **cfg) -> tuple[int, Vertexica]:
        """``hash_bucket_order`` calls made by one PageRank run (on a
        fresh graph unless ``vx`` is given)."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return hash_bucket_order(*args, **kwargs)

        monkeypatch.setattr(shards, "hash_bucket_order", counting)
        if vx is None:
            vx = Vertexica(
                config=VertexicaConfig(
                    data_plane="shards", n_partitions=N_SHARDS, n_workers=2
                )
            )
            gate_graph(vx)
        vx.run(vx.graph("g"), PageRank(iterations=cfg.pop("iterations")), **cfg)
        return len(calls), vx

    def test_sorts_do_not_grow_with_supersteps(self, monkeypatch, builds):
        short, _ = self._route_sorts(monkeypatch, iterations=3)
        long, vx = self._route_sorts(monkeypatch, iterations=8)
        # Two partition-once sorts at the index build; the plan sorts by
        # destination shard with the integer-order kernel.
        assert short == long == 2
        assert builds["index"] == builds["plan"] == 2  # one per fresh graph
        again, _ = self._route_sorts(monkeypatch, vx, iterations=8)
        vx.close()
        assert again == 0
        assert builds["index"] == builds["plan"] == 2  # the same edge table

    def test_scalar_compute_builds_no_plan(self, monkeypatch, builds):
        _, vx = self._route_sorts(monkeypatch, iterations=3, compute_strategy="scalar")
        assert builds["plan"] == 0
        self._route_sorts(monkeypatch, vx, iterations=3)
        vx.close()
        assert builds["index"] == builds["plan"] == 1  # the spy does see batch runs


# ---------------------------------------------------------------------------
# The index follows the edge table
# ---------------------------------------------------------------------------
#: (program, symmetrize, whether its frontier is ever dense enough to plan)
PROGRAMS = [
    pytest.param(lambda: PageRank(iterations=5), False, True, id="pagerank"),
    pytest.param(ConnectedComponents, True, True, id="masked-cc"),
    pytest.param(lambda: ShortestPaths(0), False, False, id="sssp"),
]


class TestPlanIsPerTableVersion:
    def _two_runs(self, plane: str, program_factory, symmetrize: bool):
        vx = Vertexica(config=VertexicaConfig(data_plane=plane, n_partitions=N_SHARDS))
        graph = gate_graph(vx, weights=True, symmetrize=symmetrize)
        first = vx.run(graph, program_factory())
        # Rows far out of (src, dst) order, incl. a parallel edge and a
        # source whose earlier edges sit at the head of the table.
        vx.sql(
            "INSERT INTO g_edge VALUES (88, 2, 1.5), (0, 89, 0.75), (41, 3, 2.0), "
            "(0, 1, 1.0), (41, 3, 0.5), (7, 7, 1.0)"
        )
        second = vx.run(vx.graph("g"), program_factory())
        return first.values, second.values

    @pytest.mark.parametrize("program_factory,symmetrize,plans", PROGRAMS)
    def test_out_of_order_edges_between_runs(self, program_factory, symmetrize, plans, builds):
        sql = self._two_runs("sql", program_factory, symmetrize)
        # The SQL plane reads the same topology, one per edge-table
        # version, and never delivers through a plan.
        assert builds["index"] == 2 and builds["plan"] == 0
        shard = self._two_runs("shards", program_factory, symmetrize)
        assert shard == sql
        # The INSERT made a new edge-table version: the second run
        # re-partitioned and, where the first planned, re-planned over the
        # six new edges too.
        assert builds["index"] == 4
        assert builds["plan"] == (2 if plans else 0)
        if plans:
            first, second = builds["plans"]
            assert sum(map(len, second.order)) == sum(map(len, first.order)) + 6

    @pytest.mark.parametrize("program_factory,symmetrize,plans", PROGRAMS)
    def test_reused_after_rollback(self, program_factory, symmetrize, plans, builds, tmp_path):
        def run(**cfg):
            vx = Vertexica(config=VertexicaConfig(data_plane="shards", n_partitions=N_SHARDS))
            graph = gate_graph(vx, weights=True, symmetrize=symmetrize)
            return vx.run(graph, program_factory(), **cfg)

        clean = run()
        clean_builds = dict(builds)
        plan = FaultPlan([FaultSpec(site="shard.route", kind="transient", superstep=2)])
        with faults.injected(plan):
            faulted = run(checkpoint_every=1, checkpoint_dir=str(tmp_path))
        assert len(plan.fired) == 1 and faulted.stats.retries == 1
        assert faulted.values == clean.values
        # close() + _build_plane made new shards over the same index: the
        # faulted run built exactly what the clean run built.
        assert builds["index"] == 2 * clean_builds["index"] == 2
        assert builds["plan"] == 2 * clean_builds["plan"] == (2 if plans else 0)


class TestOneIndexForBothPlanes:
    """The SQL plane's union input reads its out-edges from the same index,
    fetched by the same function: a graph version is partitioned once,
    whichever plane runs on it."""

    def test_sql_then_shards_build_one_index(self, builds):
        vx = Vertexica(config=VertexicaConfig(n_partitions=N_SHARDS))
        graph = gate_graph(vx, weights=True)
        sql = vx.run(graph, PageRank(iterations=5))
        assert builds["index"] == 1 and builds["plan"] == 0
        shard = vx.run(graph, PageRank(iterations=5), data_plane="shards")
        assert shard.values == sql.values
        assert builds["index"] == 1 and builds["plan"] == 1
        # Another partition count is another index.
        vx.run(graph, PageRank(iterations=5), n_partitions=N_SHARDS + 1)
        assert builds["index"] == 2

    def test_sql_rollback_reuses_the_index(self, builds, tmp_path):
        vx = Vertexica(config=VertexicaConfig(n_partitions=N_SHARDS))
        graph = gate_graph(vx, weights=True)
        clean = vx.run(graph, PageRank(iterations=5))
        plan = FaultPlan([FaultSpec(site="storage.apply", kind="transient", superstep=2)])
        with faults.injected(plan):
            faulted = vx.run(
                graph, PageRank(iterations=5), checkpoint_every=1, checkpoint_dir=str(tmp_path)
            )
        assert len(plan.fired) == 1 and faulted.stats.retries == 1
        assert faulted.values == clean.values
        # Both runs and the rollback's rebuilt plane read one index.
        assert builds["index"] == 1

    def test_join_input_builds_none(self, builds):
        vx = Vertexica(config=VertexicaConfig(n_partitions=N_SHARDS, input_strategy="join"))
        vx.run(gate_graph(vx), PageRank(iterations=3))
        assert builds["index"] == 0
