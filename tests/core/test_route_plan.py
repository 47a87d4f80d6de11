"""Sort-once shard routing: the route plan equals the lexsort it replaces.

``_bucket_staged`` orders a shard task's emitted messages by stable
``(destination shard, destination id)``.  For edge-aligned sends
(``VertexBatch.send_to_all_neighbors`` / ``send_along_edges``) that order
comes from the shard's sort-once route plan instead of a per-superstep
lexsort.  This module pins:

* plan == lexsort, property-based, over hostile graphs and sender masks,
  and the fallback for every task shape the plan does not cover;
* the edge-aligned tag is validated where it is made (``ProgramError``
  at the send call, on both planes);
* a hardware-independent gate: route sorts per run are O(shards), not
  O(shards x supersteps), and a scalar-compute run builds no plan;
* the plan is per run: edges inserted out of order between two runs, and
  a rollback's plane rebuild, leave sql == shards bitwise.
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
from repro.core.shards import PlaneMeta, VertexShard, _bucket_staged
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


def build_shards(ids, src, dst, n_shards: int, halted: set[int]) -> list[VertexShard]:
    """Hand-built shards (the layout ``_build_shards`` produces): sorted
    ids, CSR out-edges with equal-src edges in input order."""
    ids = np.asarray(sorted(ids), dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    out = []
    for s in range(n_shards):
        vertex_ids = ids[ids % n_shards == s]
        mine = np.flatnonzero(np.isin(src, vertex_ids))
        mine = mine[np.argsort(src[mine], kind="stable")]
        nv = len(vertex_ids)
        past_the_end = np.append(vertex_ids, np.iinfo(np.int64).max)
        out.append(
            VertexShard(
                index=s,
                vertex_ids=vertex_ids,
                halted=np.isin(vertex_ids, sorted(halted)),
                raw_values=np.zeros(nv),
                value_valid=np.ones(nv, dtype=bool),
                edge_indptr=np.searchsorted(src[mine], past_the_end),
                edge_targets=dst[mine],
                edge_weights=np.ones(len(mine)),
                msg_src=np.empty(0, dtype=np.int64),
                msg_dst=np.empty(0, dtype=np.int64),
                msg_raw=np.empty(0),
                msg_valid=np.empty(0, dtype=bool),
            )
        )
    return out


def plane_meta(n_shards: int) -> PlaneMeta:
    return PlaneMeta(
        n_shards=n_shards, task_retries=0, retry_backoff=0.0, value_width=0, msg_width=0,
        value_is_varchar=False, msg_is_varchar=False, value_dtype="<f8", msg_dtype="<f8",
    )


def bucket(shard: VertexShard, program, n_shards: int, superstep: int, use_batch: bool = True):
    """One shard task's staging and bucketing, as ``_run_shard_task``
    does them; returns ``(staged, routed)``."""
    worker = VertexWorker(program, superstep, 64, use_batch=use_batch)
    out, _ = worker.compute_decoded(shard.decoded(), record=False)
    staged = out.to_staged()
    return staged, _bucket_staged(staged, plane_meta(n_shards), shard)


def assert_is_lexsort(staged, routed, n_shards: int) -> None:
    """``routed`` is the emitted rows in the order a stable ``(dest
    shard, dest id)`` lexsort of them gives."""
    sent = staged.kind == 1
    if not sent.any():
        assert routed is None
        return
    senders, dst, values = staged.vid[sent], staged.dst[sent], staged.f1[sent]
    order, bounds = hash_bucket_order(dst % n_shards, n_shards, (dst,))
    assert np.array_equal(routed[0], senders[order])
    assert np.array_equal(routed[1], dst[order])
    assert np.array_equal(routed[2], values[order])
    assert np.array_equal(routed[4], bounds)


@st.composite
def graphs(draw):
    """Small hostile graphs: parallel edges, self-loops, isolated
    vertices, edges to ids with no vertex row, 1-5 shards, any sender
    mask (all / none / one / some) and some halted (inactive) vertices."""
    ids = draw(st.sets(st.integers(0, 40), min_size=1, max_size=14))
    id_list = sorted(ids)
    endpoint = st.one_of(st.sampled_from(id_list), st.integers(0, 60))  # may be a ghost
    edges = draw(st.lists(st.tuples(st.sampled_from(id_list), endpoint), max_size=50))
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
        # Superstep 1 with halted, message-less vertices: the batch holds
        # only the active ones, so the mask must map through ``act``.
        superstep = 1 if halted_run else 0
        for shard in build_shards(ids, src, dst, n_shards, halted):
            # Cut-over forced low: the plan serves every tagged task.
            with mock.patch.object(shards, "_PLAN_MIN_EDGE_SHARE", 10**9), mock.patch.object(
                shards, "hash_bucket_order", wraps=hash_bucket_order
            ) as sorts:
                staged, routed = bucket(shard, Sender(senders, how), n_shards, superstep)
                if routed is not None:
                    assert staged.route_senders is not None
                    assert sorts.call_count == 1  # building the plan
                    bucket(shard, Sender(senders, how), n_shards, superstep)
                    assert sorts.call_count == 1  # and never again
            assert_is_lexsort(staged, routed, n_shards)
            # The shipped cut-over may pick either path; same answer.
            assert_is_lexsort(*bucket(shard, Sender(senders, how), n_shards, superstep), n_shards)

    @PROPERTY
    @given(graphs(), st.sampled_from(["two_blocks", "with_send", "scalar"]))
    def test_other_task_shapes_fall_back(self, graph, how):
        ids, src, dst, senders, halted, n_shards = graph
        for shard in build_shards(ids, src, dst, n_shards, halted):
            with mock.patch.object(shards, "_PLAN_MIN_EDGE_SHARE", 10**9):
                staged, routed = bucket(
                    shard, Sender(senders, how), n_shards, 0, use_batch=how != "scalar"
                )
            assert staged.route_senders is None and shard._route_plan is None
            assert_is_lexsort(staged, routed, n_shards)

    def test_few_messages_sort_instead_of_filtering(self):
        """Below the cut-over a tagged task neither builds nor uses the
        plan; at or above it, it does."""
        hub, leaves = 0, list(range(1, 41))
        src = [hub] * 40 + [1]
        dst = leaves + [hub]
        (shard,) = build_shards([hub, *leaves], src, dst, 1, set())
        staged, routed = bucket(shard, Sender(frozenset([1]), "neighbors"), 1, 0)
        assert staged.route_senders is not None and shard._route_plan is None
        assert_is_lexsort(staged, routed, 1)
        staged, routed = bucket(shard, Sender(frozenset([hub]), "neighbors"), 1, 0)
        assert shard._route_plan is not None
        assert_is_lexsort(staged, routed, 1)


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
# Route sorts per run: O(shards), not O(shards x supersteps)
# ---------------------------------------------------------------------------
N_SHARDS = 3


def gate_graph(vx: Vertexica, weights: bool = False, symmetrize: bool = False):
    rng = np.random.default_rng(23)
    return vx.load_graph(
        "g", rng.integers(0, 90, 600), rng.integers(0, 90, 600),
        weights=rng.uniform(0.5, 3.0, 600) if weights else None,
        num_vertices=90, symmetrize=symmetrize,
    )


@pytest.fixture
def planned(monkeypatch) -> list[VertexShard]:
    """The shards whose route plan a run asked for, in call order."""
    asked: list[VertexShard] = []
    original = VertexShard.route_plan
    monkeypatch.setattr(
        VertexShard, "route_plan", lambda self, n: asked.append(self) or original(self, n)
    )
    return asked


class TestRouteSortsPerRun:
    def _route_sorts(self, monkeypatch, **cfg) -> int:
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return hash_bucket_order(*args, **kwargs)

        monkeypatch.setattr(shards, "hash_bucket_order", counting)
        vx = Vertexica(
            config=VertexicaConfig(
                data_plane="shards", n_partitions=N_SHARDS, n_workers=2, executor="threads"
            )
        )
        vx.run(gate_graph(vx), PageRank(iterations=cfg.pop("iterations")), **cfg)
        return len(calls)

    def test_sorts_do_not_grow_with_supersteps(self, monkeypatch):
        short = self._route_sorts(monkeypatch, iterations=3)
        long = self._route_sorts(monkeypatch, iterations=8)
        # Two partition-once sorts at shard build + one plan per shard.
        assert short == long
        assert long <= 2 + N_SHARDS

    def test_scalar_compute_builds_no_plan(self, monkeypatch, planned):
        self._route_sorts(monkeypatch, iterations=3, compute_strategy="scalar")
        assert planned == []
        self._route_sorts(monkeypatch, iterations=3)
        assert len({id(s) for s in planned}) == N_SHARDS  # the spy does see batch runs


# ---------------------------------------------------------------------------
# The plan is per run
# ---------------------------------------------------------------------------
PROGRAMS = [
    pytest.param(lambda: PageRank(iterations=5), False, id="pagerank"),
    pytest.param(ConnectedComponents, True, id="masked-cc"),
    pytest.param(lambda: ShortestPaths(0), False, id="sssp"),
]


class TestPlanIsPerRun:
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

    @pytest.mark.parametrize("program_factory,symmetrize", PROGRAMS)
    def test_out_of_order_edges_between_runs(self, program_factory, symmetrize, planned):
        sql = self._two_runs("sql", program_factory, symmetrize)
        assert planned == []
        shard = self._two_runs("shards", program_factory, symmetrize)
        assert shard == sql
        # Both runs routed through plans, each over its own shards.
        assert len({id(s) for s in planned}) == 2 * N_SHARDS

    @pytest.mark.parametrize("program_factory,symmetrize", PROGRAMS)
    def test_rebuilt_after_rollback(self, program_factory, symmetrize, planned, tmp_path):
        def run(**cfg):
            vx = Vertexica(config=VertexicaConfig(data_plane="shards", n_partitions=N_SHARDS))
            graph = gate_graph(vx, weights=True, symmetrize=symmetrize)
            return vx.run(graph, program_factory(), **cfg)

        clean = run()
        planned.clear()
        plan = FaultPlan([FaultSpec(site="shard.route", kind="transient", superstep=2)])
        with faults.injected(plan):
            faulted = run(checkpoint_every=1, checkpoint_dir=str(tmp_path))
        assert len(plan.fired) == 1 and faulted.stats.retries == 1
        assert faulted.values == clean.values
        # More planning shards than one plane holds: close() + _build_plane
        # made new shards, and those planned afresh.
        assert len({id(s) for s in planned}) > N_SHARDS
