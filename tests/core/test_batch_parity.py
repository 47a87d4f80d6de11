"""Scalar vs. vectorized data-plane parity.

The batch compute path (``compute_batch`` + numpy staging) must be
*bit-identical* to the per-vertex scalar path for every bundled program:
same vertex values, same aggregator results, same superstep/halt
behavior.  These tests run the same program under
``compute_strategy="scalar"`` and on ``"auto"``'s batch path on random
graphs — with isolated vertices, vertices that never receive messages,
and messages addressed to nonexistent ids — and compare everything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Vertexica, VertexicaConfig
from repro.core.api import Vertex
from repro.core.codecs import vector_codec
from repro.core.program import (
    BatchVertexProgram,
    VertexBatch,
    VertexProgram,
    supports_batch,
)
from repro.core.worker import (
    VertexWorker,
    segment_max,
    segment_mean,
    segment_min,
    segment_sum,
)
from repro.errors import ProgramError
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


def random_graph(seed: int, n: int = 120, m: int = 700):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weights = rng.uniform(0.5, 4.0, m)
    return src, dst, weights


def run_with(strategy: str, program_factory, seed: int, symmetrize: bool = False, **cfg):
    """Run under ``strategy``: ``"scalar"``, ``"auto"``, or ``"batch"``,
    which runs ``"auto"`` and checks that every superstep took the batch
    path."""
    n = 120
    src, dst, weights = random_graph(seed)
    cfg.setdefault("n_partitions", 4)
    config = VertexicaConfig(compute_strategy="auto" if strategy == "batch" else strategy, **cfg)
    vx = Vertexica(config=config)
    # num_vertices > max id guarantees isolated vertices with no edges
    # and no messages ever.
    graph = vx.load_graph(
        "g", src, dst, weights=weights, num_vertices=n + 8, symmetrize=symmetrize
    )
    result = vx.run(graph, program_factory())
    if strategy == "batch":
        assert all(s.compute_path == "batch" for s in result.stats.supersteps)
    return result


def assert_runs_identical(scalar, batch):
    """Values, aggregates, and halt behavior must match exactly."""
    assert scalar.values == batch.values  # bit-identical, not approximate
    s_steps, b_steps = scalar.stats.supersteps, batch.stats.supersteps
    assert len(s_steps) == len(b_steps)
    for s, b in zip(s_steps, b_steps):
        assert s.active_vertices == b.active_vertices
        assert s.messages_in == b.messages_in
        assert s.messages_out == b.messages_out
        assert s.vertex_updates == b.vertex_updates
        assert s.aggregated == b.aggregated


PROGRAMS = [
    pytest.param(lambda: PageRank(iterations=6), False, id="pagerank"),
    pytest.param(lambda: PageRank(iterations=4, damping=0.6), False, id="pagerank-damped"),
    pytest.param(lambda: ShortestPaths(source=0), False, id="sssp"),
    pytest.param(lambda: ShortestPaths(source=5), False, id="sssp-alt-source"),
    pytest.param(lambda: ConnectedComponents(), True, id="components"),
    pytest.param(lambda: LabelPropagation(iterations=4), True, id="label-prop"),
    pytest.param(
        lambda: LabelPropagation(iterations=3, seeds={0: 500, 3: 500, 7: 500}),
        True,
        id="label-prop-seeded",
    ),
]


class TestBatchScalarParity:
    @pytest.mark.parametrize("program_factory,symmetrize", PROGRAMS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_bit_identical_results(self, program_factory, symmetrize, seed):
        scalar = run_with("scalar", program_factory, seed, symmetrize)
        batch = run_with("batch", program_factory, seed, symmetrize)
        assert_runs_identical(scalar, batch)
        assert all(s.compute_path == "scalar" for s in scalar.stats.supersteps)
        assert all(s.compute_path == "batch" for s in batch.stats.supersteps)

    @pytest.mark.parametrize("program_factory,symmetrize", PROGRAMS)
    def test_join_input_format_parity(self, program_factory, symmetrize):
        scalar = run_with(
            "scalar", program_factory, 7, symmetrize, input_strategy="join"
        )
        batch = run_with(
            "batch", program_factory, 7, symmetrize, input_strategy="join"
        )
        assert_runs_identical(scalar, batch)

    def test_pagerank_without_combiner(self):
        # Multiple raw messages per vertex: the batch path's bincount
        # accumulation must match Python's sequential sum exactly.
        scalar = run_with("scalar", lambda: PageRank(iterations=5), 13, use_combiner=False)
        batch = run_with("batch", lambda: PageRank(iterations=5), 13, use_combiner=False)
        assert_runs_identical(scalar, batch)

    def test_single_partition_parity(self):
        scalar = run_with("scalar", lambda: PageRank(iterations=4), 5, n_partitions=1)
        batch = run_with("batch", lambda: PageRank(iterations=4), 5, n_partitions=1)
        assert_runs_identical(scalar, batch)

    def test_sssp_unreachable_vertices_stay_infinite(self):
        batch = run_with("batch", lambda: ShortestPaths(source=0), 3)
        assert any(v == float("inf") for v in batch.values.values())


class TestScalarFallback:
    def test_auto_falls_back_for_scalar_only_programs(self):
        auto = run_with("auto", lambda: RandomWalkWithRestart(source=2), 9, True)
        scalar = run_with("scalar", lambda: RandomWalkWithRestart(source=2), 9, True)
        assert_runs_identical(scalar, auto)
        assert all(s.compute_path == "scalar" for s in auto.stats.supersteps)

    def test_auto_uses_batch_when_available(self):
        auto = run_with("auto", lambda: PageRank(iterations=3), 9)
        assert all(s.compute_path == "batch" for s in auto.stats.supersteps)

    def test_worker_rejects_batch_for_scalar_only_program(self):
        # The config cannot force the batch path; the worker still refuses
        # it to a direct caller whose program has no compute_batch.
        with pytest.raises(ProgramError, match="compute_batch"):
            VertexWorker(RandomWalkWithRestart(source=2), 0, 3, use_batch=True)

    def test_aggregator_program_parity_via_scalar_path(self):
        # AdaptivePageRank has no batch kernel; auto must match scalar
        # including its per-superstep aggregator values.
        auto = run_with("auto", lambda: AdaptivePageRank(), 21)
        scalar = run_with("scalar", lambda: AdaptivePageRank(), 21)
        assert_runs_identical(scalar, auto)

    def test_supports_batch_detection(self):
        assert supports_batch(PageRank(iterations=1))
        assert supports_batch(ConnectedComponents())
        assert supports_batch(LabelPropagation())
        assert not supports_batch(RandomWalkWithRestart(source=0))


class GhostMessenger(BatchVertexProgram):
    """Sends messages to a vertex id that does not exist — both paths
    must drop them identically and still converge."""

    combiner = None

    def initial_value(self, vertex_id: int, out_degree: int, num_vertices: int) -> float:
        return float(vertex_id)

    def compute(self, vertex: Vertex) -> None:
        if vertex.superstep == 0:
            vertex.send_message(10_000, 1.0)  # nonexistent destination
            vertex.send_message_to_all_neighbors(vertex.value)
        else:
            vertex.modify_vertex_value(sum(vertex.messages))
        vertex.vote_to_halt()

    def compute_batch(self, batch: VertexBatch) -> None:
        if batch.superstep == 0:
            batch.send(
                batch.ids,
                np.full(batch.size, 10_000, dtype=np.int64),
                np.ones(batch.size, dtype=np.float64),
            )
            batch.send_to_all_neighbors(batch.values)
        else:
            batch.set_values(batch.sum_messages())
        batch.vote_to_halt()


class TestDroppedMessages:
    def test_messages_to_nonexistent_ids_dropped_identically(self):
        scalar = run_with("scalar", GhostMessenger, 17)
        batch = run_with("batch", GhostMessenger, 17)
        assert_runs_identical(scalar, batch)

    def test_ghost_messages_do_not_create_vertices(self):
        batch = run_with("batch", GhostMessenger, 17)
        assert 10_000 not in batch.values


# ---------------------------------------------------------------------------
# SQL-staged vs shard-resident data plane parity (every shipped program)
# ---------------------------------------------------------------------------
def _plane_graph_data(matching: bool):
    if matching:
        # 30 disjoint user-item pairs with rating-like weights (the
        # graph CollaborativeFiltering trains on).
        src = np.arange(0, 60, 2, dtype=np.int64)
        dst = src + 1
        weights = 1.0 + (np.arange(30, dtype=np.float64) % 9) / 2.0
        return src, dst, weights, 66
    from repro.datasets.generators import power_law_graph

    g = power_law_graph("g", 90, 450, seed=23, weighted=True)
    return g.src, g.dst, g.weights, 96


def run_on_plane(
    data_plane: str, program_factory, symmetrize=False, matching=False, **cfg
):
    src, dst, weights, n = _plane_graph_data(matching)
    cfg.setdefault("n_partitions", 4)
    vx = Vertexica(config=VertexicaConfig(data_plane=data_plane, **cfg))
    graph = vx.load_graph(
        "g", src, dst, weights=weights, num_vertices=n, symmetrize=symmetrize
    )
    return vx.run(graph, program_factory())


#: (program factory, needs_symmetrized_edges, matching_graph) — every
#: program in ``repro.programs``; keep in sync with its ``__all__``.
#: Unlike the union-vs-join suite, CollaborativeFiltering runs on the
#: *general* graph here: the shard plane reproduces the SQL plane's
#: message delivery order exactly (source-partition order, then emission
#: order), so even order-sensitive SGD must stay bit-identical.
ALL_PROGRAMS_BOTH_PLANES = [
    pytest.param(lambda: PageRank(iterations=5), False, False, id="pagerank"),
    pytest.param(
        lambda: AdaptivePageRank(epsilon=1e-4), False, False, id="adaptive-pagerank"
    ),
    pytest.param(lambda: ShortestPaths(source=0), False, False, id="sssp"),
    pytest.param(lambda: ConnectedComponents(), True, False, id="components"),
    pytest.param(
        lambda: CollaborativeFiltering(iterations=4, rank=4),
        True,
        False,
        id="collab-filter",
    ),
    pytest.param(
        lambda: RandomWalkWithRestart(source=2, iterations=5), False, False, id="rwr"
    ),
    pytest.param(lambda: InDegree(), False, False, id="in-degree"),
    pytest.param(lambda: OutDegree(), False, False, id="out-degree"),
    pytest.param(lambda: LabelPropagation(iterations=4), True, False, id="label-prop"),
    pytest.param(
        lambda: MultiSourceSSSP(sources=(0, 5, 11)), False, False, id="multi-sssp"
    ),
    pytest.param(
        lambda: FeaturePropagation(iterations=4, width=5),
        False,
        False,
        id="feature-prop",
    ),
    pytest.param(
        lambda: RandomWalkEmbeddings(iterations=3, dim=4),
        False,
        False,
        id="rw-embeddings",
    ),
]


class TestShardPlaneParity:
    """``data_plane="shards"`` must be bit-identical to the SQL plane for
    every shipped program: same values, same aggregates, same per-
    superstep message/halt behavior."""

    @pytest.mark.parametrize(
        "program_factory,symmetrize,matching", ALL_PROGRAMS_BOTH_PLANES
    )
    def test_planes_bit_identical(self, program_factory, symmetrize, matching):
        sql = run_on_plane("sql", program_factory, symmetrize, matching)
        shards = run_on_plane("shards", program_factory, symmetrize, matching)
        assert_runs_identical(sql, shards)
        assert all(s.update_path in ("memory", "none") for s in shards.stats.supersteps)

    @pytest.mark.parametrize(
        "program_factory,symmetrize,matching", ALL_PROGRAMS_BOTH_PLANES
    )
    def test_shard_plane_process_workers(self, program_factory, symmetrize, matching):
        """Worker processes — shard state in shared memory, compute in
        spawned processes — must be bit-identical to
        serial execution for every shipped program (exact values AND
        per-superstep stats), including the order-sensitive ones."""
        serial = run_on_plane("shards", program_factory, symmetrize, matching)
        processes = run_on_plane(
            "shards", program_factory, symmetrize, matching,
            n_workers=2, executor="processes",
        )
        assert_runs_identical(serial, processes)

    @pytest.mark.parametrize(
        "program_factory,symmetrize,matching", ALL_PROGRAMS_BOTH_PLANES
    )
    def test_shard_plane_uneven_worker_split(self, program_factory, symmetrize, matching):
        """Three worker processes over five shards own 2, 2 and 1 of them:
        a worker that finishes its batch early must not change any result
        (exact values AND per-superstep stats)."""
        serial = run_on_plane(
            "shards", program_factory, symmetrize, matching, n_partitions=5
        )
        processes = run_on_plane(
            "shards", program_factory, symmetrize, matching,
            n_partitions=5, n_workers=3, executor="processes",
        )
        assert_runs_identical(serial, processes)

    def test_shard_plane_scalar_strategy_parity(self):
        sql = run_on_plane("sql", lambda: PageRank(iterations=5), compute_strategy="scalar")
        shards = run_on_plane(
            "shards", lambda: PageRank(iterations=5), compute_strategy="scalar"
        )
        assert_runs_identical(sql, shards)
        assert all(s.compute_path == "scalar" for s in shards.stats.supersteps)

    def test_shard_plane_without_combiner(self):
        sql = run_on_plane("sql", lambda: PageRank(iterations=5), use_combiner=False)
        shards = run_on_plane(
            "shards", lambda: PageRank(iterations=5), use_combiner=False
        )
        assert_runs_identical(sql, shards)

    def test_single_partition_shard_plane(self):
        sql = run_on_plane("sql", lambda: ConnectedComponents(), True, n_partitions=1)
        shards = run_on_plane(
            "shards", lambda: ConnectedComponents(), True, n_partitions=1
        )
        assert_runs_identical(sql, shards)

    def test_ghost_messages_dropped_identically(self):
        src, dst, weights, n = _plane_graph_data(False)
        results = {}
        for plane in ("sql", "shards"):
            vx = Vertexica(config=VertexicaConfig(data_plane=plane, n_partitions=4))
            graph = vx.load_graph("g", src, dst, weights=weights, num_vertices=n)
            results[plane] = vx.run(graph, GhostMessenger())
        assert_runs_identical(results["sql"], results["shards"])
        assert 10_000 not in results["shards"].values


# ---------------------------------------------------------------------------
# Typed vector value plane: dense multi-column state
# ---------------------------------------------------------------------------
class TestVectorValuePlane:
    """The vector codec path (k typed FLOAT columns) must be bit-identical
    across the data planes — same factors, same superstep behavior — at
    several ranks."""

    @pytest.mark.parametrize("rank", [1, 2, 5, 8])
    def test_cf_vector_cross_plane(self, rank):
        sql = run_on_plane(
            "sql", lambda: CollaborativeFiltering(iterations=4, rank=rank), True
        )
        shards = run_on_plane(
            "shards", lambda: CollaborativeFiltering(iterations=4, rank=rank), True
        )
        assert_runs_identical(sql, shards)

    def test_cf_vector_matches_giraph_baseline(self):
        # The scalar compute is the semantic reference on every engine:
        # the Giraph baseline (no codecs at all) must land on the same
        # factors as the vector-codec relational path.
        from repro.baselines.giraph import GiraphConfig, GiraphEngine

        src, dst, weights, n = _plane_graph_data(False)
        program = CollaborativeFiltering(iterations=4, rank=4)
        vx = Vertexica()
        graph = vx.load_graph(
            "g", src, dst, weights=weights, num_vertices=n, symmetrize=True
        )
        vertexica_run = vx.run(graph, program)

        from repro.core.runner import _symmetrized

        gsrc, gdst, gw = _symmetrized(
            np.asarray(src), np.asarray(dst), np.asarray(weights, dtype=np.float64)
        )
        engine = GiraphEngine(
            n, gsrc, gdst, gw,
            config=GiraphConfig(barrier_latency_s=0.0, serialize_messages=True),
        )
        giraph_run = engine.run(CollaborativeFiltering(iterations=4, rank=4))
        assert vertexica_run.values == giraph_run.values

    def test_message_senders_come_from_src_column(self):
        class SenderEcho(BatchVertexProgram):
            """Vertex value = sum of sender ids (vector payload unused)."""

            vertex_codec = vector_codec(2)
            message_codec = vector_codec(2)
            combiner = None

            def initial_value(self, vertex_id, out_degree, num_vertices):
                return [float(vertex_id), 0.0]

            def compute(self, vertex):
                if vertex.superstep == 0:
                    vertex.send_message_to_all_neighbors(vertex.value)
                else:
                    total = float(sum(vertex.message_senders))
                    vertex.modify_vertex_value([total, float(len(vertex.messages))])
                vertex.vote_to_halt()

            def compute_batch(self, batch):
                if batch.superstep == 0:
                    batch.send_to_all_neighbors(batch.values)
                else:
                    counts = batch.message_counts
                    segments = np.repeat(np.arange(batch.size), counts)
                    sums = np.bincount(
                        segments,
                        weights=batch.message_senders.astype(np.float64),
                        minlength=batch.size,
                    )
                    batch.set_values(
                        np.column_stack([sums, counts.astype(np.float64)])
                    )
                batch.vote_to_halt()

        scalar = run_with("scalar", SenderEcho, 13)
        batch = run_with("batch", SenderEcho, 13)
        assert_runs_identical(scalar, batch)
        shards = run_on_plane("shards", SenderEcho)
        sql = run_on_plane("sql", SenderEcho)
        assert_runs_identical(sql, shards)

    def test_vector_batch_kernel_parity(self):
        class ComponentMax(BatchVertexProgram):
            """Per-component max propagation over width-3 state: an
            order-insensitive vector kernel, so batch reduceat and the
            scalar loop must agree bitwise."""

            vertex_codec = vector_codec(3)
            message_codec = vector_codec(3)
            combiner = None
            max_supersteps = 4

            def initial_value(self, vertex_id, out_degree, num_vertices):
                rng = np.random.default_rng(vertex_id + 41)
                return rng.standard_normal(3).tolist()

            def compute(self, vertex):
                value = np.asarray(vertex.value, dtype=np.float64)
                if vertex.superstep > 0:
                    if not vertex.messages:
                        vertex.vote_to_halt()
                        return
                    incoming = np.asarray(vertex.messages, dtype=np.float64)
                    value = np.maximum(value, incoming.max(axis=0))
                    vertex.modify_vertex_value(value.tolist())
                vertex.send_message_to_all_neighbors(value.tolist())

            def compute_batch(self, batch):
                values = np.asarray(batch.values, dtype=np.float64)
                if batch.superstep > 0:
                    counts = batch.message_counts
                    has = counts > 0
                    if not bool(has.any()):
                        batch.vote_to_halt()
                        return
                    nonempty = np.flatnonzero(counts)
                    maxima = np.full_like(values, -np.inf)
                    maxima[nonempty] = np.maximum.reduceat(
                        batch.message_values, batch.msg_indptr[:-1][nonempty], axis=0
                    )
                    updated = np.maximum(values, maxima)
                    values = np.where(has[:, None], updated, values)
                    batch.set_values(values, mask=has)
                    batch.vote_to_halt(~has)
                    batch.send_to_all_neighbors(values, mask=has)
                    # halted-without-messages vertices sent nothing in the
                    # scalar path either (they returned before sending)
                else:
                    batch.send_to_all_neighbors(values)

        scalar = run_with("scalar", ComponentMax, 7, True)
        batch = run_with("batch", ComponentMax, 7, True)
        assert_runs_identical(scalar, batch)
        sql = run_on_plane("sql", ComponentMax, symmetrize=True)
        shards = run_on_plane("shards", ComponentMax, symmetrize=True)
        assert_runs_identical(sql, shards)

    def test_vector_combiners_validate(self):
        # Numeric vector codecs are element-wise reducible; validate()
        # must admit them (the blunt rejection is gone).
        MultiSourceSSSP(sources=(0, 1)).validate()
        FeaturePropagation(iterations=2, width=3).validate()
        RandomWalkEmbeddings(iterations=2, dim=3).validate()


# ---------------------------------------------------------------------------
# Element-wise vector combiners: combined runs must be bit-identical to
# uncombined runs on both planes and every executor
# ---------------------------------------------------------------------------
#: The embedding workload family — every program whose messages reduce
#: element-wise (MIN for distance vectors, SUM for feature/walk vectors).
VECTOR_COMBINER_PROGRAMS = [
    pytest.param(lambda: MultiSourceSSSP(sources=(0, 5, 11)), id="multi-sssp"),
    pytest.param(
        lambda: FeaturePropagation(iterations=4, width=5), id="feature-prop"
    ),
    pytest.param(
        lambda: RandomWalkEmbeddings(iterations=3, dim=4), id="rw-embeddings"
    ),
]


def assert_combined_equals_uncombined(combined, uncombined):
    """Values and per-superstep activity must match bitwise; message
    counts differ by design (that is the point of combining)."""
    assert combined.values == uncombined.values  # bit-identical
    assert len(combined.stats.supersteps) == len(uncombined.stats.supersteps)
    for c, u in zip(combined.stats.supersteps, uncombined.stats.supersteps):
        assert c.active_vertices == u.active_vertices
        assert c.vertex_updates == u.vertex_updates
        assert c.aggregated == u.aggregated
    # The message-volume counters: the same rows were staged, fewer were
    # delivered.
    assert (
        combined.stats.total_messages_precombine == uncombined.stats.total_messages
    )
    assert combined.stats.total_messages < uncombined.stats.total_messages
    assert combined.stats.messages_combined_away > 0
    assert uncombined.stats.messages_combined_away == 0


class TestVectorCombiners:
    """Width-k messages reduce element-wise inside the data plane; every
    reduction site runs the same float64 reduceat arithmetic, so the
    combiner must never change a single bit of any result."""

    @pytest.mark.parametrize("program_factory", VECTOR_COMBINER_PROGRAMS)
    @pytest.mark.parametrize("plane", ["sql", "shards"])
    def test_combined_bit_identical_to_uncombined(self, plane, program_factory):
        combined = run_on_plane(plane, program_factory)
        uncombined = run_on_plane(plane, program_factory, use_combiner=False)
        assert_combined_equals_uncombined(combined, uncombined)

    @pytest.mark.parametrize("program_factory", VECTOR_COMBINER_PROGRAMS)
    def test_combined_parity_across_process_executor(self, program_factory):
        serial = run_on_plane("shards", program_factory)
        processes = run_on_plane(
            "shards", program_factory, n_workers=2, executor="processes"
        )
        assert_runs_identical(serial, processes)

    @pytest.mark.parametrize("program_factory", VECTOR_COMBINER_PROGRAMS)
    def test_combined_bit_identical_to_uncombined_on_processes(self, program_factory):
        # Each worker process combines its own shards; the counters the
        # coordinator sums over them must still say the same rows were
        # staged and fewer delivered.
        combined = run_on_plane(
            "shards", program_factory, n_workers=2, executor="processes"
        )
        uncombined = run_on_plane(
            "shards", program_factory, use_combiner=False,
            n_workers=2, executor="processes",
        )
        assert_combined_equals_uncombined(combined, uncombined)

    @pytest.mark.parametrize("program_factory", VECTOR_COMBINER_PROGRAMS)
    def test_batch_scalar_parity(self, program_factory):
        # random_graph pads 8 isolated vertices: empty message segments
        # and degree-0 senders go through both compute paths.
        scalar = run_with("scalar", program_factory, 3)
        batch = run_with("batch", program_factory, 3)
        assert_runs_identical(scalar, batch)

    # -- the Giraph semantic baseline ---------------------------------
    def _giraph(self, program, n_workers):
        from repro.baselines.giraph import GiraphConfig, GiraphEngine

        src, dst, weights, n = _plane_graph_data(False)
        engine = GiraphEngine(
            n, src, dst, weights,
            config=GiraphConfig(n_workers=n_workers, barrier_latency_s=0.0),
        )
        return engine.run(program)

    def test_min_combiner_exact_on_giraph_any_worker_count(self):
        # Element-wise MIN is exact under any grouping, so sender-side
        # partial combining cannot perturb it — at any worker count the
        # combined Giraph run matches Vertexica bitwise.
        vertexica = run_on_plane("sql", lambda: MultiSourceSSSP(sources=(0, 5, 11)))
        for n_workers in (1, 4):
            combined = self._giraph(MultiSourceSSSP(sources=(0, 5, 11)), n_workers)
            uncombined_program = MultiSourceSSSP(sources=(0, 5, 11))
            uncombined_program.combiner = None
            uncombined = self._giraph(uncombined_program, n_workers)
            assert combined.values == uncombined.values
            assert combined.values == vertexica.values

    def test_sum_combiner_exact_on_giraph_single_worker(self):
        # With one worker the sender-side buffer holds whole inboxes in
        # delivery order, so SUM combining is the identical reduceat call
        # — bit-exact.
        for factory in (
            lambda: FeaturePropagation(iterations=4, width=5),
            lambda: RandomWalkEmbeddings(iterations=3, dim=4),
        ):
            combined = self._giraph(factory(), n_workers=1)
            uncombined_program = factory()
            uncombined_program.combiner = None
            uncombined = self._giraph(uncombined_program, n_workers=1)
            assert combined.values == uncombined.values

    def test_sum_combiner_giraph_multi_worker(self):
        # Multi-worker Giraph combines *partial* per-buffer groups
        # (sender-side, as real Giraph does), so SUM results agree with
        # the uncombined run only to float tolerance — while the shuffle
        # volume drops.
        combined = self._giraph(FeaturePropagation(iterations=4, width=5), 4)
        uncombined_program = FeaturePropagation(iterations=4, width=5)
        uncombined_program.combiner = None
        uncombined = self._giraph(uncombined_program, 4)
        for vid, value in combined.values.items():
            assert value == pytest.approx(uncombined.values[vid], abs=1e-12)
        assert combined.bytes_shuffled < uncombined.bytes_shuffled
        assert (
            combined.stats.total_messages
            < combined.stats.total_messages_precombine
        )

    def test_uncombined_giraph_matches_vertexica_exactly(self):
        # Matching worker/partition counts give identical delivery order,
        # so even order-sensitive SUM runs agree bitwise across engines.
        for factory in (
            lambda: FeaturePropagation(iterations=4, width=5),
            lambda: RandomWalkEmbeddings(iterations=3, dim=4),
        ):
            vertexica = run_on_plane("sql", factory)
            uncombined_program = factory()
            uncombined_program.combiner = None
            giraph = self._giraph(uncombined_program, n_workers=4)
            assert vertexica.values == giraph.values


# ---------------------------------------------------------------------------
# segment_* kernels: the public sorted-segment reduction helpers
# ---------------------------------------------------------------------------
def _random_segments(rng, n_segments, width=None):
    counts = rng.integers(0, 5, n_segments)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    shape = (indptr[-1],) if width is None else (indptr[-1], width)
    return rng.standard_normal(shape), indptr


class TestSegmentKernels:
    def test_sum_matches_per_segment_numpy(self):
        rng = np.random.default_rng(5)
        values, indptr = _random_segments(rng, 40, width=3)
        out = segment_sum(values, indptr)
        for i in range(40):
            seg = values[indptr[i] : indptr[i + 1]]
            assert out[i] == pytest.approx(seg.sum(axis=0) if len(seg) else 0.0)

    def test_min_max_match_per_segment_numpy(self):
        rng = np.random.default_rng(6)
        values, indptr = _random_segments(rng, 30, width=4)
        lo, hi = segment_min(values, indptr), segment_max(values, indptr)
        for i in range(30):
            seg = values[indptr[i] : indptr[i + 1]]
            if len(seg):
                assert np.array_equal(lo[i], seg.min(axis=0))
                assert np.array_equal(hi[i], seg.max(axis=0))
            else:
                assert np.all(lo[i] == np.inf) and np.all(hi[i] == -np.inf)

    def test_empty_segments_yield_identities(self):
        values = np.ones((0, 2))
        indptr = np.zeros(5, dtype=np.int64)  # four empty segments
        assert np.array_equal(segment_sum(values, indptr), np.zeros((4, 2)))
        assert np.all(segment_min(values, indptr) == np.inf)
        assert np.all(segment_max(values, indptr) == -np.inf)
        assert np.all(np.isnan(segment_mean(values, indptr)))

    def test_single_member_segments_are_identity(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((6, 3))
        indptr = np.arange(7)
        for kernel in (segment_sum, segment_min, segment_max, segment_mean):
            assert np.array_equal(kernel(values, indptr), values)

    def test_nan_propagates(self):
        values = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0]])
        indptr = np.array([0, 2, 3])
        for kernel in (segment_sum, segment_min, segment_max, segment_mean):
            out = kernel(values, indptr)
            assert np.isnan(out[0, 0])  # NaN lane poisons its segment
            assert not np.isnan(out[0, 1])
            assert not np.isnan(out[1]).any()

    def test_width_1_matches_1d(self):
        rng = np.random.default_rng(8)
        values, indptr = _random_segments(rng, 25)
        for kernel in (segment_sum, segment_min, segment_max, segment_mean):
            wide = kernel(values[:, None], indptr)
            flat = kernel(values, indptr)
            assert np.array_equal(wide[:, 0], flat, equal_nan=True)

    def test_sum_uses_combiner_reduceat_arithmetic(self):
        # The whole point of these kernels: the exact reduceat call the
        # data planes' combiners run, not bincount/pairwise-sum.
        rng = np.random.default_rng(9)
        values, indptr = _random_segments(rng, 20, width=2)
        nonempty = np.flatnonzero(np.diff(indptr))
        expected = np.add.reduceat(values, indptr[:-1][nonempty], axis=0)
        assert np.array_equal(segment_sum(values, indptr)[nonempty], expected)

    def test_mean_matches_sum_over_count(self):
        rng = np.random.default_rng(10)
        values, indptr = _random_segments(rng, 20, width=2)
        counts = np.diff(indptr)
        nonempty = counts > 0
        expected = segment_sum(values, indptr)[nonempty] / counts[nonempty, None]
        assert np.array_equal(segment_mean(values, indptr)[nonempty], expected)

    def test_rejects_non_tiling_segments(self):
        values = np.zeros((4, 2))
        with pytest.raises(ProgramError, match="tile"):
            segment_sum(values, np.array([0, 2]))  # stops short of len(values)
        with pytest.raises(ProgramError, match="tile"):
            segment_sum(values, np.array([1, 4]))  # does not start at 0
        with pytest.raises(ProgramError, match="non-decreasing"):
            segment_sum(values, np.array([0, 3, 2, 4]))

    def test_vertex_batch_2d_reductions_match_kernels(self):
        rng = np.random.default_rng(11)
        counts = np.array([3, 0, 1, 4])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        messages = rng.standard_normal((int(indptr[-1]), 3))
        size = len(counts)
        batch = VertexBatch(
            ids=np.arange(size),
            values=np.zeros((size, 3)),
            values_valid=np.ones(size, dtype=bool),
            was_halted=np.zeros(size, dtype=bool),
            edge_indptr=np.zeros(size + 1, dtype=np.int64),
            edge_targets=np.empty(0, dtype=np.int64),
            edge_weights=np.empty(0, dtype=np.float64),
            msg_indptr=indptr,
            message_values=messages,
            message_valid=np.ones(len(messages), dtype=bool),
            superstep=1,
            num_vertices=size,
        )
        assert np.array_equal(batch.sum_messages(), segment_sum(messages, indptr))
        assert np.array_equal(batch.min_messages(), segment_min(messages, indptr))
        assert np.array_equal(batch.max_messages(), segment_max(messages, indptr))

    def test_vertex_batch_2d_reductions_skip_null_rows(self):
        messages = np.array([[1.0, -2.0], [5.0, 7.0], [3.0, 4.0]])
        valid = np.array([True, False, True])  # whole-vector NULL row
        indptr = np.array([0, 2, 3])
        batch = VertexBatch(
            ids=np.arange(2),
            values=np.zeros((2, 2)),
            values_valid=np.ones(2, dtype=bool),
            was_halted=np.zeros(2, dtype=bool),
            edge_indptr=np.zeros(3, dtype=np.int64),
            edge_targets=np.empty(0, dtype=np.int64),
            edge_weights=np.empty(0, dtype=np.float64),
            msg_indptr=indptr,
            message_values=messages,
            message_valid=valid,
            superstep=1,
            num_vertices=2,
        )
        assert np.array_equal(batch.sum_messages(), [[1.0, -2.0], [3.0, 4.0]])
        assert np.array_equal(batch.min_messages(), [[1.0, -2.0], [3.0, 4.0]])
        assert np.array_equal(batch.max_messages(), [[1.0, -2.0], [3.0, 4.0]])


class TestEdgeCases:
    def test_empty_graph_single_vertex(self):
        vx = Vertexica()
        graph = vx.load_graph("g", [], [], num_vertices=3)
        result = vx.run(graph, PageRank(iterations=2))
        assert all(s.compute_path == "batch" for s in result.stats.supersteps)
        # Dangling vertices keep (1-d)/N mass with no incoming rank.
        expected = (1.0 - 0.85) / 3
        assert result.values == {0: expected, 1: expected, 2: expected}

    def test_isolated_vertices_match(self):
        # All 8 padding vertices (ids 120..127) are isolated.
        scalar = run_with("scalar", lambda: ConnectedComponents(), 19, True)
        batch = run_with("batch", lambda: ConnectedComponents(), 19, True)
        for vid in range(120, 128):
            assert scalar.values[vid] == vid
            assert batch.values[vid] == vid
