"""Vertex-aligned sends: one payload per vertex, gathered at the sender.

``VertexBatch.send_to_all_neighbors`` keeps its payload per vertex.  The
shard plane's delivery plan reads each delivered edge's payload at its
sender's row (``DeliveryPlan.sender_rows``); only the SQL plane's staging
table and the shard plane's sort expand the block to one row per edge.
This module pins:

* a counting gate: a full, unmasked shard-plane PageRank superstep
  builds no per-edge payload or sender array — no ``np.repeat`` and no
  ``np.concatenate`` of edge length — and delivers through the plan;
* bitwise parity over the configuration lattice — sql == shards (with
  and without the combiner), serial == threads == processes, combined ==
  uncombined where the program's reduction allows it — for PageRank
  (unmasked sends), ConnectedComponents (masked sends), a vector-codec
  program and a program with NULL payloads;
* the plan's sender rows name each edge's sender.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from test_batch_parity import assert_runs_identical
from test_route_plan import build_index
from test_update_path import NullWriter

from repro.core import Vertexica, VertexicaConfig, shards
from repro.core.codecs import FLOAT_CODEC
from repro.programs import ConnectedComponents, FeaturePropagation, PageRank


def graph_arrays(seed: int = 5, n: int = 300, m: int = 2400):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.5, 2.0, m), n + 7


def run(program, symmetrize: bool = False, **cfg):
    src, dst, weights, n = graph_arrays()
    cfg.setdefault("n_partitions", 4)
    with Vertexica(config=VertexicaConfig(**cfg)) as vx:
        graph = vx.load_graph(
            "g", src, dst, weights=weights, num_vertices=n, symmetrize=symmetrize
        )
        return vx.run(graph, program)


class TestNoPerEdgePayload:
    def test_full_pagerank_superstep_gathers_by_sender(self, monkeypatch):
        src, dst, _, n = graph_arrays()
        vx = Vertexica(config=VertexicaConfig(data_plane="shards", n_partitions=4))
        graph = vx.load_graph("g", src, dst, num_vertices=n)
        warm = vx.run(graph, PageRank(iterations=4))  # builds the index and the plan
        edges = graph.num_edges
        inside = [False]
        big: list[tuple[str, tuple]] = []
        delivered: list[bool] = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if inside[0] and np.ndim(out) and len(out) >= edges:
                    big.append((name, np.shape(out)))
                return out

            return wrapper

        run_superstep = shards.ShardedDataPlane.run_superstep
        deliver = shards._deliver

        def superstep_spy(self, *args, **kwargs):
            inside[0] = True
            try:
                return run_superstep(self, *args, **kwargs)
            finally:
                inside[0] = False

        def deliver_spy(index, emitted, combiner):
            delivered.append(all(m is None or m.vertex_aligned for m in emitted))
            return deliver(index, emitted, combiner)

        monkeypatch.setattr(np, "repeat", counted("repeat", np.repeat))
        monkeypatch.setattr(np, "concatenate", counted("concatenate", np.concatenate))
        monkeypatch.setattr(shards.ShardedDataPlane, "run_superstep", superstep_spy)
        monkeypatch.setattr(shards, "_deliver", deliver_spy)
        sorted_rows = mock.Mock(wraps=shards._sorted_rows)
        monkeypatch.setattr(shards, "_sorted_rows", sorted_rows)
        again = vx.run(graph, PageRank(iterations=4))
        assert big == []
        assert delivered and all(delivered)
        assert sorted_rows.call_count == 0  # every superstep took the plan
        assert again.values == warm.values


def float_payload(vertex_id: int, superstep: int) -> float:
    """NullWriter's payload (module level: worker processes unpickle it)."""
    return vertex_id / 3 - superstep * 0.7


#: (program factory, symmetrize, whether combined == uncombined holds)
LATTICE = [
    pytest.param(lambda: PageRank(iterations=4), False, False, id="pagerank-unmasked"),
    pytest.param(ConnectedComponents, True, True, id="cc-masked"),
    pytest.param(
        lambda: FeaturePropagation(iterations=3, width=3), False, True, id="vector-masked"
    ),
    pytest.param(
        lambda: NullWriter(FLOAT_CODEC, float_payload),
        False, False, id="null-payloads",
    ),
]


class TestParityLattice:
    @pytest.mark.parametrize("factory,symmetrize,exact", LATTICE)
    def test_bitwise(self, factory, symmetrize, exact):
        sql = run(factory(), symmetrize)
        serial = run(factory(), symmetrize, data_plane="shards")
        assert_runs_identical(sql, serial)
        threads = run(factory(), symmetrize, data_plane="shards", n_workers=2)
        assert_runs_identical(serial, threads)
        processes = run(
            factory(), symmetrize, data_plane="shards", n_workers=2, executor="processes"
        )
        assert_runs_identical(serial, processes)
        # Without the combiner the planes still agree; where the program
        # reduces its inbox exactly or by ``reduceat`` (not PageRank's
        # scalar ``bincount`` sum), so does the combined run.
        uncombined = run(factory(), symmetrize, data_plane="shards", use_combiner=False)
        assert_runs_identical(run(factory(), symmetrize, use_combiner=False), uncombined)
        if exact:
            assert uncombined.values == serial.values


class TestSenderRows:
    def test_sender_rows_name_each_edges_sender(self):
        src, dst, _, n = graph_arrays(seed=8, n=40, m=200)
        index = build_index(range(n), src, dst, 3)
        plan = index.delivery_plan()
        # The sender of position p, read off the CSR lists.
        senders = np.concatenate(
            [np.repeat(ids, np.diff(ptr)) for ids, ptr in zip(index.vertex_ids, index.edge_indptr)]
        )
        for order, rows in zip(plan.order, plan.sender_rows):
            assert rows.dtype == np.int32
            assert np.array_equal(plan.ids[rows], senders[order])
        assert np.array_equal(plan.ids, np.concatenate(index.vertex_ids))
