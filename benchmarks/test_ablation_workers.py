"""O4 — §2.3 Parallel Workers ablation.

"Vertexica exploits multiple cores ... by running multiple instances of
the worker in parallel."  The worker-count sweep runs on the shard plane's
worker processes (``executor="processes"``) at a fixed
``n_partitions=8``, so only ``n_workers`` varies; the SQL plane runs its
partitions serially, so it has no workers axis.  Every worker count must
leave the values bitwise equal to ``n_workers=1``.  Each session spawns
its pool in an untimed warm-up run: process start-up is not what the
paper's ablation measures.  Note (README.md, "Paper vs measured"): a
2-vCPU host cannot show the paper's multi-core scaling, and worker
processes still return their messages to the parent as pickles, so the
expected shape here is parity plus the code-path coverage.
"""

import pytest

from conftest import run_once
from repro.core import Vertexica, VertexicaConfig
from repro.programs import PageRank

ITERATIONS = 3


def session(n_workers: int) -> Vertexica:
    return Vertexica(
        config=VertexicaConfig(
            data_plane="shards", executor="processes", n_partitions=8, n_workers=n_workers
        )
    )


def pagerank(vx: Vertexica, graph, n_workers: int):
    handle = vx.load_graph(
        f"{graph.name}_w{n_workers}", graph.src, graph.dst,
        num_vertices=graph.num_vertices,
    )
    return lambda: vx.run(handle, PageRank(iterations=ITERATIONS)).values


@pytest.fixture(scope="module")
def serial_values(twitter):
    with session(1) as vx:
        return pagerank(vx, twitter, 1)()


@pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
@pytest.mark.benchmark(group="ablation-parallel-workers")
def test_worker_sweep(benchmark, twitter, serial_values, n_workers):
    with session(n_workers) as vx:
        run = pagerank(vx, twitter, n_workers)
        run()  # spawns the session's pool
        values = run_once(benchmark, run)
    assert len(values) == twitter.num_vertices
    assert values == serial_values
