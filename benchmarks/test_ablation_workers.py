"""O4 — §2.3 Parallel Workers ablation.

"Vertexica exploits multiple cores ... by running multiple instances of
the worker in parallel."  The worker-count sweep exercises the thread-pool
execution path at a fixed ``n_partitions=8``, so only ``n_workers``
varies.  Note (README.md, "Paper vs measured"): CPython's GIL caps
the speedup for pure-Python vertex programs, so the expected shape here is
*no significant regression* from parallel workers plus the code-path
coverage — the paper's cluster-level scaling is out of scope.
"""

import pytest

from conftest import run_once
from repro.core import Vertexica, VertexicaConfig
from repro.programs import PageRank

ITERATIONS = 3


def prepare(graph, n_workers: int):
    vx = Vertexica(
        config=VertexicaConfig(n_partitions=8, n_workers=n_workers)
    )
    handle = vx.load_graph(
        f"{graph.name}_w{n_workers}", graph.src, graph.dst,
        num_vertices=graph.num_vertices,
    )
    return lambda: vx.run(handle, PageRank(iterations=ITERATIONS)).values


@pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
@pytest.mark.benchmark(group="ablation-parallel-workers")
def test_worker_sweep(benchmark, twitter, n_workers):
    values = run_once(benchmark, prepare(twitter, n_workers))
    assert len(values) == twitter.num_vertices
