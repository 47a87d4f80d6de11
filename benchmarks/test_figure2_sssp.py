"""F2b — Figure 2(b): single-source shortest paths across systems/graphs.

Same grid as Figure 2(a) with SSSP from the max-out-degree vertex, the
same charged-seconds ``extra_info``, and every system on every graph.
Expected shape (paper): graph DB slowest; Vertexica ~4x faster than Giraph
on the smallest graph; Vertexica (SQL) fastest everywhere.
"""

import pytest

from conftest import run_once
from repro.bench.figure2 import prepare_system
from repro.bench.harness import GRAPH_ORDER, SYSTEM_ORDER

ALGORITHM = "sssp"


@pytest.mark.parametrize("graph_name", GRAPH_ORDER)
@pytest.mark.parametrize("system", SYSTEM_ORDER)
@pytest.mark.benchmark(group="figure2b-sssp")
def test_figure2b(benchmark, graphs, system, graph_name):
    runner = prepare_system(system, graphs.by_name(graph_name), ALGORITHM)
    fingerprint, charged = run_once(benchmark, runner)
    benchmark.extra_info["charged_s"] = charged
    assert fingerprint >= 0.0
