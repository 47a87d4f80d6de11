"""F2a — Figure 2(a): PageRank runtime across systems and graphs.

Reproduces the paper's grid: {Graph Database, Apache Giraph, Vertexica,
Vertexica (SQL)} x {Twitter, GPlus, LiveJournal}-shaped graphs.  Every
system runs every graph; the paper reported the graph database DNF on
the two larger ones.  The timed value is the measured wall time; the
baselines' simulated latency, counted rather than slept, is recorded as
``charged_s`` in ``extra_info``, and a cell's time is their sum.

Expected shape (paper): graph DB slowest by an order of magnitude;
Vertexica ~4x faster than Giraph on the smallest graph and comparable on
the largest; Vertexica (SQL) fastest everywhere.
"""

import pytest

from conftest import run_once
from repro.bench.figure2 import prepare_system
from repro.bench.harness import GRAPH_ORDER, SYSTEM_ORDER

ALGORITHM = "pagerank"


@pytest.mark.parametrize("graph_name", GRAPH_ORDER)
@pytest.mark.parametrize("system", SYSTEM_ORDER)
@pytest.mark.benchmark(group="figure2a-pagerank")
def test_figure2a(benchmark, graphs, system, graph_name):
    runner = prepare_system(system, graphs.by_name(graph_name), ALGORITHM)
    fingerprint, charged = run_once(benchmark, runner)
    benchmark.extra_info["charged_s"] = charged
    assert fingerprint > 0.0
