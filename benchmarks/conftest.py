"""Shared benchmark fixtures.

Scale is controlled by ``REPRO_BENCH_SCALE`` (default 0.25); graphs are
generated once per session.  Every benchmark uses
``benchmark.pedantic(rounds=1)``: tier-1 runs these cells once each as a
smoke of the paper's grid, not as a timing study.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import BenchGraphs, bench_graphs
from repro.datasets.generators import Graph


@pytest.fixture(scope="session")
def graphs() -> BenchGraphs:
    """The three Figure 2 graphs at the configured scale."""
    return bench_graphs()


@pytest.fixture(scope="session")
def twitter(graphs: BenchGraphs) -> Graph:
    """The smallest Figure 2 graph."""
    return graphs.twitter


def run_once(benchmark, fn, *args, **kwargs):
    """One measured round, no warmup."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
