"""``repro.bench`` — the benchmark harness behind ``benchmarks/``.

Builds the Figure 2 grid (4 systems x 3 graphs x 2 algorithms) and the
§2.3 ablation sweeps, with scale controlled by the ``REPRO_BENCH_SCALE``
environment variable so the same code runs as a quick smoke or a full
reproduction.
"""

from repro.bench.harness import (
    PAGERANK_ITERATIONS,
    BenchGraphs,
    SystemTiming,
    bench_graphs,
    bench_scale,
    format_figure2_table,
)
from repro.bench.figure2 import figure2_rows, run_system

__all__ = [
    "PAGERANK_ITERATIONS",
    "BenchGraphs",
    "SystemTiming",
    "bench_graphs",
    "bench_scale",
    "format_figure2_table",
    "figure2_rows",
    "run_system",
]
