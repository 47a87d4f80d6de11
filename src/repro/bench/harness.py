"""Shared benchmark plumbing: graphs, scale, result formatting.

Scale semantics: ``REPRO_BENCH_SCALE`` (float, default 0.25) multiplies
the preset graph sizes from :mod:`repro.datasets.generators`; scale 1.0
is the "full" reproduction.  The baselines' simulated latencies are
counted, not slept, so the grid's wall time is the systems' real work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from repro.datasets.generators import (
    Graph,
    gplus_like,
    livejournal_like,
    twitter_like,
)

__all__ = [
    "SystemTiming",
    "BenchGraphs",
    "bench_scale",
    "bench_graphs",
    "format_figure2_table",
    "GRAPH_ORDER",
    "PAGERANK_ITERATIONS",
    "SYSTEM_ORDER",
]

#: Fixed PageRank horizon used across every system in the grid.
PAGERANK_ITERATIONS = 5

GRAPH_ORDER = ("twitter", "gplus", "livejournal")
SYSTEM_ORDER = ("graphdb", "giraph", "vertexica", "vertexica_sql")

_SYSTEM_LABELS = {
    "graphdb": "Graph Database",
    "giraph": "Apache Giraph (sim)",
    "vertexica": "Vertexica",
    "vertexica_sql": "Vertexica (SQL)",
}


@dataclass(frozen=True)
class SystemTiming:
    """One cell of the Figure 2 grid.

    ``measured`` is the wall time of the timed call; ``charged`` is the
    simulated latency the system's counters accrued during it (store
    accesses, superstep barriers), zero for Vertexica.
    """

    system: str
    graph: str
    measured: float
    charged: float = 0.0

    @property
    def seconds(self) -> float:
        """The cell's time: measured plus charged."""
        return self.measured + self.charged


def bench_scale() -> float:
    """The configured scale factor (``REPRO_BENCH_SCALE``, default 0.25);
    a value that is not a number raises ``ValueError``."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "0.25")
    try:
        scale = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_BENCH_SCALE={raw!r} is not a number") from None
    return max(scale, 0.01)


@dataclass(frozen=True)
class BenchGraphs:
    """The three Figure 2 graphs at the configured scale."""

    twitter: Graph
    gplus: Graph
    livejournal: Graph

    def ordered(self) -> list[Graph]:
        """Graphs in the paper's presentation order (small -> large)."""
        return [self.twitter, self.gplus, self.livejournal]

    def by_name(self, name: str) -> Graph:
        """Lookup by preset name."""
        return {g.name: g for g in self.ordered()}[name]


@lru_cache(maxsize=4)
def bench_graphs(scale: float | None = None) -> BenchGraphs:
    """Generate (and cache) the three benchmark graphs."""
    s = bench_scale() if scale is None else scale
    return BenchGraphs(
        twitter=twitter_like(scale=s),
        gplus=gplus_like(scale=s),
        livejournal=livejournal_like(scale=s),
    )


def format_figure2_table(title: str, rows: list[SystemTiming]) -> str:
    """Render the grid the way the paper's Figure 2 tabulates it:
    one row per system, one column per graph, each cell measured plus
    charged seconds; below it, the charged seconds of every system that
    accrued any."""
    cells: dict[tuple[str, str], SystemTiming] = {
        (row.system, row.graph): row for row in rows
    }
    graphs = [g for g in GRAPH_ORDER if any(r.graph == g for r in rows)]
    systems = [s for s in SYSTEM_ORDER if any(r.system == s for r in rows)]
    header = f"{'System':<22}" + "".join(f"{g:>16}" for g in graphs)

    def line(system: str, field: str) -> str:
        text = f"{_SYSTEM_LABELS.get(system, system):<22}"
        for graph in graphs:
            cell = cells.get((system, graph))
            text += f"{f'{getattr(cell, field):.3f}s' if cell else '-':>16}"
        return text

    lines = [title, "=" * len(header), header, "-" * len(header)]
    lines += [line(system, "seconds") for system in systems]
    charging = [s for s in systems if any(r.charged for r in rows if r.system == s)]
    if charging:
        lines += ["-" * len(header), "of which charged (simulated latency):"]
        lines += [line(system, "charged") for system in charging]
    lines.append("=" * len(header))
    return "\n".join(lines)
