"""Figure 2 runners: one prepared (setup, timed-run) pair per system.

Each ``prepare_*`` function performs all loading/setup work and returns a
zero-argument callable executing only what the paper times: the query.
The callable returns a result fingerprint, so the harness can assert all
systems agree before trusting any timing, and the simulated seconds the
system's counters charged during the call.  Every system runs every
graph; README.md, "Paper vs measured", marks the cells the paper
reported as DNF.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.baselines.giraph import GiraphEngine
from repro.baselines.graphdb import (
    ACCESS_LATENCY_S,
    PropertyGraphStore,
    graphdb_pagerank,
    graphdb_shortest_paths,
)
from repro.bench.harness import PAGERANK_ITERATIONS, SystemTiming
from repro.core import Vertexica, VertexicaConfig
from repro.datasets.generators import Graph
from repro.programs import PageRank, ShortestPaths
from repro.sql_graph import pagerank_sql, shortest_paths_sql

__all__ = [
    "prepare_system",
    "run_system",
    "figure2_rows",
    "sssp_source",
]

#: The timed call: returns ``(fingerprint, charged seconds)``.
Runner = Callable[[], tuple[float, float]]


def sssp_source(graph: Graph) -> int:
    """A deterministic, well-connected SSSP source: the max-out-degree
    vertex (smallest id on ties)."""
    degrees = graph.degree_sequence()
    return int(np.argmax(degrees))


def _fingerprint(values: dict[int, Any]) -> float:
    """Order-independent sum of finite values — cheap cross-system check."""
    total = 0.0
    for value in values.values():
        if isinstance(value, (int, float)) and np.isfinite(value):
            total += float(value)
    return total


def _program_for(algorithm: str, graph: Graph) -> Any:
    if algorithm == "pagerank":
        return PageRank(iterations=PAGERANK_ITERATIONS)
    return ShortestPaths(source=sssp_source(graph))


# ---------------------------------------------------------------------------
# Per-system preparation.  Setup is NOT timed; the returned runner is.
# ---------------------------------------------------------------------------
def _prepare_vertexica(graph: Graph, algorithm: str) -> Runner:
    vx = Vertexica(config=VertexicaConfig(n_partitions=8))
    handle = vx.load_graph(
        graph.name, graph.src, graph.dst, num_vertices=graph.num_vertices
    )

    def run() -> tuple[float, float]:
        result = vx.run(handle, _program_for(algorithm, graph))
        return _fingerprint(result.values), 0.0

    return run


def _prepare_vertexica_sql(graph: Graph, algorithm: str) -> Runner:
    vx = Vertexica()
    handle = vx.load_graph(
        graph.name, graph.src, graph.dst, num_vertices=graph.num_vertices
    )

    def run() -> tuple[float, float]:
        if algorithm == "pagerank":
            values = pagerank_sql(vx.db, handle, iterations=PAGERANK_ITERATIONS)
        else:
            values = shortest_paths_sql(vx.db, handle, sssp_source(graph))
        return _fingerprint(values), 0.0

    return run


def _prepare_giraph(graph: Graph, algorithm: str) -> Runner:
    engine = GiraphEngine(graph.num_vertices, graph.src, graph.dst)

    def run() -> tuple[float, float]:
        result = engine.run(_program_for(algorithm, graph), graph_name=graph.name)
        return _fingerprint(result.values), result.charged_s

    return run


def _prepare_graphdb(graph: Graph, algorithm: str) -> Runner:
    store = PropertyGraphStore()
    store.load_edge_list(graph.src, graph.dst)
    with store.transaction() as tx:
        for vertex in range(graph.num_vertices):
            if not store.has_node(vertex):
                tx.create_node(vertex)

    def run() -> tuple[float, float]:
        # Only the timed call's accesses are charged, not the load's.
        accesses = store.accesses
        if algorithm == "pagerank":
            values: dict[int, float] = graphdb_pagerank(
                store, iterations=PAGERANK_ITERATIONS
            )
        else:
            values = graphdb_shortest_paths(store, sssp_source(graph))
        return _fingerprint(values), (store.accesses - accesses) * ACCESS_LATENCY_S

    return run


_PREPARERS: dict[str, Callable[[Graph, str], Runner]] = {
    "vertexica": _prepare_vertexica,
    "vertexica_sql": _prepare_vertexica_sql,
    "giraph": _prepare_giraph,
    "graphdb": _prepare_graphdb,
}


def prepare_system(system: str, graph: Graph, algorithm: str) -> Runner:
    """Set up one grid cell (untimed); the returned callable is the timed
    region and yields the result fingerprint and the charged seconds."""
    return _PREPARERS[system](graph, algorithm)


def run_system(system: str, graph: Graph, algorithm: str) -> tuple[SystemTiming, float]:
    """Run one cell; returns its timing and the result fingerprint."""
    runner = prepare_system(system, graph, algorithm)
    started = time.perf_counter()
    fingerprint, charged = runner()
    measured = time.perf_counter() - started
    return SystemTiming(system, graph.name, measured, charged), fingerprint


def figure2_rows(
    algorithm: str,
    graphs: list[Graph],
    systems: tuple[str, ...] = ("graphdb", "giraph", "vertexica", "vertexica_sql"),
    check_agreement: bool = True,
) -> list[SystemTiming]:
    """The full grid for one algorithm.

    When ``check_agreement`` is set, every system must agree on each
    graph's fingerprint to 1e-6 relative tolerance — a guard against
    benchmarking two different computations.
    """
    rows: list[SystemTiming] = []
    fingerprints: dict[str, list[float]] = {}
    for graph in graphs:
        for system in systems:
            timing, fingerprint = run_system(system, graph, algorithm)
            rows.append(timing)
            fingerprints.setdefault(graph.name, []).append(fingerprint)
    if check_agreement:
        for graph_name, prints in fingerprints.items():
            base = prints[0]
            for other in prints[1:]:
                if not np.isclose(base, other, rtol=1e-6):
                    raise AssertionError(
                        f"systems disagree on {algorithm}@{graph_name}: {prints}"
                    )
    return rows
