#!/usr/bin/env python
"""Figure-2 perf trajectory runner: PageRank / SSSP / CC on the standard
generated graphs, batch vs. scalar data plane.

Writes a ``BENCH_*.json`` with wall time per superstep, rows/sec, and
vertices/sec for every (graph, algorithm, compute-path) cell, so future
PRs have a trajectory point to compare against::

    PYTHONPATH=src python benchmarks/run_bench.py --out BENCH_PR1.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick   # CI smoke

``--quick`` runs a tiny scale, asserts batch/scalar agreement and
sql/shard data-plane agreement, checks the batch path is not slower than
scalar and the shard plane not slower than the SQL plane (loud
perf-regression tripwires), and does not write a file unless ``--out``
is given explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any

import numpy as np

from repro.bench.figure2 import sssp_source
from repro.bench.harness import bench_graphs, pagerank_iterations
from repro.core import Vertexica, VertexicaConfig
from repro.datasets.generators import Graph
from repro.datasets.relational import load_graph_as_schema, load_social_schema
from repro.graphview import (
    CoEdgeSpec,
    EdgeSpec,
    ExtractionOptions,
    GraphView,
    GraphViewHandle,
    NodeSpec,
)
from repro.programs import (
    CollaborativeFiltering,
    ConnectedComponents,
    FeaturePropagation,
    MultiSourceSSSP,
    PageRank,
    ShortestPaths,
)

MODES = ("batch", "scalar")


ALGORITHMS = ("pagerank", "sssp", "cc")


def _program_for(algorithm: str, graph: Graph):
    if algorithm == "pagerank":
        return PageRank(iterations=pagerank_iterations())
    if algorithm == "sssp":
        return ShortestPaths(source=sssp_source(graph))
    if algorithm == "cc":
        return ConnectedComponents()
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def _fingerprint(values: dict[int, Any]) -> float:
    total = 0.0
    for value in values.values():
        if isinstance(value, (int, float)) and value == value and value != float("inf"):
            total += float(value)
    return total


def run_cell(
    graph: Graph, algorithm: str, mode: str, n_partitions: int, repeat: int = 1
) -> dict[str, Any]:
    """One (graph, algorithm, compute-path) measurement.

    With ``repeat > 1`` the run with the smallest superstep wall time
    wins — best-of-N suppresses scheduler jitter, the usual practice for
    sub-second benchmark cells.
    """
    vx = Vertexica(
        config=VertexicaConfig(n_partitions=n_partitions, compute_strategy=mode)
    )
    handle = vx.load_graph(
        graph.name,
        graph.src,
        graph.dst,
        num_vertices=graph.num_vertices,
        symmetrize=algorithm == "cc",
    )
    best: tuple[float, Any] | None = None
    for _ in range(max(repeat, 1)):
        started = time.perf_counter()
        result = vx.run(handle, _program_for(algorithm, graph))
        total = time.perf_counter() - started
        step_secs = sum(s.seconds for s in result.stats.supersteps)
        if best is None or step_secs < best[0]:
            best = (step_secs, (total, result))
    total, result = best[1]
    stats = result.stats
    superstep_seconds = sum(s.seconds for s in stats.supersteps)
    return {
        "graph": graph.name,
        "algorithm": algorithm,
        "mode": mode,
        "num_vertices": handle.num_vertices,
        "num_edges": handle.num_edges,
        "n_supersteps": stats.n_supersteps,
        "total_seconds": round(total, 6),
        "superstep_seconds": round(superstep_seconds, 6),
        "vertices_per_sec": round(stats.vertices_per_sec, 1),
        "rows_per_sec": round(stats.rows_per_sec, 1),
        "fingerprint": _fingerprint(result.values),
        "supersteps": [
            {
                "superstep": s.superstep,
                "seconds": round(s.seconds, 6),
                "compute_path": s.compute_path,
                "active_vertices": s.active_vertices,
                "rows_in": s.rows_in,
                "rows_out": s.rows_out,
                "messages_out": s.messages_out,
                "vertices_per_sec": round(s.vertices_per_sec, 1),
                "rows_per_sec": round(s.rows_per_sec, 1),
            }
            for s in stats.supersteps
        ],
    }


def run_workers_scaling_cell(
    graph: Graph,
    algorithm: str,
    n_partitions: int,
    repeat: int = 1,
    workers: tuple[int, ...] = (1, 2, 4),
) -> dict[str, Any]:
    """Parallel-worker scaling across execution strategies (the PR-4
    cell, extended with the PR-8 process plane).

    Sweeps ``n_workers`` over the SQL-staged plane (whose global
    partition lexsort serializes each superstep), the shard-resident
    plane on the thread executor (shard tasks are barrier-free and numpy
    kernels release the GIL), and the shard plane on the **process**
    executor (shared-memory shard state, spawned workers — the strategy
    that escapes the GIL entirely), all under ``superstep_sync="halt"``.
    Asserts every cell lands on the same fingerprint.  Note the process
    rows only show a real win on multi-core hardware: on a single-core
    host the workers time-slice one CPU and the pipe/dispatch overhead is
    pure cost (the report records ``cpu_count`` for exactly this reason).
    """
    # One partition count for every cell — varying it with the worker
    # count would measure partitioning, not worker scaling.
    n_partitions = max(n_partitions, 2 * max(workers))
    cells: dict[str, dict[str, float]] = {}
    fingerprints: list[float] = []
    sweeps = (
        ("sql", "sql", "threads"),
        ("shards", "shards", "threads"),
        ("shards_processes", "shards", "processes"),
    )
    for label, plane, executor in sweeps:
        per_worker: dict[str, float] = {}
        for n_workers in workers:
            vx = Vertexica(
                config=VertexicaConfig(
                    n_partitions=n_partitions,
                    n_workers=n_workers,
                    executor=executor,
                    data_plane=plane,
                    superstep_sync="halt",
                )
            )
            handle = vx.load_graph(
                f"{graph.name}_{label}_w{n_workers}",
                graph.src,
                graph.dst,
                num_vertices=graph.num_vertices,
                symmetrize=algorithm == "cc",
            )
            best = float("inf")
            for _ in range(max(repeat, 1)):
                result = vx.run(handle, _program_for(algorithm, graph))
                step_secs = sum(s.seconds for s in result.stats.supersteps)
                if step_secs < best:
                    best = step_secs
                    fingerprint = _fingerprint(result.values)
            per_worker[str(n_workers)] = round(best, 6)
            fingerprints.append(fingerprint)
        cells[label] = per_worker
    base = str(workers[0])
    peak = str(workers[-1])

    def _scaling(label: str) -> float:
        return (
            round(cells[label][base] / cells[label][peak], 2)
            if cells[label][peak]
            else float("inf")
        )

    return {
        "graph": graph.name,
        "algorithm": algorithm,
        "superstep_seconds": cells,
        "speedup_shards_over_sql_1w": round(
            cells["sql"][base] / cells["shards"][base], 2
        )
        if cells["shards"][base]
        else float("inf"),
        "sql_scaling_1w_over_4w": _scaling("sql"),
        "shards_scaling_1w_over_4w": _scaling("shards"),
        "processes_scaling_1w_over_4w": _scaling("shards_processes"),
        "cpu_count": os.cpu_count() or 1,
        "fingerprints_match": all(
            abs(fp - fingerprints[0]) <= 1e-9 * max(1.0, abs(fingerprints[0]))
            for fp in fingerprints
        ),
    }


def run_cf_codec_cell(
    graph: Graph,
    n_partitions: int,
    repeat: int = 1,
    rank: int = 8,
    iterations: int = 3,
) -> dict[str, Any]:
    """Collaborative-filtering superstep timing: JSON-in-VARCHAR codec vs
    the dense vector codec (rank typed FLOAT columns), on both data
    planes (the PR-5 cell).

    The graph's edges get rating-like weights and are symmetrized (CF
    needs both directions).  All four cells must land on bit-identical
    factor matrices — the fingerprint sums every vector component.  The
    learning rate is kept small: power-law hubs receive hundreds of
    sequential SGD steps per superstep and the default rate diverges to
    NaN on livejournal, which would poison the fingerprint comparison.
    """
    learning_rate = 0.002
    weights = 1.0 + (np.arange(graph.num_edges, dtype=np.float64) % 9) / 2.0
    cells: dict[str, float] = {}
    fingerprints: list[float] = []
    for codec in ("json", "vector"):
        for plane in ("sql", "shards"):
            vx = Vertexica(
                config=VertexicaConfig(
                    n_partitions=n_partitions,
                    data_plane=plane,
                    superstep_sync="halt",
                )
            )
            handle = vx.load_graph(
                f"{graph.name}_cf",
                graph.src,
                graph.dst,
                weights=weights,
                num_vertices=graph.num_vertices,
                symmetrize=True,
            )
            best = float("inf")
            fingerprint = 0.0
            for _ in range(max(repeat, 1)):
                result = vx.run(
                    handle,
                    CollaborativeFiltering(
                        iterations=iterations,
                        rank=rank,
                        learning_rate=learning_rate,
                        codec=codec,
                    ),
                )
                step_secs = sum(s.seconds for s in result.stats.supersteps)
                if step_secs < best:
                    best = step_secs
                    fingerprint = float(
                        sum(
                            sum(vector)
                            for vector in result.values.values()
                            if vector is not None
                        )
                    )
            cells[f"{codec}_{plane}"] = round(best, 6)
            fingerprints.append(fingerprint)
    return {
        "graph": graph.name,
        "rank": rank,
        "iterations": iterations,
        "superstep_seconds": cells,
        "speedup_vector_over_json_sql": round(
            cells["json_sql"] / cells["vector_sql"], 2
        )
        if cells["vector_sql"]
        else float("inf"),
        "speedup_vector_over_json_shards": round(
            cells["json_shards"] / cells["vector_shards"], 2
        )
        if cells["vector_shards"]
        else float("inf"),
        "fingerprints_match": all(
            abs(fp - fingerprints[0]) <= 1e-9 * max(1.0, abs(fingerprints[0]))
            for fp in fingerprints
        ),
    }


def run_vector_workloads_cell(
    graph: Graph, n_partitions: int, repeat: int = 1
) -> dict[str, Any]:
    """Embedding workloads: element-wise vector combiners on / off, on
    both data planes (the PR-10 cell).

    Multi-source SSSP (element-wise MIN over width-k distance vectors)
    and GNN feature propagation (element-wise SUM over width-k feature
    vectors) run with the combiner honored and suppressed.  All four
    cells per workload must land on bit-identical vertex vectors — the
    combiners reduce with the same float64 ``reduceat`` arithmetic in
    delivery order at every site — and the combined cells must route
    strictly fewer message rows (``messages_precombine`` counts rows
    before combining, so combined precombine == uncombined delivered).
    The edges get small synthetic weights and are symmetrized so every
    source reaches the whole component and fan-in is high enough for
    combining to collapse rows.
    """
    weights = 1.0 + (np.arange(graph.num_edges, dtype=np.float64) % 7) / 3.0
    workloads: dict[str, Any] = {
        "multi_sssp": lambda: MultiSourceSSSP(sources=(0, 1, 2, 3)),
        "feature_prop": lambda: FeaturePropagation(iterations=3, width=8),
    }
    report: dict[str, Any] = {"graph": graph.name, "workloads": {}}
    for name, make_program in workloads.items():
        cells: dict[str, dict[str, Any]] = {}
        fingerprints: list[float] = []
        for plane in ("sql", "shards"):
            for combine in (True, False):
                vx = Vertexica(
                    config=VertexicaConfig(
                        n_partitions=n_partitions,
                        data_plane=plane,
                        use_combiner=combine,
                        superstep_sync="halt",
                    )
                )
                handle = vx.load_graph(
                    f"{graph.name}_vec",
                    graph.src,
                    graph.dst,
                    weights=weights,
                    num_vertices=graph.num_vertices,
                    symmetrize=True,
                )
                best = float("inf")
                fingerprint = 0.0
                messages = 0
                precombine = 0
                for _ in range(max(repeat, 1)):
                    result = vx.run(handle, make_program())
                    step_secs = sum(s.seconds for s in result.stats.supersteps)
                    if step_secs < best:
                        best = step_secs
                        messages = result.stats.total_messages
                        precombine = result.stats.total_messages_precombine
                        fingerprint = float(
                            sum(
                                sum(
                                    x
                                    for x in vector
                                    if x == x and x != float("inf")
                                )
                                for vector in result.values.values()
                                if vector is not None
                            )
                        )
                label = f"{plane}_{'combined' if combine else 'uncombined'}"
                cells[label] = {
                    "superstep_seconds": round(best, 6),
                    "messages": messages,
                    "messages_precombine": precombine,
                }
                fingerprints.append(fingerprint)

        def _speedup(plane: str) -> float:
            combined = cells[f"{plane}_combined"]["superstep_seconds"]
            uncombined = cells[f"{plane}_uncombined"]["superstep_seconds"]
            return round(uncombined / combined, 2) if combined else float("inf")

        report["workloads"][name] = {
            "cells": cells,
            # Vector-combiner parity is exact by construction; the usual
            # relative tolerance only absorbs float printing noise.
            "fingerprints_match": all(
                abs(fp - fingerprints[0]) <= 1e-9 * max(1.0, abs(fingerprints[0]))
                for fp in fingerprints
            ),
            "combiner_reduces_messages": all(
                cells[f"{plane}_combined"]["messages"]
                < cells[f"{plane}_uncombined"]["messages"]
                and cells[f"{plane}_combined"]["messages_precombine"]
                == cells[f"{plane}_uncombined"]["messages"]
                for plane in ("sql", "shards")
            ),
            "speedup_combined_over_uncombined_sql": _speedup("sql"),
            "speedup_combined_over_uncombined_shards": _speedup("shards"),
        }
    return report


def run_checkpoint_overhead_cell(
    graph: Graph, n_partitions: int, repeat: int = 1
) -> dict[str, Any]:
    """Fault-tolerance cost: PageRank with checkpointing off / every 4
    supersteps / every superstep, on both data planes (the PR-6 cell).

    ``overhead`` is checkpoint seconds over superstep compute seconds for
    the same run (checkpoint time is accounted separately and excluded
    from per-superstep compute time, so the ratio is exact, not a
    noisy difference of wall clocks).  All six cells must land on
    bit-identical PageRank values — checkpointing must never perturb the
    trajectory.
    """
    import tempfile

    cells: dict[str, dict[str, float]] = {}
    fingerprints: list[float] = []
    for plane in ("sql", "shards"):
        per_policy: dict[str, dict[str, float]] = {}
        for label, every in (("off", None), ("every4", 4), ("every1", 1)):
            vx = Vertexica(
                config=VertexicaConfig(n_partitions=n_partitions, data_plane=plane)
            )
            handle = vx.load_graph(
                f"{graph.name}_ckpt",
                graph.src,
                graph.dst,
                num_vertices=graph.num_vertices,
            )
            best: tuple[float, float, float] | None = None
            with tempfile.TemporaryDirectory() as ckpt_dir:
                for _ in range(max(repeat, 1)):
                    result = vx.run(
                        handle,
                        PageRank(iterations=pagerank_iterations()),
                        checkpoint_every=every,
                        checkpoint_dir=ckpt_dir if every else None,
                    )
                    step_secs = sum(s.seconds for s in result.stats.supersteps)
                    ckpt_secs = result.stats.checkpoint_seconds
                    if best is None or step_secs < best[0]:
                        best = (step_secs, ckpt_secs, _fingerprint(result.values))
            step_secs, ckpt_secs, fingerprint = best
            fingerprints.append(fingerprint)
            per_policy[label] = {
                "superstep_seconds": round(step_secs, 6),
                "checkpoint_seconds": round(ckpt_secs, 6),
                "overhead": round(ckpt_secs / step_secs, 4) if step_secs else 0.0,
            }
        cells[plane] = per_policy
    return {
        "graph": graph.name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "cells": cells,
        "overhead_every4_sql": cells["sql"]["every4"]["overhead"],
        "overhead_every4_shards": cells["shards"]["every4"]["overhead"],
        "fingerprints_match": all(
            abs(fp - fingerprints[0]) <= 1e-9 * max(1.0, abs(fingerprints[0]))
            for fp in fingerprints
        ),
    }


def run_extraction_cell(graph: Graph, repeat: int = 1) -> dict[str, Any]:
    """Graph-view extraction timing at benchmark scale.

    The graph's edge list is re-normalized into ``{name}_users`` /
    ``{name}_follows`` base tables, declared as a graph view, and the
    view's extraction (``refresh()``) is timed against the direct
    ``load_graph`` edge-list path on identical data.
    """
    vx = Vertexica()
    load_graph_as_schema(vx.db, graph, prefix=graph.name)
    view = GraphView(
        vertices=NodeSpec(f"{graph.name}_users", key="id"),
        edges=EdgeSpec(
            f"{graph.name}_follows",
            src="follower_id",
            dst="followee_id",
            weight="closeness",
        ),
    )
    handle = vx.create_graph_view(f"{graph.name}_view", view, materialized=True)
    best_extract = handle.last_extraction.seconds
    for _ in range(max(repeat, 1) - 1):
        # Force the full path: with no DML pending, a default refresh()
        # would be a no-op incremental patch and time nothing.
        handle.refresh(incremental=False)
        best_extract = min(best_extract, handle.last_extraction.seconds)

    best_direct = float("inf")
    for _ in range(max(repeat, 1)):
        started = time.perf_counter()
        direct = vx.load_graph(
            f"{graph.name}_direct",
            graph.src,
            graph.dst,
            num_vertices=graph.num_vertices,
        )
        best_direct = min(best_direct, time.perf_counter() - started)

    extracted = handle.resolve()
    return {
        "graph": graph.name,
        "num_vertices": extracted.num_vertices,
        "num_edges": extracted.num_edges,
        "extraction_seconds": round(best_extract, 6),
        "direct_load_seconds": round(best_direct, 6),
        "extraction_overhead_x": round(best_extract / best_direct, 2)
        if best_direct
        else float("inf"),
        "matches_direct_load": extracted.num_vertices == direct.num_vertices
        and extracted.num_edges == direct.num_edges,
    }


def run_refresh_cell(graph: Graph, repeat: int = 1) -> dict[str, Any]:
    """Incremental vs full refresh after small DML (the PR-3 cell).

    The graph is re-normalized into base tables and declared as a
    materialized view.  Each trial applies a small batch of inserts
    (~0.25% of the edges) and times ``refresh()`` on the delta path; the
    full path is then timed on the same view via
    ``refresh(incremental=False)``.  Parity is asserted against a shadow
    full extraction of the same declaration.
    """
    vx = Vertexica()
    load_graph_as_schema(vx.db, graph, prefix=graph.name)
    view = GraphView(
        vertices=NodeSpec(f"{graph.name}_users", key="id"),
        edges=EdgeSpec(
            f"{graph.name}_follows",
            src="follower_id",
            dst="followee_id",
            weight="closeness",
        ),
    )
    handle = vx.create_graph_view(f"{graph.name}_rview", view, materialized=True)
    follows = f"{graph.name}_follows"
    n_vertices = graph.num_vertices
    batch = max(1, graph.num_edges // 400)

    best_incremental = float("inf")
    delta_rows = 0
    for trial in range(max(repeat, 1)):
        rows = ", ".join(
            f"({n_vertices + trial}, {(i * 37) % n_vertices}, 1.0)"
            for i in range(batch)
        )
        vx.sql(f"INSERT INTO {follows} VALUES {rows}")
        started = time.perf_counter()
        handle.refresh()
        seconds = time.perf_counter() - started
        assert handle.last_extraction.mode == "incremental", (
            f"refresh fell back to full on {graph.name}"
        )
        delta_rows = handle.last_extraction.delta_rows
        best_incremental = min(best_incremental, seconds)

    # Parity: the *patched* tables must equal a from-scratch extraction.
    # Checked before the full-refresh timing loop below, which would
    # otherwise rebuild the live tables and mask any incremental bug.
    shadow = GraphViewHandle(vx.db, vx.storage, f"{graph.name}_rshadow", view)
    shadow.refresh(incremental=False)
    live_edges = vx.db.query_batch(
        f"SELECT src, dst, weight FROM {graph.name}_rview_edge"
    )
    shadow_edges = vx.db.query_batch(
        f"SELECT src, dst, weight FROM {graph.name}_rshadow_edge"
    )
    live_nodes = vx.db.query_batch(f"SELECT id FROM {graph.name}_rview_node")
    shadow_nodes = vx.db.query_batch(f"SELECT id FROM {graph.name}_rshadow_node")
    parity = all(
        np.array_equal(live_edges.column(c).values, shadow_edges.column(c).values)
        for c in ("src", "dst", "weight")
    ) and np.array_equal(live_nodes.column("id").values, shadow_nodes.column("id").values)
    shadow.drop()

    best_full = float("inf")
    for _ in range(max(repeat, 1)):
        started = time.perf_counter()
        handle.refresh(incremental=False)
        best_full = min(best_full, time.perf_counter() - started)
    return {
        "graph": graph.name,
        "num_edges": handle.resolve().num_edges,
        "delta_rows_per_refresh": delta_rows,
        "incremental_seconds": round(best_incremental, 6),
        "full_seconds": round(best_full, 6),
        "speedup_full_over_incremental": round(best_full / best_incremental, 2)
        if best_incremental
        else float("inf"),
        "parity_ok": parity,
    }


def run_extraction_scaling_cell(repeat: int = 1, quick: bool = False) -> dict[str, Any]:
    """Production-scale extraction ablation (the PR-9 cell).

    A skewed social schema (Zipfian like targets, so a few celebrity
    posts carry dense co-occurrence groups) is extracted under five
    configurations:

    * ``selfjoin_pushdown`` / ``selfjoin_no_pushdown`` — the legacy SQL
      self-join lowering with the planner's predicate pushdown on/off
      (the co spec's filter either sinks into both scans beneath the
      join or runs above it);
    * ``exact_serial`` / ``exact_threads`` — the group-by-``via``
      pairwise expansion, serial and fanned across the thread executor
      with partition-sliced scans;
    * ``capped`` — degree-capped expansion (lossy, so it is excluded
      from the parity gate; its ``truncated_groups`` count is recorded).

    All four exact configurations must produce bit-identical graph
    tables — that parity is this cell's hard gate.
    """
    if quick:
        scale = dict(num_users=300, num_follows=1_500, num_likes=2_500,
                     num_posts=24, likes_zipf=2.0)
    else:
        scale = dict(num_users=3_000, num_follows=20_000, num_likes=40_000,
                     num_posts=80, likes_zipf=2.0)
    member_cut = scale["num_users"] // 2  # selective co filter: half the members

    def build_view(schema) -> GraphView:
        return GraphView(
            vertices=NodeSpec(schema.users_table, key="id", where="karma > 2.0"),
            edges=[
                EdgeSpec(schema.follows_table, src="follower_id",
                         dst="followee_id", weight="closeness",
                         where="closeness > 1.0"),
                CoEdgeSpec(schema.likes_table, member="user_id", via="post_id",
                           where=f"user_id < {member_cut}"),
            ],
        )

    def run_variant(label: str, options: ExtractionOptions | None,
                    pushdown: bool) -> dict[str, Any]:
        best: dict[str, Any] | None = None
        for _ in range(max(repeat, 1)):
            vx = Vertexica()
            schema = load_social_schema(vx.db, **scale)
            vx.db.pushdown = pushdown
            handle = vx.create_graph_view(
                "scalebench", build_view(schema), materialized=True,
                extraction=options,
            )
            stats = handle.last_extraction
            edges = vx.db.query_batch("SELECT src, dst, weight FROM scalebench_edge")
            nodes = vx.db.query_batch("SELECT id FROM scalebench_node")
            fingerprint = hash((
                edges.column("src").values.tobytes(),
                edges.column("dst").values.tobytes(),
                edges.column("weight").values.tobytes(),
                nodes.column("id").values.tobytes(),
            ))
            trial = {
                "variant": label,
                "seconds": stats.seconds,
                "lower_seconds": stats.lower_seconds,
                "load_seconds": stats.load_seconds,
                "num_queries": stats.num_queries,
                "parallelism": stats.parallelism,
                "truncated_groups": stats.truncated_groups,
                "num_vertices": stats.num_vertices,
                "num_edges": stats.num_edges,
                "fingerprint": fingerprint,
            }
            if best is None or trial["seconds"] < best["seconds"]:
                best = trial
        best["seconds"] = round(best["seconds"], 6)
        best["lower_seconds"] = round(best["lower_seconds"], 6)
        best["load_seconds"] = round(best["load_seconds"], 6)
        return best

    slice_rows = max(500, scale["num_likes"] // 8)
    variants = {
        "selfjoin_pushdown": run_variant(
            "selfjoin_pushdown",
            ExtractionOptions(co_mode="selfjoin"), True),
        "selfjoin_no_pushdown": run_variant(
            "selfjoin_no_pushdown",
            ExtractionOptions(co_mode="selfjoin"), False),
        "exact_serial": run_variant(
            "exact_serial",
            ExtractionOptions(co_mode="exact"), True),
        "exact_threads": run_variant(
            "exact_threads",
            ExtractionOptions(executor="threads", n_workers=4, co_mode="exact",
                              slice_min_rows=slice_rows), True),
        "capped": run_variant(
            "capped",
            ExtractionOptions(co_mode="capped", co_cap=32), True),
    }
    exact_labels = [
        "selfjoin_pushdown", "selfjoin_no_pushdown", "exact_serial", "exact_threads"
    ]
    parity = len({variants[label]["fingerprint"] for label in exact_labels}) == 1

    def ratio(numer: str, denom: str) -> float:
        d = variants[denom]["seconds"]
        return round(variants[numer]["seconds"] / d, 2) if d else float("inf")

    return {
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "variants": list(variants.values()),
        "parity_ok": parity,
        "speedup_pushdown_over_no_pushdown": ratio(
            "selfjoin_no_pushdown", "selfjoin_pushdown"),
        "speedup_expansion_over_selfjoin": ratio(
            "selfjoin_pushdown", "exact_serial"),
        "speedup_threads_over_serial": ratio("exact_serial", "exact_threads"),
        "speedup_capped_over_exact": ratio("exact_serial", "capped"),
        "capped_truncated_groups": variants["capped"]["truncated_groups"],
    }


def run_serving_cache_cell(
    graph: Graph, n_partitions: int, repeat: int = 1, n_readers: int = 4
) -> dict[str, Any]:
    """Serving-tier cost model (the PR-7 cell): a repeated ``run`` through
    :class:`VertexicaService` cold (snapshot pin + shadow execution per
    request) vs warm (version-keyed cache hit), plus concurrent-reader
    throughput over a mixed run/one-hop/SQL workload.

    Cold and warm requests must produce bit-identical values — a cache
    hit is only legal because equal ``(uid, version)`` implies equal
    contents, and this cell asserts it end to end.
    """
    import asyncio

    vx = Vertexica(config=VertexicaConfig(n_partitions=n_partitions))
    name = f"{graph.name}_srv"
    handle = vx.load_graph(
        name, graph.src, graph.dst, num_vertices=graph.num_vertices
    )
    program = PageRank(iterations=pagerank_iterations())
    cell: dict[str, Any] = {
        "graph": graph.name,
        "num_vertices": handle.num_vertices,
        "num_edges": handle.num_edges,
        "n_readers": n_readers,
    }

    async def measure() -> None:
        async with vx.serve(
            max_concurrency=n_readers, max_queue=4096
        ) as service:
            async with service.session(max_inflight=1) as s:
                best_cold = float("inf")
                for _ in range(max(repeat, 1)):
                    started = time.perf_counter()
                    cold = await s.run(name, program, cached=False)
                    best_cold = min(best_cold, time.perf_counter() - started)
                await s.run(name, program)  # prime the cache (miss)
                best_warm = float("inf")
                for _ in range(max(repeat, 1)):
                    started = time.perf_counter()
                    warm = await s.run(name, program)
                    best_warm = min(best_warm, time.perf_counter() - started)
                assert warm.stats.served_from_cache
                cell["cold_seconds"] = round(best_cold, 6)
                cell["warm_seconds"] = round(best_warm, 6)
                cell["speedup_warm_over_cold"] = (
                    round(best_cold / best_warm, 2) if best_warm else float("inf")
                )
                cold_fp, warm_fp = _fingerprint(cold.values), _fingerprint(warm.values)
                cell["fingerprints_match"] = abs(cold_fp - warm_fp) <= 1e-9 * max(
                    1.0, abs(cold_fp)
                )

            # Concurrent readers over a mixed cached workload.
            async def read_loop(requests: int) -> None:
                async with service.session(max_inflight=2) as session:
                    for i in range(requests):
                        kind = i % 3
                        if kind == 0:
                            await session.run(name, program)
                        elif kind == 1:
                            await session.one_hop(name, i % graph.num_vertices)
                        else:
                            await session.sql(
                                f"SELECT COUNT(*) AS n FROM {name}_edge"
                            )

            per_reader = 30
            started = time.perf_counter()
            await asyncio.gather(*[read_loop(per_reader) for _ in range(n_readers)])
            seconds = time.perf_counter() - started
            stats = service.stats()
            cell["concurrent"] = {
                "requests": per_reader * n_readers,
                "seconds": round(seconds, 6),
                "requests_per_sec": round(per_reader * n_readers / seconds, 1)
                if seconds
                else float("inf"),
                "cache_hits": stats["cache"]["hits"],
                "cache_misses": stats["cache"]["misses"],
                "hit_rate": stats["cache"]["hit_rate"],
                "rejected": stats["rejected"],
                "serve_p50_s": stats["serve"]["p50_s"],
                "serve_p95_s": stats["serve"]["p95_s"],
            }

    asyncio.run(measure())
    return cell


def git_commit() -> str | None:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            or None
        )
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument("--scale", type=float, default=None, help="graph scale override")
    parser.add_argument(
        "--graphs", default="twitter,gplus,livejournal", help="comma-separated graph names"
    )
    parser.add_argument(
        "--algos", default="pagerank,sssp,cc", help="comma-separated algorithms"
    )
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per cell; the best (min superstep time) is recorded",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny-scale smoke run: twitter only, asserts parity and that "
        "the batch path did not regress below the scalar path",
    )
    args = parser.parse_args(argv)

    scale = 0.05 if args.quick and args.scale is None else args.scale
    graphs = bench_graphs(scale)
    graph_names = ["twitter"] if args.quick else args.graphs.split(",")
    algos = args.algos.split(",")
    known_graphs = {g.name for g in graphs.ordered()}
    bad = [g for g in graph_names if g not in known_graphs] + [
        a for a in algos if a not in ALGORITHMS
    ]
    if bad:
        parser.error(
            f"unknown graph/algorithm name(s): {', '.join(bad)} "
            f"(graphs: {', '.join(sorted(known_graphs))}; algos: {', '.join(ALGORITHMS)})"
        )
    out_path = args.out
    if out_path is None and not args.quick:
        # Trajectory files are append-only history: never clobber an
        # existing one implicitly — require an explicit --out for that.
        out_path = "BENCH_PR10.json"
        if os.path.exists(out_path):
            print(
                f"{out_path} already exists; pass --out to overwrite it or "
                "choose a new trajectory filename (e.g. --out BENCH_PR11.json)",
                file=sys.stderr,
            )
            out_path = None

    results: list[dict[str, Any]] = []
    speedups: dict[str, float] = {}
    failures: list[str] = []
    for graph_name in graph_names:
        graph = graphs.by_name(graph_name)
        for algorithm in algos:
            cells = {
                mode: run_cell(graph, algorithm, mode, args.partitions, args.repeat)
                for mode in MODES
            }
            results.extend(cells.values())
            batch, scalar = cells["batch"], cells["scalar"]
            if abs(batch["fingerprint"] - scalar["fingerprint"]) > 1e-6 * max(
                1.0, abs(scalar["fingerprint"])
            ):
                failures.append(
                    f"{graph_name}/{algorithm}: batch and scalar paths disagree "
                    f"({batch['fingerprint']} vs {scalar['fingerprint']})"
                )
            ratio = (
                scalar["superstep_seconds"] / batch["superstep_seconds"]
                if batch["superstep_seconds"]
                else float("inf")
            )
            speedups[f"{graph_name}/{algorithm}"] = round(ratio, 2)
            print(
                f"{graph_name:<12} {algorithm:<9} "
                f"batch {batch['superstep_seconds']:.3f}s  "
                f"scalar {scalar['superstep_seconds']:.3f}s  "
                f"({ratio:.1f}x, {batch['vertices_per_sec']:,.0f} v/s)"
            )

    # Graph-view extraction timings — the PR-2 trajectory addition.
    extraction_cells = []
    for graph_name in graph_names:
        graph = graphs.by_name(graph_name)
        extraction_cell = run_extraction_cell(graph, args.repeat)
        extraction_cells.append(extraction_cell)
        if not extraction_cell["matches_direct_load"]:
            failures.append(
                f"{graph_name}: graph-view extraction disagrees with direct load"
            )
        print(
            f"{graph_name:<12} view extraction: "
            f"{extraction_cell['extraction_seconds']:.3f}s for "
            f"{extraction_cell['num_edges']} edges "
            f"(direct load {extraction_cell['direct_load_seconds']:.3f}s)"
        )

    # Worker scaling on both data planes — the PR-4 cell (and the quick
    # mode's shard-plane parity gate).
    workers_cells = []
    for graph_name in graph_names:
        graph = graphs.by_name(graph_name)
        workers_cell = run_workers_scaling_cell(
            graph, "pagerank", args.partitions, args.repeat
        )
        workers_cells.append(workers_cell)
        if not workers_cell["fingerprints_match"]:
            failures.append(
                f"{graph_name}/pagerank: sql/shards/process-executor "
                "cells disagree"
            )
        shards_secs = workers_cell["superstep_seconds"]["shards"]
        proc_secs = workers_cell["superstep_seconds"]["shards_processes"]
        sql_secs = workers_cell["superstep_seconds"]["sql"]
        base, peak = min(shards_secs, key=int), max(shards_secs, key=int)
        print(
            f"{graph_name:<12} workers scaling: "
            f"sql {base}w {sql_secs[base]:.3f}s  "
            f"shards {base}w {shards_secs[base]:.3f}s / "
            f"{peak}w {shards_secs[peak]:.3f}s  "
            f"procs {peak}w {proc_secs[peak]:.3f}s  "
            f"(shards {workers_cell['speedup_shards_over_sql_1w']:.2f}x vs sql, "
            f"threads {workers_cell['shards_scaling_1w_over_4w']:.2f}x / "
            f"procs {workers_cell['processes_scaling_1w_over_4w']:.2f}x at "
            f"{peak} workers on {workers_cell['cpu_count']} CPU(s))"
        )

    # Collaborative filtering: JSON codec vs dense vector codec on both
    # data planes — the PR-5 cell (and the quick mode's typed-value-plane
    # parity gate).
    cf_codec_cells = []
    for graph_name in graph_names:
        graph = graphs.by_name(graph_name)
        cf_cell = run_cf_codec_cell(graph, args.partitions, args.repeat)
        cf_codec_cells.append(cf_cell)
        if not cf_cell["fingerprints_match"]:
            failures.append(
                f"{graph_name}/cf: json and vector codec paths disagree"
            )
        secs = cf_cell["superstep_seconds"]
        print(
            f"{graph_name:<12} cf codecs: "
            f"json sql {secs['json_sql']:.3f}s  "
            f"vector sql {secs['vector_sql']:.3f}s  "
            f"({cf_cell['speedup_vector_over_json_sql']:.2f}x)  "
            f"shards {secs['json_shards']:.3f}s -> {secs['vector_shards']:.3f}s "
            f"({cf_cell['speedup_vector_over_json_shards']:.2f}x)"
        )

    # Embedding workloads: element-wise vector combiners on/off on both
    # data planes, with routed-message-row counters — the PR-10 cell
    # (and the quick mode's vector-combiner parity gate).
    vector_workload_cells = []
    for graph_name in graph_names:
        graph = graphs.by_name(graph_name)
        vec_cell = run_vector_workloads_cell(graph, args.partitions, args.repeat)
        vector_workload_cells.append(vec_cell)
        for workload, data in vec_cell["workloads"].items():
            if not data["fingerprints_match"]:
                failures.append(
                    f"{graph_name}/{workload}: combined and uncombined "
                    "vector runs disagree (combiner must be bit-exact)"
                )
            if not data["combiner_reduces_messages"]:
                failures.append(
                    f"{graph_name}/{workload}: combiner did not reduce "
                    "routed message rows on every plane"
                )
            cells = data["cells"]
            combined = cells["shards_combined"]
            uncombined = cells["shards_uncombined"]
            print(
                f"{graph_name:<12} {workload}: "
                f"sql {cells['sql_uncombined']['superstep_seconds']:.3f}s -> "
                f"{cells['sql_combined']['superstep_seconds']:.3f}s "
                f"({data['speedup_combined_over_uncombined_sql']:.2f}x)  "
                f"shards {uncombined['superstep_seconds']:.3f}s -> "
                f"{combined['superstep_seconds']:.3f}s "
                f"({data['speedup_combined_over_uncombined_shards']:.2f}x)  "
                f"rows {uncombined['messages']} -> {combined['messages']}"
            )

    # Checkpoint overhead: fault-tolerance cost per checkpoint policy on
    # both data planes — the PR-6 cell (and the quick mode's
    # checkpointing-perturbs-nothing parity gate).
    checkpoint_cells = []
    for graph_name in graph_names:
        graph = graphs.by_name(graph_name)
        ckpt_cell = run_checkpoint_overhead_cell(graph, args.partitions, args.repeat)
        checkpoint_cells.append(ckpt_cell)
        if not ckpt_cell["fingerprints_match"]:
            failures.append(
                f"{graph_name}/pagerank: checkpointing changed the result"
            )
        print(
            f"{graph_name:<12} checkpoint overhead: "
            f"sql every4 {ckpt_cell['overhead_every4_sql']*100:.1f}%  "
            f"every1 {ckpt_cell['cells']['sql']['every1']['overhead']*100:.1f}%  "
            f"shards every4 {ckpt_cell['overhead_every4_shards']*100:.1f}%  "
            f"every1 {ckpt_cell['cells']['shards']['every1']['overhead']*100:.1f}%"
        )

    # Serving tier: cold snapshot execution vs version-keyed cache hit,
    # plus concurrent-reader throughput — the PR-7 cell (and the quick
    # mode's cache-correctness parity gate).
    serving_cells = []
    for graph_name in graph_names:
        graph = graphs.by_name(graph_name)
        serving_cell = run_serving_cache_cell(graph, args.partitions, args.repeat)
        serving_cells.append(serving_cell)
        if not serving_cell["fingerprints_match"]:
            failures.append(
                f"{graph_name}/pagerank: cached serving result disagrees "
                f"with uncached recomputation"
            )
        concurrent = serving_cell["concurrent"]
        print(
            f"{graph_name:<12} serving cache: "
            f"cold {serving_cell['cold_seconds']:.3f}s  "
            f"warm {serving_cell['warm_seconds']*1000:.2f}ms  "
            f"({serving_cell['speedup_warm_over_cold']:.0f}x)  "
            f"{concurrent['requests_per_sec']:,.0f} req/s over "
            f"{serving_cell['n_readers']} readers "
            f"(hit rate {concurrent['hit_rate']*100:.0f}%)"
        )

    # Incremental vs full refresh after small DML — the PR-3 cell.
    refresh_cells = []
    for graph_name in graph_names:
        graph = graphs.by_name(graph_name)
        refresh_cell = run_refresh_cell(graph, args.repeat)
        refresh_cells.append(refresh_cell)
        if not refresh_cell["parity_ok"]:
            failures.append(
                f"{graph_name}: incremental refresh disagrees with full re-extraction"
            )
        print(
            f"{graph_name:<12} view refresh: "
            f"incremental {refresh_cell['incremental_seconds']*1000:.2f}ms  "
            f"full {refresh_cell['full_seconds']*1000:.2f}ms  "
            f"({refresh_cell['speedup_full_over_incremental']:.1f}x, "
            f"{refresh_cell['delta_rows_per_refresh']} delta rows)"
        )

    # Production-scale extraction ablation: pushdown on/off, group-by
    # expansion vs SQL self-join, serial vs threaded lowering, degree
    # cap — the PR-9 cell (and the quick mode's extraction parity gate).
    scaling_cell = run_extraction_scaling_cell(args.repeat, quick=args.quick)
    if not scaling_cell["parity_ok"]:
        failures.append(
            "extraction scaling: exact variants disagree "
            "(selfjoin/pushdown/expansion/threads must be bit-identical)"
        )
    print(
        f"{'social':<12} extraction scaling: "
        f"pushdown {scaling_cell['speedup_pushdown_over_no_pushdown']:.2f}x  "
        f"expansion-vs-selfjoin "
        f"{scaling_cell['speedup_expansion_over_selfjoin']:.2f}x  "
        f"threads {scaling_cell['speedup_threads_over_serial']:.2f}x "
        f"({os.cpu_count()} cpus)  "
        f"capped {scaling_cell['speedup_capped_over_exact']:.2f}x "
        f"({scaling_cell['capped_truncated_groups']} truncated groups)"
    )

    report = {
        "bench": "figure2 data-plane trajectory",
        "commit": git_commit(),
        "scale": scale if scale is not None else "default",
        "pagerank_iterations": pagerank_iterations(),
        "n_partitions": args.partitions,
        "repeat": args.repeat,
        "speedup_scalar_over_batch_superstep_seconds": speedups,
        "graph_view_extraction": extraction_cells,
        "incremental_refresh": refresh_cells,
        "workers_scaling": workers_cells,
        "cf_codec": cf_codec_cells,
        "vector_workloads": vector_workload_cells,
        "checkpoint_overhead": checkpoint_cells,
        "serving_cache": serving_cells,
        "extraction_scaling": scaling_cell,
        "results": results,
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {out_path}")

    if failures:
        for line in failures:
            print("FAIL:", line, file=sys.stderr)
        return 1
    if args.quick:
        # Loud perf tripwire: the vectorized path must not lose to the
        # scalar path on any cell (generous 1.2x slack for CI noise).
        for key, ratio in speedups.items():
            if ratio < 1.0 / 1.2:
                print(f"FAIL: batch path slower than scalar on {key} ({ratio}x)", file=sys.stderr)
                return 1
        # Shard-plane tripwire: skipping the per-superstep union SQL and
        # staging round trip must not make supersteps slower than the
        # SQL plane (generous slack for CI noise at smoke scale).
        for cell in workers_cells:
            if cell["speedup_shards_over_sql_1w"] < 1.0 / 1.5:
                print(
                    f"FAIL: shard plane slower than sql plane on "
                    f"{cell['graph']} ({cell['speedup_shards_over_sql_1w']}x)",
                    file=sys.stderr,
                )
                return 1
        # Typed-value-plane tripwire: dropping the JSON serialization must
        # not make CF supersteps slower than the VARCHAR path (generous
        # slack for CI noise; parity is already a hard gate above).
        for cell in cf_codec_cells:
            for plane in ("sql", "shards"):
                ratio = cell[f"speedup_vector_over_json_{plane}"]
                if ratio < 1.0 / 1.2:
                    print(
                        f"FAIL: vector codec slower than json on "
                        f"{cell['graph']}/{plane} ({ratio}x)",
                        file=sys.stderr,
                    )
                    return 1
        # Vector-combiner tripwire: combining collapses routed message
        # rows (that reduction is the hard gate above, and is robust on
        # any machine); the wall-clock win is modest at smoke scale and
        # CI is often single-core, so only an egregious slowdown of the
        # combined path (1.5x) fails the run.
        for cell in vector_workload_cells:
            for workload, data in cell["workloads"].items():
                for plane in ("sql", "shards"):
                    ratio = data[f"speedup_combined_over_uncombined_{plane}"]
                    if ratio < 1.0 / 1.5:
                        print(
                            f"FAIL: combined {workload} slower than "
                            f"uncombined on {cell['graph']}/{plane} "
                            f"({ratio}x)",
                            file=sys.stderr,
                        )
                        return 1
        # Checkpoint tripwire: snapshotting every 4 supersteps must stay
        # a small fraction of compute time.  The acceptance bar is 15% at
        # benchmark scale; smoke scale has tiny supersteps against the
        # checkpoint's fixed file-system cost, so the quick gate only
        # catches egregious regressions (100%).
        for cell in checkpoint_cells:
            for plane in ("sql", "shards"):
                overhead = cell[f"overhead_every4_{plane}"]
                if overhead > 1.0:
                    print(
                        f"FAIL: checkpoint_every=4 overhead {overhead*100:.0f}% "
                        f"on {cell['graph']}/{plane}",
                        file=sys.stderr,
                    )
                    return 1
        # Serving-cache tripwire: a warm (version-keyed cache hit) run
        # must beat the cold snapshot-and-execute path by a wide margin
        # even at smoke scale (the acceptance bar is 10x at benchmark
        # scale; 5x here leaves slack for tiny cold runs in CI).
        for cell in serving_cells:
            if cell["speedup_warm_over_cold"] < 5.0:
                print(
                    f"FAIL: serving cache hit only "
                    f"{cell['speedup_warm_over_cold']}x faster than cold on "
                    f"{cell['graph']}",
                    file=sys.stderr,
                )
                return 1
        # Refresh tripwire: at smoke scale both paths are sub-millisecond
        # and sit right at the incremental/full crossover, so only an
        # egregious slowdown (2x) fails the run — parity is the hard gate.
        for cell in refresh_cells:
            if cell["speedup_full_over_incremental"] < 0.5:
                print(
                    f"FAIL: incremental refresh slower than full on "
                    f"{cell['graph']} ({cell['speedup_full_over_incremental']}x)",
                    file=sys.stderr,
                )
                return 1
        # Extraction-scaling tripwire: parity across the exact variants is
        # the hard gate (checked above); perf gates are generous because at
        # smoke scale the co-occurrence groups are small and CI is often
        # single-core, so only egregious regressions (2x) fail the run.
        if scaling_cell["speedup_pushdown_over_no_pushdown"] < 0.5:
            print(
                f"FAIL: predicate pushdown slowed selective extraction "
                f"({scaling_cell['speedup_pushdown_over_no_pushdown']}x)",
                file=sys.stderr,
            )
            return 1
        if scaling_cell["speedup_expansion_over_selfjoin"] < 0.25:
            print(
                f"FAIL: group-by expansion slower than SQL self-join "
                f"({scaling_cell['speedup_expansion_over_selfjoin']}x)",
                file=sys.stderr,
            )
            return 1
        if scaling_cell["capped_truncated_groups"] < 1:
            print(
                "FAIL: capped extraction truncated no groups "
                "(skew knob not producing dense via groups)",
                file=sys.stderr,
            )
            return 1
        print("quick bench OK:", ", ".join(f"{k}={v}x" for k, v in speedups.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
