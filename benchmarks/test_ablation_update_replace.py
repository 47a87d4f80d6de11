"""O3 — §2.3 Update-vs-Replace ablation.

"Instead of updating the vertices and messages in the existing tables,
Vertexica creates new vertex and message tables ... Such modifications via
replace are much faster.  Still, if the number of updated tuples is below
a fixed threshold, then Vertexica updates the existing tables."

The Update path is one set-oriented write per superstep (a keyed scatter
of the staged rows through ``Table.update_rows``); the Replace path
rebuilds the vertex table with a ``LEFT JOIN`` against the staged rows
and swaps it in.  Three probes:

* PageRank — dense updates (every vertex, every superstep).  Recorded,
  not asserted: the set write beats replace here too, because replace
  pays the join's key factorization.
* SSSP over a layered DAG (24 x 500, the perf benchmark's
  ``sssp_frontier_sql`` input) — a frontier of at most 4 % of the table,
  the regime where the paper's rule updates in place.  Asserted: summed
  ``apply_vertex_updates`` seconds under ``"update"`` are under half of
  those under ``"replace"`` (best of 3).
* A sweep of one apply step over an id-ordered FLOAT vertex table at
  update densities of 1 / 5 / 25 / 100 %
  (``PYTHONPATH=src python benchmarks/test_ablation_update_replace.py``),
  best of 5, ms, 2-vCPU host.  The last column is the tuple-at-a-time
  loop the set write replaced (one ``UPDATE … WHERE id = ?`` per row,
  one run)::

      density   12 000 vertices     70 000 vertices     70 000, old
                update   replace    update   replace    per-tuple loop
          1 %     0.35      2.54      1.02     11.49           415
          5 %     0.62      2.80      2.50     12.98         2 083
         25 %     1.60      2.96      7.91     17.47        10 238
        100 %     2.32      5.40     17.16     33.68        31 323

**The paper's threshold claim is not reproduced.**  The sweep finds
replace slower at every density and whole runs find it at best tied, so
there is no density above which it should run.  The cause: this engine's keyed scatter rewrites only the touched columns of
one in-memory batch, one version bump however many rows change, while
the rebuild pays a full ``LEFT JOIN`` (key ranking plus match expansion
over every vertex row) and leaves the table out of id order for the next
step.  The paper's replace most likely won on a disk-resident column
store, where an in-place update pays per-tuple delete vectors and
write-optimized-store churn that this engine has no analogue of.  So ``update_strategy`` has
no threshold: ``"update"`` is the default and the only automatic path,
and ``"replace"`` stays as this ablation's other side.  Whole runs
(PYTHONPATH=src, the perf benchmark's seed-11 inputs, one warm-up, then
10 alternating pairs on a 2-vCPU host; medians, same values either way;
the 10 000-vertex graph is the ``serving_mixed`` input)::

    input                              update    replace   update faster
    PageRank(5), 70 000 V / 700 000 E  0.851 s    0.848 s   7 of 10 pairs
    PageRank(5), 10 000 V / 100 000 E  0.150 s    0.162 s   9 of 10
    SSSP, 24 x 500 layered DAG         0.141 s    0.185 s   10 of 10

The old 5 % threshold replaced on every dense PageRank superstep, so the
first two rows are what dropping it changes there: a tie at 70 000
vertices (a second set of 10 pairs read 0.907 vs 0.904 s, again 7 of 10)
and a 7 % cut at 10 000.  On the SSSP it replaced at superstep 0 only.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from conftest import run_once
from repro.core import Vertexica, VertexicaConfig
from repro.core.storage import GraphStorage
from repro.datasets.generators import twitter_like
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.types import BOOLEAN, FLOAT, INTEGER
from repro.programs import PageRank, ShortestPaths

SWEEP_DENSITIES = (0.01, 0.05, 0.25, 1.0)


def prepare_pagerank(graph, strategy: str):
    vx = Vertexica(config=VertexicaConfig(n_partitions=8, update_strategy=strategy))
    handle = vx.load_graph(
        f"{graph.name}_u{strategy}", graph.src, graph.dst,
        num_vertices=graph.num_vertices,
    )
    return lambda: vx.run(handle, PageRank(iterations=3)).values


@pytest.mark.parametrize("strategy", ["replace", "update"])
@pytest.mark.benchmark(group="ablation-update-replace-dense")
def test_dense_updates_pagerank(benchmark, strategy):
    graph = twitter_like(scale=0.05)
    values = run_once(benchmark, prepare_pagerank(graph, strategy))
    assert len(values) == graph.num_vertices


def prepare_sssp_chain(n: int, strategy: str):
    vx = Vertexica(config=VertexicaConfig(update_strategy=strategy))
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    handle = vx.load_graph(f"chain_{strategy}", src, dst)
    return lambda: vx.run(handle, ShortestPaths(source=0)).values


@pytest.mark.parametrize("strategy", ["replace", "update"])
@pytest.mark.benchmark(group="ablation-update-replace-sparse")
def test_sparse_updates_sssp(benchmark, strategy):
    # Chain SSSP: one vertex updated per superstep — the sparse regime.
    values = run_once(benchmark, prepare_sssp_chain(60, strategy))
    assert values[59] == 59.0


# ----------------------------------------------------------------------
# Narrow frontier: the regime the paper's rule sends to the Update path
# ----------------------------------------------------------------------
def layered_dag(seed: int = 11) -> dict:
    """The perf benchmark's ``sssp_frontier_sql`` input (24 x 500)."""
    path = Path(__file__).resolve().parent / "perf" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perf_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.layered_dag_inputs(np.random.default_rng(seed), 24, 500)


def best_apply_seconds(monkeypatch, arrays: dict, strategy: str, runs: int = 3) -> float:
    """Least, over ``runs`` SSSP runs, of a run's summed
    ``apply_vertex_updates`` seconds."""
    spent = [0.0]
    apply = GraphStorage.apply_vertex_updates

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return apply(*args, **kwargs)
        finally:
            spent[0] += perf_counter() - start

    vx = Vertexica(config=VertexicaConfig(update_strategy=strategy))
    graph = vx.load_graph(
        "dag", arrays["src"], arrays["dst"], weights=arrays["weights"],
        num_vertices=int(arrays["num_vertices"]),
    )
    best = float("inf")
    with monkeypatch.context() as patch:
        patch.setattr(GraphStorage, "apply_vertex_updates", timed)
        for _ in range(runs):
            spent[0] = 0.0
            vx.run(graph, ShortestPaths(source=0))
            best = min(best, spent[0])
    return best


def test_narrow_frontier_update_beats_replace(monkeypatch):
    arrays = layered_dag()
    update = best_apply_seconds(monkeypatch, arrays, "update")
    replace = best_apply_seconds(monkeypatch, arrays, "replace")
    assert update < 0.5 * replace, (update, replace)


# ----------------------------------------------------------------------
# The density sweep (recorded in the module docstring)
# ----------------------------------------------------------------------
def apply_sweep(
    num_vertices: int, densities=SWEEP_DENSITIES, repeats: int = 5, seed: int = 0
) -> dict[float, tuple[float, float]]:
    """Best-of-``repeats`` seconds of one ``apply_vertex_updates`` step
    per path, ``density`` x ``num_vertices`` staged vertex updates at
    random ids, over an id-ordered FLOAT vertex table (as ``setup_run``
    leaves it).  Both paths must leave the same rows."""
    rng = np.random.default_rng(seed)
    vx = Vertexica()
    graph = vx.load_graph(
        "sweep", np.arange(num_vertices - 1), np.arange(1, num_vertices)
    )
    program = ShortestPaths(source=0)
    vx.storage.setup_run(graph, program)
    table = vx.db.table(graph.vertex_table)
    start = table.data()
    staging_schema = vx.db.table(graph.output_table).schema
    out = {}
    for density in densities:
        count = max(1, round(density * num_vertices))
        vids = rng.permutation(num_vertices)[:count]
        values = rng.random(count)
        halted = rng.random(count) < 0.5
        vx.storage.stage_worker_output(
            graph,
            RecordBatch(
                staging_schema,
                [
                    Column.from_numpy(INTEGER, np.zeros(count, dtype=np.int64)),
                    Column.from_numpy(INTEGER, vids),
                    Column.constant(INTEGER, None, count),
                    Column.from_numpy(BOOLEAN, halted),
                    Column.constant(FLOAT, None, count),
                    Column.from_numpy(FLOAT, values),
                ],
            ),
        )
        seconds, results = [], []
        for replace in (False, True):
            best = float("inf")
            for _ in range(repeats):
                table.replace_data(start)
                began = perf_counter()
                vx.storage.apply_vertex_updates(graph, program, replace)
                best = min(best, perf_counter() - began)
            seconds.append(best)
            result = table.data()
            results.append(result.take(np.argsort(result.column("id").values)).to_rows())
        assert results[0] == results[1]
        out[density] = (seconds[0], seconds[1])
    return out


def test_apply_sweep_paths_agree():
    sweep = apply_sweep(2_000, repeats=1)
    assert sorted(sweep) == sorted(SWEEP_DENSITIES)


if __name__ == "__main__":
    for num_vertices in (12_000, 70_000):
        print(f"{num_vertices} vertices\ndensity   update ms   replace ms")
        for density, (update, replace) in apply_sweep(num_vertices).items():
            print(f"{density:>7.0%}   {update * 1e3:9.2f}   {replace * 1e3:10.2f}")
