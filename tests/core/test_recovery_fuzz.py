"""Recovery fuzzing: for every shipped program, on every data plane,

* kill the run at a seeded random site/superstep, resume it, and require
  the result to be bit-identical to an uninterrupted run;
* inject one transient fault at a seeded random site/superstep, boundary
  writes (table sync, checkpoint write) included, and require the run to
  roll back, replay, and finish bit-identical to an undisturbed run.

Seeds come from the ``RECOVERY_FUZZ_SEEDS`` env var (comma-separated
ints; CI sweeps a wider range than the default quick pair).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

# Same-directory import (pytest prepend mode): reuse the parity suite's
# program matrix and graph fixtures so the fuzzer always covers exactly
# the shipped-program set.
from test_input_format_parity import ALL_PROGRAMS, _graph_data
from test_update_path import assert_tables_identical

from repro.core import Vertexica, faults
from repro.core.faults import FaultPlan, FaultSpec, InjectedKill

SEEDS = [int(s) for s in os.environ.get("RECOVERY_FUZZ_SEEDS", "0,1").split(",") if s]

#: plane label -> (run kwargs, kill sites that are guaranteed to trip).
#: Sites with ``superstep=None`` wildcards fire at their first
#: opportunity; per-superstep sites get a pinned superstep below.
PLANES = {
    "sql": ({}, ["storage.apply", "checkpoint.write"]),
    "sql-replace": ({"update_strategy": "replace"}, ["storage.apply", "checkpoint.write"]),
    "shards": (
        {"data_plane": "shards"},
        ["shard.compute", "shard.route", "storage.sync", "checkpoint.write"],
    ),
}

#: each plane's random stream, fixed so that adding or removing a plane
#: does not redraw the other planes' kill sites
STREAMS = {"shards": 1, "sql": 2, "sql-replace": 3}

#: sites that exist at every superstep and accept a pinned superstep;
#: the rest must stay wildcard to be guaranteed to fire (e.g.
#: ``storage.sync`` runs only at checkpoint boundaries and at completion).
_PINNABLE = {"storage.apply", "shard.compute", "shard.route"}


def _setup(program_factory, symmetrize, matching):
    src, dst, weights = _graph_data(matching)
    vx = Vertexica()
    graph = vx.load_graph(
        "g",
        src,
        dst,
        weights=weights,
        num_vertices=(66 if matching else 96),
        symmetrize=symmetrize,
    )
    return vx, graph


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("plane", sorted(PLANES))
@pytest.mark.parametrize("program_factory,symmetrize,matching", ALL_PROGRAMS)
def test_kill_and_resume_bit_identical(
    seed, plane, program_factory, symmetrize, matching, tmp_path
):
    cfg, sites = PLANES[plane]
    cfg = dict(cfg, n_partitions=4)

    # Uninterrupted baseline with the same plane config.
    vx, graph = _setup(program_factory, symmetrize, matching)
    baseline = vx.run(graph, program_factory(), **cfg)
    n_supersteps = baseline.stats.n_supersteps

    # Seeded kill: pick a site, and (where pinnable) a superstep inside
    # the run, so the kill is guaranteed to fire.
    rng = np.random.default_rng([seed, STREAMS[plane], n_supersteps])
    site = sites[int(rng.integers(len(sites)))]
    superstep = (
        int(rng.integers(n_supersteps)) if site in _PINNABLE else None
    )
    plan = FaultPlan([FaultSpec(site=site, kind="kill", superstep=superstep)])

    vx2, graph2 = _setup(program_factory, symmetrize, matching)
    with faults.injected(plan):
        with pytest.raises(InjectedKill):
            vx2.run(
                graph2,
                program_factory(),
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
                **cfg,
            )
    assert plan.fired, f"kill at {site!r} superstep={superstep} never fired"

    # Resume the killed run in the same session: bit-identical values,
    # aggregates, and superstep count.
    resumed = vx2.run(
        graph2,
        program_factory(),
        checkpoint_every=2,
        checkpoint_dir=str(tmp_path),
        resume=True,
        **cfg,
    )
    assert resumed.values == baseline.values
    # the resumed run replays exactly the supersteps after the restored
    # checkpoint, each exactly once
    recovered = resumed.stats.recovered_supersteps
    assert recovered + resumed.stats.n_supersteps == n_supersteps
    steps = [s.superstep for s in resumed.stats.supersteps]
    assert steps == list(range(recovered, n_supersteps))


#: checkpoint interval of the transient-fault fuzz
EVERY = 2


def _transient_supersteps(site, n_supersteps):
    """The supersteps at which ``site`` trips in a run of ``n_supersteps``
    checkpointed every :data:`EVERY` (``trip``'s ``superstep`` argument).
    The baseline checkpoint (0 completed) is left out: it has nothing to
    roll back to, so a fault there fails the run by design."""
    if site in _PINNABLE:
        return list(range(n_supersteps))
    if site == "storage.sync":
        # the sync before each checkpoint, then the final sync, which a
        # run ending on a checkpoint skips (its tables hold that state)
        before = [s for s in range(n_supersteps) if (s + 1) % EVERY == 0]
        return before + ([n_supersteps] if n_supersteps % EVERY else [])
    # checkpoint.write trips with the completed-superstep count
    return list(range(EVERY, n_supersteps + 1, EVERY))


def _checkpointed_run(program_factory, symmetrize, matching, cfg, directory):
    vx, graph = _setup(program_factory, symmetrize, matching)
    result = vx.run(
        graph,
        program_factory(),
        checkpoint_every=EVERY,
        checkpoint_dir=str(directory),
        **cfg,
    )
    tables = [vx.db.table(name).data() for name in (graph.vertex_table, graph.message_table)]
    return result, tables


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("plane", sorted(PLANES))
@pytest.mark.parametrize("program_factory,symmetrize,matching", ALL_PROGRAMS)
def test_transient_fault_rolls_back_bit_identical(
    seed, plane, program_factory, symmetrize, matching, tmp_path
):
    cfg, sites = PLANES[plane]
    cfg = dict(cfg, n_partitions=4)
    args = (program_factory, symmetrize, matching, cfg)

    base, base_tables = _checkpointed_run(*args, tmp_path / "base")
    n_supersteps = base.stats.n_supersteps

    # Seeded transient fault at a site/superstep that is guaranteed to
    # trip; its own stream, apart from the kill fuzz's.
    rng = np.random.default_rng([seed, STREAMS[plane], n_supersteps, 1])
    candidates = {
        site: steps for site in sites if (steps := _transient_supersteps(site, n_supersteps))
    }
    site = sorted(candidates)[int(rng.integers(len(candidates)))]
    steps = candidates[site]
    superstep = steps[int(rng.integers(len(steps)))]
    plan = FaultPlan([FaultSpec(site=site, kind="transient", superstep=superstep)])

    with faults.injected(plan):
        result, tables = _checkpointed_run(*args, tmp_path / "faulted")
    assert plan.fired, f"transient fault at {site!r} superstep={superstep} never fired"

    # One retry, every superstep recorded exactly once, and values and
    # both run tables bitwise those of the undisturbed run.
    assert result.stats.retries == 1
    assert [s.superstep for s in result.stats.supersteps] == list(range(n_supersteps))
    assert result.values == base.values
    for table, base_table in zip(tables, base_tables):
        assert_tables_identical(table, base_table)
