"""Kill-and-resume fuzzing: for every shipped program, on every data
plane, kill the run at a seeded random site/superstep, resume it, and
require the result to be bit-identical to an uninterrupted run.

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

from repro.core import Vertexica, faults
from repro.core.faults import FaultPlan, FaultSpec, InjectedKill

SEEDS = [int(s) for s in os.environ.get("RECOVERY_FUZZ_SEEDS", "0,1").split(",") if s]

#: plane label -> (run kwargs, kill sites that are guaranteed to trip).
#: Sites with ``superstep=None`` wildcards fire at their first
#: opportunity; per-superstep sites get a pinned superstep below.
PLANES = {
    "sql": ({}, ["storage.apply", "checkpoint.write"]),
    "sql-replace": ({"update_strategy": "replace"}, ["storage.apply", "checkpoint.write"]),
    "shards-every": (
        {"data_plane": "shards", "superstep_sync": "every"},
        ["shard.compute", "shard.route", "storage.sync", "checkpoint.write"],
    ),
    "shards-halt": (
        {"data_plane": "shards", "superstep_sync": "halt"},
        ["shard.compute", "shard.route", "storage.sync", "checkpoint.write"],
    ),
}

#: sites that exist at every superstep and accept a pinned superstep;
#: the rest must stay wildcard to be guaranteed to fire (e.g.
#: ``storage.sync`` only runs at checkpoint boundaries under halt sync).
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
    rng = np.random.default_rng([seed, sorted(PLANES).index(plane), n_supersteps])
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
