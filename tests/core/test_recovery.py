"""Checkpoint/resume semantics: layout, torn-write discipline, manifest
validation, rollback-replay, and bit-identical resumed runs."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

# Same-directory import (pytest prepend mode), as test_recovery_fuzz does.
from test_update_path import assert_tables_identical

from repro.core import CheckpointPolicy, Vertexica, VertexicaConfig, faults
from repro.core.faults import FaultPlan, FaultSpec, InjectedFault, InjectedKill
from repro.core.recovery import program_fingerprint
from repro.datasets.generators import power_law_graph
from repro.errors import RecoveryError, VertexicaError
from repro.programs import PageRank
from repro.programs.collaborative_filtering import CollaborativeFiltering

PLANES = [
    pytest.param({}, id="sql"),
    pytest.param({"data_plane": "shards", "n_partitions": 3}, id="shards"),
]

GRAPH = power_law_graph("g", 60, 240, seed=7, weighted=True)


def fresh_run_setup():
    vx = Vertexica()
    g = vx.load_graph(
        "g", GRAPH.src, GRAPH.dst, weights=GRAPH.weights, num_vertices=60
    )
    return vx, g


class TestCheckpointPolicy:
    def test_due_arithmetic(self):
        policy = CheckpointPolicy(every=3)
        assert policy.enabled
        assert policy.due(0)  # baseline floor
        assert not policy.due(1) and not policy.due(2)
        assert policy.due(3) and policy.due(6)

    def test_disabled(self):
        policy = CheckpointPolicy()
        assert not policy.enabled
        assert not policy.due(0) and not policy.due(4)

    def test_config_validation(self):
        with pytest.raises(VertexicaError, match="checkpoint_every"):
            VertexicaConfig(checkpoint_every=0, checkpoint_dir="/tmp/x").validated()
        with pytest.raises(VertexicaError, match="checkpoint_dir"):
            VertexicaConfig(checkpoint_every=2).validated()
        with pytest.raises(VertexicaError, match="resume"):
            VertexicaConfig(resume=True).validated()
        with pytest.raises(VertexicaError, match="task_retries"):
            VertexicaConfig(task_retries=-1).validated()
        with pytest.raises(VertexicaError, match="retry_backoff"):
            VertexicaConfig(retry_backoff=-0.5).validated()


class TestProgramFingerprint:
    def test_stable_across_instances(self):
        assert program_fingerprint(PageRank(iterations=5)) == program_fingerprint(
            PageRank(iterations=5)
        )

    def test_param_changes_fingerprint(self):
        base = program_fingerprint(PageRank(iterations=5))
        assert program_fingerprint(PageRank(iterations=6)) != base
        assert program_fingerprint(PageRank(iterations=5, damping=0.9)) != base

    def test_class_changes_fingerprint(self):
        assert program_fingerprint(PageRank(iterations=5)) != program_fingerprint(
            CollaborativeFiltering(iterations=5)
        )


@pytest.mark.parametrize("plane", PLANES)
class TestCheckpointWrites:
    def test_layout_and_pruning(self, tmp_path, plane):
        vx, g = fresh_run_setup()
        result = vx.run(
            g,
            PageRank(iterations=6),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            **plane,
        )
        entries = sorted(os.listdir(tmp_path))
        # superseded snapshots pruned: only LATEST + the final checkpoint
        assert entries == ["LATEST", "ckpt-000006"]
        with open(tmp_path / "LATEST", encoding="utf-8") as fh:
            assert fh.read().strip() == "ckpt-000006"
        manifest = json.loads((tmp_path / "ckpt-000006" / "manifest.json").read_text())
        assert sorted(manifest["tables"]) == ["message", "vertex"]
        facts = manifest["metadata"]
        assert facts["completed"] == 6
        assert facts["graph"]["num_vertices"] == 60
        assert facts["program"]["name"] == "PageRank"
        assert result.stats.checkpoint_seconds > 0.0
        # per-superstep accounting excludes checkpoint time from compute
        ckpt_steps = [
            s for s in result.stats.supersteps if s.checkpoint_seconds > 0.0
        ]
        assert ckpt_steps, "no superstep recorded checkpoint time"

    def test_checkpointing_does_not_change_results(self, tmp_path, plane):
        vx, g = fresh_run_setup()
        base = vx.run(g, PageRank(iterations=6), **plane)
        vx2, g2 = fresh_run_setup()
        ck = vx2.run(
            g2,
            PageRank(iterations=6),
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
            **plane,
        )
        assert ck.values == base.values

    def test_resume_with_empty_directory_runs_fresh(self, tmp_path, plane):
        vx, g = fresh_run_setup()
        base = vx.run(g, PageRank(iterations=4), **plane)
        vx2, g2 = fresh_run_setup()
        res = vx2.run(
            g2,
            PageRank(iterations=4),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path / "never-written"),
            resume=True,
            **plane,
        )
        assert res.values == base.values
        assert res.stats.recovered_supersteps == 0


@pytest.mark.parametrize("plane", PLANES)
class TestKillAndResume:
    def test_kill_then_resume_is_bit_identical(self, tmp_path, plane):
        vx, g = fresh_run_setup()
        base = vx.run(g, PageRank(iterations=8), **plane)

        vx2, g2 = fresh_run_setup()
        site = "shard.compute" if plane else "storage.apply"
        plan = FaultPlan([FaultSpec(site=site, kind="kill", superstep=5)])
        with faults.injected(plan):
            with pytest.raises(InjectedKill):
                vx2.run(
                    g2,
                    PageRank(iterations=8),
                    checkpoint_every=2,
                    checkpoint_dir=str(tmp_path),
                    **plane,
                )
        assert plan.exhausted
        res = vx2.run(
            g2,
            PageRank(iterations=8),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            resume=True,
            **plane,
        )
        assert res.values == base.values
        assert res.stats.recovered_supersteps == 4

    def test_kill_mid_checkpoint_leaves_previous_durable(self, tmp_path, plane):
        """A kill after the snapshot is written but before ``LATEST``
        names it leaves an unreferenced directory; resume falls back to
        the previous pointer and stays bit-identical."""
        vx, g = fresh_run_setup()
        base = vx.run(g, PageRank(iterations=8), **plane)

        vx2, g2 = fresh_run_setup()
        plan = FaultPlan([FaultSpec(site="checkpoint.write", kind="kill", superstep=4)])
        with faults.injected(plan):
            with pytest.raises(InjectedKill):
                vx2.run(
                    g2,
                    PageRank(iterations=8),
                    checkpoint_every=2,
                    checkpoint_dir=str(tmp_path),
                    **plane,
                )
        # ckpt-000004 exists, unpublished: LATEST still names ckpt-000002
        with open(tmp_path / "LATEST", encoding="utf-8") as fh:
            assert fh.read().strip() == "ckpt-000002"
        res = vx2.run(
            g2,
            PageRank(iterations=8),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            resume=True,
            **plane,
        )
        assert res.values == base.values
        assert res.stats.recovered_supersteps == 2

    def test_cross_plane_resume(self, tmp_path, plane):
        """Checkpoints are plane-agnostic: kill on `plane`, resume on the
        other plane, still bit-identical (the repo's parity invariant)."""
        vx, g = fresh_run_setup()
        base = vx.run(g, PageRank(iterations=8), **plane)

        vx2, g2 = fresh_run_setup()
        site = "shard.compute" if plane else "storage.apply"
        plan = FaultPlan([FaultSpec(site=site, kind="kill", superstep=5)])
        with faults.injected(plan):
            with pytest.raises(InjectedKill):
                vx2.run(
                    g2,
                    PageRank(iterations=8),
                    checkpoint_every=2,
                    checkpoint_dir=str(tmp_path),
                    **plane,
                )
        # same partition count on both planes: bit-identity is a parity
        # guarantee *per partitioning*, not across partition counts
        other = (
            {"n_partitions": 3}
            if plane
            else {"data_plane": "shards", "n_partitions": 4}
        )
        res = vx2.run(
            g2,
            PageRank(iterations=8),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            resume=True,
            **other,
        )
        assert res.values == base.values


@pytest.mark.parametrize("plane", PLANES)
class TestRecoveredCounts:
    """A resumed or rolled-back run reports every superstep's counts as
    the uninterrupted run does: a rebuilt plane does not read the edge
    table a second time, so ``rows_in`` counts it at superstep 0 only."""

    @staticmethod
    def counts(result) -> dict[int, tuple[int, int, int]]:
        return {
            s.superstep: (s.rows_in, s.messages_in, s.vertex_updates)
            for s in result.stats.supersteps
        }

    def test_kill_and_resume(self, tmp_path, plane):
        vx, g = fresh_run_setup()
        base = self.counts(vx.run(g, PageRank(iterations=8), **plane))
        vx2, g2 = fresh_run_setup()
        site = "shard.compute" if plane else "storage.apply"
        plan = FaultPlan([FaultSpec(site=site, kind="kill", superstep=5)])
        ckpt = dict(checkpoint_every=2, checkpoint_dir=str(tmp_path), **plane)
        with faults.injected(plan):
            with pytest.raises(InjectedKill):
                vx2.run(g2, PageRank(iterations=8), **ckpt)
        resumed = self.counts(vx2.run(g2, PageRank(iterations=8), resume=True, **ckpt))
        assert min(resumed) == 4
        assert resumed == {step: base[step] for step in resumed}

    def test_rollback(self, tmp_path, plane):
        vx, g = fresh_run_setup()
        base = self.counts(vx.run(g, PageRank(iterations=8), **plane))
        vx2, g2 = fresh_run_setup()
        site = "shard.route" if plane else "storage.apply"
        plan = FaultPlan([FaultSpec(site=site, kind="transient", superstep=3)])
        with faults.injected(plan):
            result = vx2.run(
                g2,
                PageRank(iterations=8),
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
                **plane,
            )
        assert result.stats.retries == 1 and result.stats.recovered_supersteps == 2
        assert self.counts(result) == base


class TestRetryAndRollback:
    def test_transient_shard_fault_retried_in_place(self):
        vx, g = fresh_run_setup()
        base = vx.run(g, PageRank(iterations=6), data_plane="shards", n_partitions=3)
        vx2, g2 = fresh_run_setup()
        plan = FaultPlan(
            [FaultSpec(site="shard.compute", kind="transient", superstep=2, times=2)]
        )
        with faults.injected(plan):
            res = vx2.run(
                g2, PageRank(iterations=6), data_plane="shards", n_partitions=3
            )
        assert res.values == base.values
        assert res.stats.retries >= 2

    def test_transient_outside_task_seam_rolls_back_and_replays(self, tmp_path):
        vx, g = fresh_run_setup()
        base = vx.run(g, PageRank(iterations=6))
        vx2, g2 = fresh_run_setup()
        plan = FaultPlan([FaultSpec(site="storage.apply", kind="transient", superstep=3)])
        with faults.injected(plan):
            res = vx2.run(
                g2,
                PageRank(iterations=6),
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
            )
        assert res.values == base.values
        assert res.stats.retries == 1
        assert res.stats.recovered_supersteps == 2
        # replayed supersteps appear exactly once in the stats
        # (iterations=6 -> supersteps 0..6, the last detecting the halt)
        steps = [s.superstep for s in res.stats.supersteps]
        assert steps == sorted(set(steps)) == list(range(len(steps)))

    def test_deterministic_fault_fails_fast_after_rollback(self, tmp_path):
        vx, g = fresh_run_setup()
        plan = FaultPlan(
            [FaultSpec(site="storage.apply", kind="deterministic", superstep=3, times=99)]
        )
        with faults.injected(plan):
            with pytest.raises(InjectedFault) as excinfo:
                vx.run(
                    g,
                    PageRank(iterations=6),
                    checkpoint_every=2,
                    checkpoint_dir=str(tmp_path),
                )
        assert not excinfo.value.transient
        # only one firing: no retry budget was burned on a hopeless fault
        # (rollback happened, then the run failed fast)
        rows = vx.sql("SELECT id FROM g_vertex ORDER BY id").rows()
        assert len(rows) == 60  # tables rolled back to a consistent state
        res = vx.run(
            g,
            PageRank(iterations=6),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        base = Vertexica()
        gb = base.load_graph(
            "g", GRAPH.src, GRAPH.dst, weights=GRAPH.weights, num_vertices=60
        )
        assert res.values == base.run(gb, PageRank(iterations=6)).values

    def test_no_checkpointing_reraises(self):
        """Without a checkpoint policy, faults keep PR-1 crash semantics:
        propagate, tables stay consistent."""
        vx, g = fresh_run_setup()
        plan = FaultPlan([FaultSpec(site="storage.apply", kind="transient", superstep=2)])
        with faults.injected(plan):
            with pytest.raises(InjectedFault):
                vx.run(g, PageRank(iterations=6))
        rows = vx.sql("SELECT id FROM g_vertex ORDER BY id").rows()
        assert len(rows) == 60


class TestBoundaryWritesRollBack:
    """A transient fault in a write the loop makes at a superstep
    boundary (the shard plane's sync before a checkpoint, its final sync,
    or the checkpoint write itself) rolls back and replays like a fault
    inside a superstep: one retry, and the values and both run tables
    are bitwise those of an undisturbed run."""

    SHARDS = {"data_plane": "shards", "n_partitions": 3}

    @staticmethod
    def run(directory, plane, plan):
        vx, g = fresh_run_setup()
        with faults.injected(plan):
            result = vx.run(
                g,
                PageRank(iterations=6),
                checkpoint_dir=str(directory),
                **{"checkpoint_every": 1, **plane},
            )
        tables = [vx.db.table(name).data() for name in (g.vertex_table, g.message_table)]
        return result, tables

    @pytest.mark.parametrize(
        "plane,site,superstep",
        [
            # Supersteps 0..6 run; the sync before checkpoint c trips at
            # superstep c - 1, the final sync at superstep 7.  A run that
            # ends on a checkpoint makes no final sync (the checkpoint's
            # sync wrote that state), so that cell checkpoints every second
            # superstep: 7 completed is off the boundary.
            pytest.param(SHARDS, "storage.sync", 3, id="shards-boundary-sync"),
            pytest.param(
                {**SHARDS, "checkpoint_every": 2}, "storage.sync", 7, id="shards-final-sync"
            ),
            pytest.param({}, "checkpoint.write", 3, id="sql-checkpoint-write"),
            pytest.param(SHARDS, "checkpoint.write", 3, id="shards-checkpoint-write"),
        ],
    )
    def test_transient_fault_rolls_back_and_replays(self, tmp_path, plane, site, superstep):
        base, base_tables = self.run(tmp_path / "base", plane, FaultPlan([]))
        assert base.stats.n_supersteps == 7
        plan = FaultPlan([FaultSpec(site=site, kind="transient", superstep=superstep)])
        result, tables = self.run(tmp_path / "faulted", plane, plan)
        assert plan.fired == [(site, superstep, None, "transient")]
        assert result.stats.retries == 1
        assert result.values == base.values
        for table, base_table in zip(tables, base_tables):
            assert_tables_identical(table, base_table)

    @pytest.mark.parametrize("plane", PLANES)
    def test_transient_fault_in_baseline_checkpoint_raises(self, tmp_path, plane):
        """The baseline checkpoint (0 completed) has nothing to roll back
        to, so even a transient fault in it fails the run."""
        plan = FaultPlan([FaultSpec(site="checkpoint.write", kind="transient", superstep=0)])
        with pytest.raises(InjectedFault):
            self.run(tmp_path, plane, plan)


class TestManifestValidation:
    def _checkpointed_dir(self, tmp_path, program=None):
        vx, g = fresh_run_setup()
        vx.run(
            g,
            program or PageRank(iterations=4),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        return tmp_path

    def test_program_fingerprint_mismatch(self, tmp_path):
        self._checkpointed_dir(tmp_path)
        vx, g = fresh_run_setup()
        with pytest.raises(RecoveryError, match="fingerprint"):
            vx.run(
                g,
                PageRank(iterations=5),  # different parameterization
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
                resume=True,
            )

    def test_graph_mismatch(self, tmp_path):
        self._checkpointed_dir(tmp_path)
        vx = Vertexica()
        other = power_law_graph("g", 50, 200, seed=9, weighted=True)
        g = vx.load_graph("g", other.src, other.dst, weights=other.weights, num_vertices=50)
        with pytest.raises(RecoveryError, match="graph"):
            vx.run(
                g,
                PageRank(iterations=4),
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
                resume=True,
            )

    def test_unreadable_manifest(self, tmp_path):
        self._checkpointed_dir(tmp_path)
        with open(tmp_path / "LATEST", encoding="utf-8") as fh:
            name = fh.read().strip()
        (tmp_path / name / "manifest.json").write_text("{ torn")
        vx, g = fresh_run_setup()
        with pytest.raises(RecoveryError, match="unreadable"):
            vx.run(
                g,
                PageRank(iterations=4),
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
                resume=True,
            )

    def test_unreferenced_dirs_are_pruned_on_load(self, tmp_path):
        self._checkpointed_dir(tmp_path)
        torn = tmp_path / "ckpt-000099"
        torn.mkdir()
        (torn / "vertex.cols").write_bytes(b"garbage")
        vx, g = fresh_run_setup()
        vx.run(
            g,
            PageRank(iterations=4),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert not torn.exists()


class TestProgramState:
    def test_default_checkpoint_state_is_empty(self):
        prog = PageRank(iterations=3)
        assert prog.checkpoint_state() == {}
        prog.restore_state({})  # no-op, must not raise

    def test_cf_round_trips_rng_seed(self):
        prog = CollaborativeFiltering(iterations=4, rank=3, seed=11)
        state = prog.checkpoint_state()
        assert state == {"rng_seed": 11}
        prog.restore_state({"rng_seed": 13})
        assert prog.seed == 13

    def test_cf_vector_codec_resume_on_shards(self, tmp_path):
        """The hardest resume case: vector-valued vertices (rank-R factor
        rows), seeded SGD, shard plane."""
        src = np.arange(0, 60, 2, dtype=np.int64)
        dst = src + 1
        weights = 1.0 + (np.arange(30, dtype=np.float64) % 9) / 2.0
        cfg = dict(data_plane="shards", n_partitions=4)

        def setup():
            vx = Vertexica()
            g = vx.load_graph("m", src, dst, weights=weights, num_vertices=66)
            return vx, g

        vx, g = setup()
        base = vx.run(g, CollaborativeFiltering(iterations=6, rank=3, seed=11), **cfg)
        vx2, g2 = setup()
        plan = FaultPlan([FaultSpec(site="shard.compute", kind="kill", superstep=4)])
        with faults.injected(plan):
            with pytest.raises(InjectedKill):
                vx2.run(
                    g2,
                    CollaborativeFiltering(iterations=6, rank=3, seed=11),
                    checkpoint_every=2,
                    checkpoint_dir=str(tmp_path),
                    **cfg,
                )
        res = vx2.run(
            g2,
            CollaborativeFiltering(iterations=6, rank=3, seed=11),
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
            resume=True,
            **cfg,
        )
        assert res.values == base.values
