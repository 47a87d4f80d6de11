"""The process-parallel shard plane: shared-memory plumbing, fault-plan
propagation into worker processes, and config gating.

Bit-parity of worker processes against serial execution for every
shipped program lives in ``test_batch_parity.py``; this module
covers the machinery around it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.core import Vertexica, VertexicaConfig, faults
from repro.core.faults import FaultPlan, FaultSpec, InjectedFault, InjectedKill
from repro.core.shards import ShardedDataPlane
from repro.core.shmem import SharedArrayGroup
from repro.engine.parallel import ProcessExecutor
from repro.errors import VertexicaError
from repro.programs import PageRank


def _graph(vx: Vertexica, name: str = "g"):
    src = [i for i in range(40)] * 2
    dst = [(i * 7 + 1) % 40 for i in range(40)] + [(i * 3 + 2) % 40 for i in range(40)]
    return vx.load_graph(name, src, dst, num_vertices=40)


class TestSharedArrayGroup:
    def test_create_attach_round_trip(self):
        arrays = {
            "ids": np.arange(10, dtype=np.int64),
            "flags": np.array([True, False] * 5),
            "vals": np.linspace(0, 1, 20).reshape(10, 2),
        }
        group = SharedArrayGroup.create("vxtest", arrays)
        try:
            other = SharedArrayGroup.attach(group.descriptor)
            try:
                for field, array in arrays.items():
                    np.testing.assert_array_equal(other.arrays[field], array)
                # writes through one mapping are visible through the other
                group.arrays["ids"][0] = 99
                assert other.arrays["ids"][0] == 99
            finally:
                other.close()
        finally:
            group.unlink()

    def test_descriptor_pickles(self):
        group = SharedArrayGroup.create("vxtest", {"a": np.zeros(3)})
        try:
            descriptor = pickle.loads(pickle.dumps(group.descriptor))
            assert descriptor == group.descriptor
        finally:
            group.unlink()

    def test_object_dtype_rejected(self):
        with pytest.raises(ValueError, match="object dtype"):
            SharedArrayGroup.create("vxtest", {"bad": np.array(["x", "y"], dtype=object)})

    def test_empty_arrays_supported(self):
        group = SharedArrayGroup.create("vxtest", {"e": np.empty(0, dtype=np.int64)})
        try:
            assert len(group.arrays["e"]) == 0
        finally:
            group.unlink()

    def test_unlink_idempotent(self):
        group = SharedArrayGroup.create("vxtest", {"a": np.ones(4)})
        group.unlink()
        group.unlink()  # second unlink: no error


class TestInjectedExceptionPickling:
    """Faults raised inside a worker process cross the pipe by pickle;
    the injected exception types must round-trip with their metadata
    (the default exception reduce re-calls ``cls(formatted_message)``,
    which their keyword-only constructors reject)."""

    def test_injected_fault_round_trip(self):
        exc = InjectedFault("shard.compute", superstep=3, shard=1, transient=True)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, InjectedFault)
        assert (clone.site, clone.superstep, clone.shard, clone.transient) == (
            "shard.compute", 3, 1, True,
        )
        assert faults.is_transient(clone)

    def test_injected_kill_round_trip(self):
        exc = InjectedKill("storage.sync", superstep=2, shard=None)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, InjectedKill)
        assert not isinstance(clone, Exception)  # still tears through handlers
        assert (clone.site, clone.superstep) == ("storage.sync", 2)


class TestFaultPlanInWorkers:
    def test_transient_fault_trips_inside_worker_and_retries(self, vx):
        """The armed plan travels with the plane bootstrap, so a
        ``shard.compute`` fault fires inside the worker *process*; the
        in-task retry absorbs it and the run stays bit-identical."""
        g = _graph(vx)
        clean = vx.run(g, PageRank(iterations=4), data_plane="shards")
        plan = FaultPlan(
            [FaultSpec(site="shard.compute", kind="transient", superstep=2, times=1)]
        )
        with faults.injected(plan):
            faulted = vx.run(
                g, PageRank(iterations=4), data_plane="shards",
                n_workers=2, executor="processes", task_retries=2,
            )
        assert faulted.stats.retries >= 1
        assert clean.values == faulted.values

    def test_kill_inside_worker_tears_through(self, vx):
        g = _graph(vx)
        plan = FaultPlan([FaultSpec(site="shard.compute", kind="kill", superstep=1)])
        with faults.injected(plan):
            with pytest.raises(InjectedKill):
                vx.run(
                    g, PageRank(iterations=4), data_plane="shards",
                    n_workers=2, executor="processes", task_retries=2,
                )

    def test_deterministic_fault_fails_fast(self, vx):
        g = _graph(vx)
        plan = FaultPlan(
            [FaultSpec(site="shard.compute", kind="deterministic", superstep=1, times=9)]
        )
        with faults.injected(plan):
            with pytest.raises(InjectedFault) as excinfo:
                vx.run(
                    g, PageRank(iterations=4), data_plane="shards",
                    n_workers=2, executor="processes", task_retries=2,
                )
        assert not faults.is_transient(excinfo.value)


def _plane_segments() -> list[str]:
    """This process's plane segments still named in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):
        return []
    prefix = f"vxplane_{os.getpid()}_"
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


class TestFailedInstall:
    """A plane bind whose ``install`` raises unlinks the shard segments it
    created: nothing else has recorded them yet, so neither the run's
    clean-up nor closing the session would."""

    CONFIG = dict(data_plane="shards", n_partitions=4, executor="processes", n_workers=2)

    def test_first_bind(self, monkeypatch):
        def broken(executor, setup):
            raise RuntimeError("install failed")

        monkeypatch.setattr(ProcessExecutor, "install", broken)
        vx = Vertexica(config=VertexicaConfig(**self.CONFIG))
        try:
            graph = _graph(vx)
            with pytest.raises(RuntimeError, match="install failed"):
                vx.run(graph, PageRank(iterations=3))
            assert _plane_segments() == []
        finally:
            vx.close()
        assert _plane_segments() == []

    def test_rollback_rebuild(self, monkeypatch, tmp_path):
        # Superstep 1 fails transiently once; the rollback rebuilds the
        # plane, and that second install raises after the workers took it.
        install = ProcessExecutor.install
        installs = []

        def second_fails(executor, setup):
            installs.append(setup)
            install(executor, setup)
            if len(installs) == 2:
                raise RuntimeError("install failed")

        step = ShardedDataPlane.run_superstep
        tripped = []

        def fails_once(plane, superstep, *args, **kwargs):
            if superstep == 1 and not tripped:
                tripped.append(superstep)
                raise InjectedFault("shard.compute", superstep=1, shard=0, transient=True)
            return step(plane, superstep, *args, **kwargs)

        monkeypatch.setattr(ProcessExecutor, "install", second_fails)
        monkeypatch.setattr(ShardedDataPlane, "run_superstep", fails_once)
        vx = Vertexica(
            config=VertexicaConfig(
                **self.CONFIG, checkpoint_every=1, checkpoint_dir=str(tmp_path)
            )
        )
        try:
            graph = _graph(vx)
            with pytest.raises(RuntimeError, match="install failed"):
                vx.run(graph, PageRank(iterations=3))
            assert tripped and len(installs) == 2
            assert _plane_segments() == []
        finally:
            vx.close()
        assert _plane_segments() == []


class TestExecutorConfig:
    def test_unknown_executor_rejected(self):
        with pytest.raises(VertexicaError, match="executor"):
            VertexicaConfig(executor="fibers").validated()

    @pytest.mark.parametrize(
        "removed,replacement", [("auto", "'processes'"), ("serial", "n_workers=1")]
    )
    def test_removed_executor_values_name_their_replacement(self, removed, replacement):
        with pytest.raises(VertexicaError, match=replacement):
            VertexicaConfig(executor=removed).validated()

    def test_single_worker_processes_degrades_to_serial(self, vx):
        """``n_workers=1`` under ``executor='processes'`` must not spawn
        anything (the lease hands out the serial executor) and still be
        correct."""
        g = _graph(vx)
        base = vx.run(g, PageRank(iterations=3), data_plane="shards")
        one = vx.run(g, PageRank(iterations=3), data_plane="shards",
                     executor="processes", n_workers=1)
        assert base.values == one.values
        assert multiprocessing.active_children() == []

    def test_more_workers_than_shards(self, vx):
        """Three worker processes over two shards: one worker idles every
        superstep, the result is unchanged, and the pool stays in step
        across runs."""
        g = _graph(vx)
        base = vx.run(g, PageRank(iterations=3), data_plane="shards", n_partitions=2)
        for _ in range(2):
            wide = vx.run(g, PageRank(iterations=3), data_plane="shards", n_partitions=2,
                          executor="processes", n_workers=3)
            assert wide.values == base.values
            assert len(multiprocessing.active_children()) == 3

