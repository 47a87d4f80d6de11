"""Session-owned worker pools: a ``Vertexica`` spawns its process pool
once, lends it to one run at a time, gets it back clean after every run
(faulted, killed or not), and leaves no child process or shared-memory
segment behind when the session is closed or dropped.

Executor bit-parity itself lives in ``test_batch_parity.py``; this module
covers the pool's lifetime around it.
"""

from __future__ import annotations

import gc
import multiprocessing
import operator
import os
import signal
import threading

import numpy as np
import pytest

from repro.core import Vertexica, VertexicaConfig, faults
from repro.core.faults import FaultPlan, FaultSpec, InjectedFault, InjectedKill
from repro.engine.parallel import NO_SESSION, SessionPools, serial_executor
from repro.programs import ConnectedComponents, PageRank

PROCESSES = dict(data_plane="shards", n_partitions=4, executor="processes", n_workers=2)


def load(vx: Vertexica, name: str = "g"):
    src = list(range(40)) * 2
    dst = [(i * 7 + 1) % 40 for i in range(40)] + [(i * 3 + 2) % 40 for i in range(40)]
    return vx.load_graph(name, src, dst, num_vertices=40)


def bits(values: dict) -> bytes:
    return np.array([values[k] for k in sorted(values)], dtype=np.float64).tobytes()


def worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def plane_segments() -> list[str]:
    """This process's shared-memory plane segments still in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):
        return []
    prefix = f"vxplane_{os.getpid()}_"
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


def mapped_planes(pid: int) -> list[str]:
    """Plane segments a worker process still maps (empty where ``/proc``
    is not available)."""
    try:
        with open(f"/proc/{pid}/maps") as maps:
            return [line for line in maps if "/vxplane_" in line]
    except FileNotFoundError:
        return []


class TestOneSpawnPerSession:
    def test_runs_reuse_the_worker_pids_and_hand_back_clean(self):
        with Vertexica(config=VertexicaConfig(**PROCESSES)) as vx:
            graph = load(vx)
            first = vx.run(graph, PageRank(iterations=4))
            pids = worker_pids()
            assert len(pids) == 2
            for _ in range(2):
                again = vx.run(graph, PageRank(iterations=4))
                assert worker_pids() == pids
                assert bits(again.values) == bits(first.values)
            # Between runs the idle workers map no plane: the finished run's
            # close told them to drop it, and its segments are unlinked.
            assert plane_segments() == []
            assert [mapped_planes(pid) for pid in sorted(pids)] == [[], []]

    def test_one_worker_lease_is_the_serial_executor(self):
        pools = SessionPools()
        with pools.lease(1) as executor:
            assert executor is serial_executor
        pools.close()
        assert multiprocessing.active_children() == []

    def test_single_worker_leaves_the_held_pool_alone(self):
        with Vertexica(config=VertexicaConfig(**PROCESSES)) as vx:
            graph = load(vx)
            vx.run(graph, PageRank(iterations=3))
            pids = worker_pids()
            vx.run(graph, PageRank(iterations=3), n_workers=1)
            assert worker_pids() == pids

    def test_changing_n_workers_replaces_the_pool(self):
        with Vertexica(config=VertexicaConfig(**PROCESSES)) as vx:
            graph = load(vx)
            two = vx.run(graph, PageRank(iterations=3))
            pids_two = worker_pids()
            three = vx.run(graph, PageRank(iterations=3), n_workers=3)
            pids_three = worker_pids()
            assert len(pids_two) == 2 and len(pids_three) == 3
            assert not pids_two & pids_three  # the two-worker pool is gone
            assert bits(two.values) == bits(three.values)


#: Tasks for ``operator.add``, picklable into a worker: each yields item + index.
TASKS = [(10 * i, i) for i in range(4)]
SUMS = [11 * i for i in range(4)]


class _Kill(BaseException):
    pass


class TestLease:
    """The pool holder on its own, without a session around it."""

    def test_leases_share_the_held_pool(self):
        pools = SessionPools()
        with pools.lease(2) as first:
            assert first(operator.add, TASKS) == SUMS
            pids = worker_pids()
        with pools.lease(2) as second:
            assert second is first
            assert second(operator.add, TASKS) == SUMS
            assert worker_pids() == pids
        pools.close()
        assert first._workers == []

    def test_a_nested_lease_gets_a_private_pool_closed_at_its_end(self):
        pools = SessionPools()
        with pools.lease(2) as held:
            held(operator.add, TASKS)
            with pools.lease(2) as private:
                assert private is not held
                assert private(operator.add, TASKS) == SUMS
                assert len(worker_pids()) == 4
            assert private._workers == []
            assert len(worker_pids()) == 2
        pools.close()

    def test_no_session_leases_a_private_pool_each_time(self):
        with NO_SESSION.lease(2) as first:
            assert first(operator.add, TASKS) == SUMS
        assert first._workers == []
        with NO_SESSION.lease(2) as second:
            assert second is not first
        assert multiprocessing.active_children() == []

    def test_a_kill_through_the_lease_closes_the_pool(self):
        pools = SessionPools()
        with pytest.raises(_Kill):
            with pools.lease(2) as pool:
                pool(operator.add, TASKS)
                raise _Kill()
        assert pool._workers == []
        # The holder keeps the pool object; the next use respawns it.
        with pools.lease(2) as again:
            assert again is pool
            assert again(operator.add, TASKS) == SUMS
        pools.close()

    def test_an_exception_through_the_lease_keeps_the_pool(self):
        pools = SessionPools()
        with pytest.raises(ValueError):
            with pools.lease(2) as pool:
                pool(operator.add, TASKS)
                pids = worker_pids()
                raise ValueError("a run failed")
        assert worker_pids() == pids
        pools.close()
        assert pool._workers == []

    def test_closing_while_lent_out_closes_at_the_lease_end(self):
        pools = SessionPools()
        with pools.lease(2) as pool:
            pool(operator.add, TASKS)
            pools.close()
            assert len(pool._workers) == 2  # still lent out: left running
            assert pool(operator.add, TASKS) == SUMS
        assert pool._workers == []
        assert multiprocessing.active_children() == []


class TestReleasedWithTheSession:
    def test_close(self):
        vx = Vertexica(config=VertexicaConfig(**PROCESSES))
        graph = load(vx)
        before = vx.run(graph, PageRank(iterations=3))
        assert worker_pids()
        vx.close()
        assert multiprocessing.active_children() == []
        assert plane_segments() == []
        # A closed session still runs, on a pool of the run's own.
        after = vx.run(graph, PageRank(iterations=3))
        assert bits(after.values) == bits(before.values)
        assert multiprocessing.active_children() == []

    def test_context_manager(self):
        with Vertexica(config=VertexicaConfig(**PROCESSES)) as vx:
            vx.run(load(vx), PageRank(iterations=3))
            assert worker_pids()
        assert multiprocessing.active_children() == []
        assert plane_segments() == []

    def test_del_frees_the_pool_without_the_cyclic_gc(self):
        gc.disable()
        try:
            vx = Vertexica(config=VertexicaConfig(**PROCESSES))
            vx.run(load(vx), PageRank(iterations=3))
            assert worker_pids()
            del vx
            assert multiprocessing.active_children() == []
            assert plane_segments() == []
        finally:
            gc.enable()


def _deterministic_fault(vx, graph):
    plan = FaultPlan(
        [FaultSpec(site="shard.compute", kind="deterministic", superstep=1, times=9)]
    )
    with faults.injected(plan), pytest.raises(InjectedFault):
        vx.run(graph, ConnectedComponents())


def _injected_kill(vx, graph):
    plan = FaultPlan([FaultSpec(site="shard.compute", kind="kill", superstep=1)])
    with faults.injected(plan), pytest.raises(InjectedKill):
        vx.run(graph, ConnectedComponents())
    # A kill may cut a worker exchange short: the pool went with it.
    assert multiprocessing.active_children() == []


def _killed_worker(vx, graph):
    os.kill(min(worker_pids()), signal.SIGKILL)


class TestSameSessionAfterAFailure:
    @pytest.mark.parametrize(
        "failure", [_deterministic_fault, _injected_kill, _killed_worker],
        ids=["deterministic-fault", "injected-kill", "killed-worker"],
    )
    def test_next_run_matches_a_fresh_session(self, failure):
        with Vertexica(config=VertexicaConfig(**PROCESSES)) as fresh:
            expected = fresh.run(load(fresh), ConnectedComponents())
        with Vertexica(config=VertexicaConfig(**PROCESSES)) as vx:
            graph = load(vx)
            vx.run(graph, PageRank(iterations=3))  # the pool is up before the failure
            failure(vx, graph)
            result = vx.run(graph, ConnectedComponents())
            assert result.values == expected.values
            assert len(worker_pids()) == 2
            assert plane_segments() == []


class TestConcurrentRuns:
    def test_two_threads_on_one_session_equal_the_serial_result(self):
        with Vertexica(config=VertexicaConfig(**PROCESSES)) as vx:
            graphs = [load(vx, name) for name in ("a", "b")]
            serial = vx.run(graphs[0], ConnectedComponents(), n_workers=1)
            results: dict[str, dict] = {}
            errors: list[BaseException] = []
            barrier = threading.Barrier(2)

            def run(graph) -> None:
                try:
                    barrier.wait(timeout=30)
                    results[graph.name] = vx.run(graph, ConnectedComponents()).values
                except BaseException as exc:  # noqa: BLE001 — asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(g,)) for g in graphs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert results == {"a": serial.values, "b": serial.values}
            # A run that found the pool lent out used a private one, closed
            # when it finished: only the session's pool is left.
            assert len(worker_pids()) == 2

    def test_a_run_finding_the_pool_lent_out_uses_a_private_one(self):
        with Vertexica(config=VertexicaConfig(**PROCESSES)) as vx:
            graph = load(vx)
            expected = vx.run(graph, PageRank(iterations=3))
            pids = worker_pids()
            with vx.pools.lease(2):
                private = vx.run(graph, PageRank(iterations=3))
                assert worker_pids() == pids
            assert bits(private.values) == bits(expected.values)
