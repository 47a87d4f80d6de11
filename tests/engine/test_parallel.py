"""Executor contracts: the serial executor, and the process-pool
executor's ordering, bootstrap and failure handling (first-failure
propagation with task context, sibling failures noted) and its
idempotent, concurrency-safe close."""

from __future__ import annotations

import os
import threading

import pytest

from repro.engine.parallel import (
    ProcessExecutor,
    RemoteTaskError,
    WorkerProcessDied,
    serial_executor,
)


class TestSerialExecutor:
    def test_order_preserved(self):
        out = serial_executor(lambda item, index: item * 10 + index, [(1, 0), (2, 1)])
        assert out == [10, 21]

    def test_exception_propagates(self):
        def boom(item, index):
            raise ValueError(f"task {index}")

        with pytest.raises(ValueError, match="task 0"):
            serial_executor(boom, [(None, 0), (None, 1)])

    def test_stops_at_the_first_failure(self):
        ran = []

        def boom_at_one(item, index):
            ran.append(index)
            if index == 1:
                raise ValueError("task 1")
            return item

        with pytest.raises(ValueError, match="task 1"):
            serial_executor(boom_at_one, [(i, i) for i in range(4)])
        assert ran == [0, 1]  # later tasks never start


# ---------------------------------------------------------------------------
# ProcessExecutor: spawned workers need module-level (picklable) helpers
# ---------------------------------------------------------------------------
_BOOT_VALUE: int | None = None


def _mul(item, index):
    return item * 10 + index


class _SetBootValue:
    """A picklable bootstrap: records a value in the worker's module."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __call__(self) -> None:
        global _BOOT_VALUE
        _BOOT_VALUE = self.value


def _read_boot_value(item, index):
    return (os.getpid(), _BOOT_VALUE)


def _boom_at(item, index):
    if index in (2, 3):
        raise ValueError(f"remote task {index} exploded")
    return item


class _TestKill(BaseException):
    pass


class _UnpicklableFailure(Exception):
    """A task failure that cannot cross the pipe: it holds a lock."""

    transient = True

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_unpicklable(item, index):
    raise _UnpicklableFailure(f"task {index} holds a lock")


def _kill_at(item, index):
    if index == 1:
        raise _TestKill("killed")
    return item


def _die_at(item, index):
    if index == 1:
        os._exit(3)  # simulate a crashed worker: no reply, no cleanup
    return item


class _DieOnce:
    """A picklable bootstrap that kills the first worker to run it (the
    one that creates ``marker``) and sets the boot value in every other."""

    def __init__(self, marker: str, value: int) -> None:
        self.marker = marker
        self.value = value

    def __call__(self) -> None:
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            _SetBootValue(self.value)()
            return
        os._exit(4)  # a worker lost mid-bootstrap: no reply, no cleanup


class TestProcessExecutor:
    def test_order_preserved_across_processes(self):
        with ProcessExecutor(2) as ex:
            tasks = [(i, i) for i in range(8)]
            assert ex(_mul, tasks) == [i * 10 + i for i in range(8)]
            # pool is persistent: a second call reuses the same workers
            assert ex(_mul, tasks) == [i * 10 + i for i in range(8)]
        assert ex._workers == []  # leaving the block closed the pool

    def test_single_task_runs_in_process(self):
        """Serial fallback: nothing pickles, so even closures work."""
        with ProcessExecutor(4) as ex:
            marker = object()
            assert ex(lambda item, index: item, [(marker, 0)]) == [marker]

    def test_install_runs_in_every_worker(self):
        with ProcessExecutor(2) as ex:
            ex.install(_SetBootValue(42))
            out = ex(_read_boot_value, [(None, i) for i in range(8)])
            pids = {pid for pid, _ in out}
            assert len(pids) == 2  # both workers took tasks
            assert all(value == 42 for _, value in out)
            # a re-install (e.g. after a plane rebuild) replaces the state
            ex.install(_SetBootValue(7))
            out = ex(_read_boot_value, [(None, i) for i in range(8)])
            assert all(value == 7 for _, value in out)

    def test_install_before_spawn_replays_at_start(self):
        with ProcessExecutor(2) as ex:
            ex.install(_SetBootValue(13))  # no workers yet: stored only
            out = ex(_read_boot_value, [(None, i) for i in range(4)])
            assert all(value == 13 for _, value in out)

    def test_remote_failure_carries_context(self):
        with ProcessExecutor(2) as ex:
            with pytest.raises(ValueError, match="remote task 2 exploded") as excinfo:
                ex(_boom_at, [(i, i) for i in range(6)])
            notes = "\n".join(getattr(excinfo.value, "__notes__", []))
            assert "parallel task 2 (in a worker process)" in notes
            assert "remote traceback" in notes
            # the second failure (task 3) is enumerated, not dropped
            assert "sibling task(s) also failed" in notes
            assert "remote task 3 exploded" in notes
            # the pool survives a task failure
            assert ex(_mul, [(i, i) for i in range(4)]) == [0, 11, 22, 33]

    def test_base_exception_kill_wins_and_crosses(self):
        """A non-Exception BaseException (an injected kill) raised inside
        a worker must come back as-is and take priority."""
        with ProcessExecutor(2) as ex:
            with pytest.raises(_TestKill):
                ex(_kill_at, [(i, i) for i in range(4)])

    def test_dead_worker_is_transient_and_pool_recovers(self):
        from repro.core import faults

        with ProcessExecutor(2) as ex:
            ex.install(_SetBootValue(99))
            with pytest.raises(WorkerProcessDied) as excinfo:
                ex(_die_at, [(i, i) for i in range(4)])
            assert faults.is_transient(excinfo.value)
            # next call respawns the pool and replays the bootstrap
            out = ex(_read_boot_value, [(None, i) for i in range(4)])
            assert all(value == 99 for _, value in out)

    def test_worker_dying_in_bootstrap_is_transient_and_respawns(self, tmp_path):
        from repro.core import faults

        with ProcessExecutor(2) as ex:
            with pytest.raises(WorkerProcessDied, match="bootstrap") as excinfo:
                ex.install(_DieOnce(str(tmp_path / "spawn"), 5))
            assert faults.is_transient(excinfo.value)
            assert ex._workers == []  # closed: no dead pipe is kept
            # The next call respawns the pool and replays the bootstrap.
            out = ex(_read_boot_value, [(None, i) for i in range(4)])
            assert all(value == 5 for _, value in out)

    def test_worker_dying_in_a_reinstall_respawns_in_place(self, tmp_path):
        with ProcessExecutor(2) as ex:
            ex.install(_SetBootValue(1))
            before = {pid for pid, _ in ex(_read_boot_value, [(None, i) for i in range(4)])}
            # A live pool loses a worker to the new bootstrap: install
            # closes it, respawns, and the replay succeeds.
            ex.install(_DieOnce(str(tmp_path / "live"), 6))
            out = ex(_read_boot_value, [(None, i) for i in range(4)])
            assert all(value == 6 for _, value in out)
            assert not before & {pid for pid, _ in out}

    def test_close_is_idempotent_and_reusable(self):
        ex = ProcessExecutor(2)
        try:
            assert ex(_mul, [(1, 0), (2, 1)]) == [10, 21]
            ex.close()
            ex.close()
            assert ex(_mul, [(1, 0), (2, 1)]) == [10, 21]  # fresh pool
        finally:
            ex.close()

    def test_concurrent_close_is_safe(self):
        ex = ProcessExecutor(2)
        ex(_mul, [(1, 0), (2, 1)])  # force the spawn
        closers = [threading.Thread(target=ex.close) for _ in range(4)]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join(timeout=30)
        assert not any(closer.is_alive() for closer in closers)
        assert ex._workers == []

    def test_more_processes_than_tasks(self):
        # The third worker gets no batch; its pipe must stay in step for
        # the next call, which gives it one.
        with ProcessExecutor(3) as ex:
            assert ex(_mul, [(1, 0), (2, 1)]) == [10, 21]
            assert len(ex._workers) == 3
            tasks = [(i, i) for i in range(7)]
            assert ex(_mul, tasks) == [i * 10 + i for i in range(7)]

    def test_single_process_pool_never_spawns(self):
        """One process means serial execution in-process: install only
        stores the bootstrap, and even closures run."""
        with ProcessExecutor(1) as ex:
            ex.install(_SetBootValue(3))
            assert ex(lambda item, index: item + index, [(1, 0), (2, 1), (3, 2)]) == [1, 3, 5]
            assert ex._workers == []

    def test_reset_runs_teardown_and_forgets_the_bootstrap(self):
        with ProcessExecutor(2) as ex:
            ex.install(_SetBootValue(8))
            before = ex(_read_boot_value, [(None, i) for i in range(4)])
            assert {value for _, value in before} == {8}
            ex.reset(_SetBootValue(0))
            after = ex(_read_boot_value, [(None, i) for i in range(4)])
            # Same workers, torn down in place.
            assert {pid for pid, _ in after} == {pid for pid, _ in before}
            assert {value for _, value in after} == {0}
            # A respawned pool replays no bootstrap.
            ex.close()
            fresh = ex(_read_boot_value, [(None, i) for i in range(4)])
            assert {value for _, value in fresh} == {None}

    def test_reset_spawns_nothing(self):
        ex = ProcessExecutor(2)
        ex.reset(_SetBootValue(0))
        assert ex._workers == []

    def test_unpicklable_failure_comes_back_as_a_remote_task_error(self):
        from repro.core import faults

        with ProcessExecutor(2) as ex:
            with pytest.raises(RemoteTaskError, match="_UnpicklableFailure: task 0") as excinfo:
                ex(_raise_unpicklable, [(None, i) for i in range(2)])
            # The transient flag survives the proxy; so does the remote trace.
            assert faults.is_transient(excinfo.value)
            notes = "\n".join(getattr(excinfo.value, "__notes__", []))
            assert "remote traceback" in notes and "holds a lock" in notes
            assert ex(_mul, [(1, 0), (2, 1)]) == [10, 21]  # the pool survives
