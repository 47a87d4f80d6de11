"""Executor error handling: first-failure propagation with task context,
sibling cancellation, idempotent/exception-safe close — and the
process-pool executor's ordering, bootstrap, and failure contracts."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.engine.parallel import (
    ProcessExecutor,
    ThreadExecutor,
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


class TestThreadExecutor:
    def test_order_preserved_across_threads(self):
        ex = ThreadExecutor(4)
        try:
            tasks = [(i, i) for i in range(16)]

            def jittered(item, index):
                time.sleep(0.001 * ((7 - index) % 8))
                return item * 2

            assert ex(jittered, tasks) == [i * 2 for i in range(16)]
        finally:
            ex.close()

    def test_first_failed_task_wins_with_context(self):
        """The earliest (task-order) failure is what propagates, with a
        note naming the failed task."""
        ex = ThreadExecutor(4)
        try:
            def boom(item, index):
                if index == 1:
                    raise RuntimeError("shard exploded")
                return item

            with pytest.raises(RuntimeError, match="shard exploded") as excinfo:
                ex(boom, [(i, i) for i in range(8)])
            notes = getattr(excinfo.value, "__notes__", [])
            assert any("parallel task 1" in note for note in notes)
        finally:
            ex.close()

    def test_failure_cancels_queued_siblings(self):
        """With a single worker thread, a failure in the first task must
        prevent queued siblings from ever starting."""
        ex = ThreadExecutor(1)
        ran: list[int] = []
        try:
            def boom_first(item, index):
                ran.append(index)
                if index == 0:
                    raise RuntimeError("first task fails")
                return item

            with pytest.raises(RuntimeError):
                ex(boom_first, [(i, i) for i in range(6)])
            # task 0 ran and failed; at most one sibling squeezed in
            # before the cancellation took effect
            assert 0 in ran
            assert len(ran) <= 2
        finally:
            ex.close()

    def test_sibling_failures_are_noted(self):
        """Regression: when several tasks fail, only the first used to be
        retrieved — the rest were silently dropped with their futures.
        Now the primary failure carries a note enumerating its siblings."""
        barrier = threading.Barrier(2)
        ex = ThreadExecutor(2)
        try:
            def boom_both(item, index):
                barrier.wait(timeout=5)  # both tasks are mid-flight: neither cancellable
                raise RuntimeError(f"failure {index}")

            with pytest.raises(RuntimeError, match="failure 0") as excinfo:
                ex(boom_both, [(None, 0), (None, 1)])
            notes = "\n".join(getattr(excinfo.value, "__notes__", []))
            assert "parallel task 0" in notes
            assert "1 sibling task(s) also failed" in notes
            assert "RuntimeError: failure 1" in notes
        finally:
            ex.close()

    def test_close_is_idempotent(self):
        ex = ThreadExecutor(2)
        ex([].__class__, [])  # no-op call, no pool yet
        ex.close()
        ex.close()  # second close: no error

    def test_usable_after_close(self):
        ex = ThreadExecutor(2)
        try:
            assert ex(lambda item, index: item + index, [(1, 0), (2, 1)]) == [1, 3]
            ex.close()
            assert ex(lambda item, index: item + index, [(1, 0), (2, 1)]) == [1, 3]
        finally:
            ex.close()

    def test_concurrent_close_is_safe(self):
        ex = ThreadExecutor(2)
        ex(lambda item, index: item, [(1, 0), (2, 1)])  # force pool creation
        threads = [threading.Thread(target=ex.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_context_manager_closes(self):
        with ThreadExecutor(2) as ex:
            assert ex(lambda item, index: item, [(1, 0), (2, 1)]) == [1, 2]
        ex.close()  # already closed by __exit__; still safe


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
