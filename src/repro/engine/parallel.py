"""Worker-execution strategies for transform UDFs and shard tasks.

The paper runs "as many workers as the number of cores".  In CPython the
GIL caps what threads buy us for pure-Python vertex programs, so the engine
offers three strategies with identical semantics:

* :func:`serial_executor` — deterministic, zero overhead; the default.
* :class:`ThreadExecutor` (via :func:`make_thread_executor`) — a real
  thread pool; useful when tasks release the GIL (numpy-heavy compute)
  and for exercising the parallel code path in the workers ablation
  benchmark.
* :class:`ProcessExecutor` — persistent **spawned worker processes**, the
  strategy that actually escapes the GIL.  Task functions and items must
  be picklable; heavyweight per-run state crosses the boundary exactly
  once through :meth:`ProcessExecutor.install` (the sharded data plane
  installs a bootstrap that attaches shared-memory segments and unpickles
  the program closure at pool start, not per superstep).

All three receive ``(fn, tasks)`` where tasks are ``(item, index)`` pairs —
record-batch partitions for transform UDFs, resident shards for the
sharded data plane — and must return outputs in task order so results
stay deterministic regardless of scheduling.

Pool-backed executors hold one pool for their whole lifetime, and that
lifetime is a *session's*: a :class:`SessionPools` (one per
``Vertexica``) owns at most one pool of each kind and lends it to one
run at a time (:meth:`SessionPools.lease`), so worker processes are
spawned once per session rather than once per run or per superstep.  A
run's own context crosses in its :meth:`ProcessExecutor.install`
bootstrap.  Both executors are context managers; exiting (or
``close()``) shuts the pool down.

Failure contract (shared): the earliest failed task's exception
propagates with a note naming the task; when sibling tasks also failed,
a second note enumerates them so secondary failures never vanish
silently.  A raised ``BaseException`` that is not an ``Exception`` (e.g.
an injected kill) takes priority — it must tear through the caller's
``except Exception`` handlers no matter which task slot it came from.

The seam is deliberately scheduler-shaped: ``install()`` broadcasts
immutable run context, ``__call__`` submits small picklable task
descriptors and gathers ordered results — exactly the shape a Ray-style
distributed scheduler needs (``install`` ≙ put-object/actor-init,
``__call__`` ≙ task submission + gather), so a remote backend can slot
in behind the same ``PartitionExecutor`` contract later.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import traceback
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "serial_executor",
    "make_thread_executor",
    "PartitionExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SessionPools",
    "NO_SESSION",
    "WorkerProcessDied",
    "RemoteTaskError",
]

PartitionExecutor = Callable[
    [Callable[[Any, int], Any], Sequence[tuple[Any, int]]],
    list[Any],
]


def serial_executor(
    fn: Callable[[Any, int], Any],
    tasks: Sequence[tuple[Any, int]],
) -> list[Any]:
    """Run tasks one after another on the calling thread."""
    return [fn(item, index) for item, index in tasks]


def _raise_with_task_context(
    failures: list[tuple[int, BaseException]], primary_note: str
) -> None:
    """Raise the primary failure from ``failures`` (task-index ordered).

    The primary is the earliest non-``Exception`` failure if any (kills
    must win), else the earliest failure.  Sibling failures are attached
    as an ``add_note`` so they never vanish silently.
    """
    index, exc = next(
        ((i, e) for i, e in failures if not isinstance(e, Exception)),
        failures[0],
    )
    exc.add_note(f"raised by parallel task {index}{primary_note}")
    siblings = [(i, e) for i, e in failures if e is not exc]
    if siblings:
        details = "; ".join(
            f"task {i}: {type(e).__name__}: {e}" for i, e in siblings
        )
        exc.add_note(f"{len(siblings)} sibling task(s) also failed: {details}")
    raise exc


class ThreadExecutor:
    """A pool-backed executor that preserves task order in its output.

    The pool is created lazily on the first multi-task call and then
    reused for every subsequent call until :meth:`close` — held by the
    session (:class:`SessionPools`), so threads are spawned once per
    session, not per run or per superstep.

    Args:
        n_threads: pool size; values below 1 are clamped to 1.
    """

    __slots__ = ("n_threads", "_pool", "_lock")

    def __init__(self, n_threads: int) -> None:
        self.n_threads = max(1, int(n_threads))
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def __call__(
        self,
        fn: Callable[[Any, int], Any],
        tasks: Sequence[tuple[Any, int]],
    ) -> list[Any]:
        if len(tasks) <= 1 or self.n_threads == 1:
            return serial_executor(fn, tasks)
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item, index) for item, index in tasks]
        # Short-circuit on the first failure instead of draining every
        # result: cancel still-queued siblings (running ones finish — a
        # thread cannot be preempted), settle the rest, then gather
        # *every* settled failure so none is lost.
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        if not any(
            future in done
            and not future.cancelled()
            and future.exception() is not None
            for future in futures
        ):
            return [future.result() for future in futures]
        for future in futures:
            future.cancel()
        wait(futures)
        failures = [
            (index, future.exception())
            for (_, index), future in zip(tasks, futures)
            if not future.cancelled() and future.exception() is not None
        ]
        _raise_with_task_context(failures, " (siblings cancelled)")

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.n_threads)
            return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent and exception-safe: the pool
        reference is detached under the lock first, so a concurrent or
        repeated close sees ``None`` and returns; queued work is
        cancelled rather than drained).  Later calls fall back to a fresh
        lazily-created pool, so a closed executor stays usable."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ThreadExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def make_thread_executor(n_threads: int) -> ThreadExecutor:
    """A persistent pool-backed executor (see :class:`ThreadExecutor`)."""
    return ThreadExecutor(n_threads)


# ---------------------------------------------------------------------------
# Process-parallel execution
# ---------------------------------------------------------------------------
class WorkerProcessDied(RuntimeError):
    """A worker process exited without delivering its task results.

    Classified transient: a dead worker is the single-machine analogue of
    a lost cluster node, which the Giraph contract answers with rollback
    and replay (the pool respawns and re-installs its bootstrap on the
    next call).
    """

    transient = True


class RemoteTaskError(RuntimeError):
    """A worker-process task failure whose original exception could not
    be pickled back; carries its ``repr`` and remote traceback instead."""

    def __init__(self, message: str, transient: bool = False) -> None:
        super().__init__(message)
        self.transient = transient


def _encode_exception(exc: BaseException) -> tuple:
    """Pickle-safe wire form of a task failure: the exception itself when
    it round-trips, else enough context to rebuild a faithful proxy.
    ``__notes__`` and the remote traceback travel out-of-band (pickling
    drops notes)."""
    notes = list(getattr(exc, "__notes__", ()))
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        payload = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)  # some exceptions pickle but fail to rebuild
        return ("pickled", payload, notes, tb)
    except Exception:
        transient = bool(getattr(exc, "transient", False))
        return ("repr", f"{type(exc).__name__}: {exc}", notes, tb, transient)


def _decode_exception(encoded: tuple) -> BaseException:
    """Rebuild a task failure shipped by :func:`_encode_exception`."""
    if encoded[0] == "pickled":
        _, payload, notes, tb = encoded
        exc = pickle.loads(payload)
    else:
        _, message, notes, tb, transient = encoded
        exc = RemoteTaskError(message, transient=transient)
    for note in notes:
        exc.add_note(note)
    exc.add_note(f"remote traceback:\n{tb.rstrip()}")
    return exc


def _process_worker_main(conn) -> None:
    """Worker-process loop: serve ``setup``/``run``/``exit`` requests.

    Module-level so it is importable in a *spawned* child (no fork
    state).  Every reply is pickled over the pipe; task exceptions —
    including ``BaseException`` kills — are captured and shipped rather
    than crashing the worker, so one poisoned task cannot take the pool
    down with it.
    """
    try:
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "exit":
                return
            if tag == "setup":
                try:
                    setup = pickle.loads(message[1])
                    setup()
                    conn.send(("ok", None))
                except BaseException as exc:  # noqa: BLE001 — shipped, not dropped
                    conn.send(("err", _encode_exception(exc)))
            elif tag == "run":
                fn_payload, batch = message[1], message[2]
                try:
                    fn = pickle.loads(fn_payload)
                except BaseException as exc:  # noqa: BLE001
                    encoded = _encode_exception(exc)
                    for _ in batch:
                        conn.send(("err", encoded))
                    continue
                for item, index in batch:
                    try:
                        conn.send(("ok", fn(item, index)))
                    except BaseException as exc:  # noqa: BLE001
                        conn.send(("err", _encode_exception(exc)))
    except (EOFError, OSError, KeyboardInterrupt):
        return  # parent went away (or interactive interrupt): just exit
    finally:
        conn.close()


class ProcessExecutor:
    """Persistent spawned worker processes behind the executor seam.

    Workers are spawned lazily on the first multi-task call (or
    :meth:`install`) and reused for every subsequent call until
    :meth:`close`.  The pool lives as long as its session
    (:class:`SessionPools`): one process spawn (plus one interpreter
    import) per session, while each run installs its own bootstrap and
    :meth:`reset`\\ s the workers when it ends.  Tasks are
    round-robin assigned in task order and each worker streams its
    results back in submission order, so output order is deterministic.

    ``fn`` and task items must be picklable for multi-task calls; ``fn``
    is pickled once per call (keep it a small descriptor — heavyweight
    run state belongs in :meth:`install`).  Single-task calls and
    single-process pools run serially in-process, where nothing needs to
    pickle.

    Args:
        n_processes: pool size; values below 1 are clamped to 1.
        mp_context: multiprocessing start method (default ``"spawn"`` —
            fork would drag arbitrary parent state into the workers and
            is unavailable on several platforms).
    """

    __slots__ = ("n_processes", "_ctx", "_workers", "_setup", "_lock")

    def __init__(self, n_processes: int, mp_context: str = "spawn") -> None:
        self.n_processes = max(1, int(n_processes))
        self._ctx = multiprocessing.get_context(mp_context)
        self._workers: list[tuple[Any, Any]] = []  # (Process, Connection)
        self._setup: bytes | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def install(self, setup: Callable[[], Any]) -> None:
        """Broadcast a zero-arg bootstrap to every worker, pickled ONCE.

        ``setup()`` runs in each worker before any subsequent task (and
        again in any worker respawned later); the sharded data plane uses
        it to unpickle the program closure, attach shared-memory
        segments, and arm the fault plan.  Raises whatever the bootstrap
        raised in a worker.

        Installing also spawns the pool eagerly when it does not exist
        yet: interpreter start-up and imports are *setup* cost, and
        paying them here keeps them off the first superstep's clock.  A
        live pool (a session's, between runs) whose worker died while it
        sat idle is respawned rather than handed to the run.
        """
        payload = pickle.dumps(setup, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._setup = payload
            workers = list(self._workers)
        if workers:
            try:
                self._broadcast(workers, payload)
                return
            except WorkerProcessDied:
                pass  # the pool is closed: respawn it below
        if self.n_processes > 1:
            self._ensure_workers()  # spawns and replays the stored setup

    def reset(self, teardown: Callable[[], Any]) -> None:
        """Hand the pool back clean: forget the installed bootstrap and
        run the zero-arg ``teardown`` in every live worker.

        Spawns nothing.  A pool with a dead worker is closed instead; the
        next call respawns it with no bootstrap.
        """
        payload = pickle.dumps(teardown, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._setup = None
            workers = list(self._workers)
        try:
            self._broadcast(workers, payload)
        except WorkerProcessDied:
            pass  # closed: the next call respawns the pool

    def __call__(
        self,
        fn: Callable[[Any, int], Any],
        tasks: Sequence[tuple[Any, int]],
    ) -> list[Any]:
        if len(tasks) <= 1 or self.n_processes == 1:
            return serial_executor(fn, tasks)
        workers = self._ensure_workers()
        fn_payload = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        batches: list[list[tuple[Any, int]]] = [[] for _ in workers]
        positions: list[list[int]] = [[] for _ in workers]
        for pos, (item, index) in enumerate(tasks):
            w = pos % len(workers)
            batches[w].append((item, index))
            positions[w].append(pos)
        for (_, conn), batch in zip(workers, batches):
            if batch:
                conn.send(("run", fn_payload, batch))

        results: list[Any] = [None] * len(tasks)
        failures: list[tuple[int, BaseException]] = []
        lost_worker = False
        for (proc, conn), batch, slots in zip(workers, batches, positions):
            alive = True
            for slot_no, (pos, (_, index)) in enumerate(zip(slots, batch)):
                if alive:
                    try:
                        tag, payload = conn.recv()
                    except (EOFError, OSError):
                        alive = False
                        lost_worker = True
                if not alive:
                    code = proc.exitcode
                    failures.append(
                        (index, WorkerProcessDied(
                            f"worker process pid={proc.pid} died "
                            f"(exitcode={code}) before finishing its tasks"
                        ))
                    )
                    continue
                if tag == "ok":
                    results[pos] = payload
                else:
                    failures.append((index, _decode_exception(payload)))
        if lost_worker:
            # The pool's pipes are no longer trustworthy; tear it down.
            # The next call respawns and replays the stored bootstrap.
            self.close()
        if failures:
            failures.sort(key=lambda pair: pair[0])
            _raise_with_task_context(failures, " (in a worker process)")
        return results

    # ------------------------------------------------------------------
    def _ensure_workers(self) -> list[tuple[Any, Any]]:
        with self._lock:
            if self._workers:
                return list(self._workers)
            setup = self._setup
            spawned: list[tuple[Any, Any]] = []
            for _ in range(self.n_processes):
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                proc = self._ctx.Process(
                    target=_process_worker_main,
                    args=(child_conn,),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                spawned.append((proc, parent_conn))
            self._workers = spawned
        if setup is not None:
            self._broadcast(spawned, setup)
        return list(spawned)

    def _broadcast(self, workers: list[tuple[Any, Any]], payload: bytes) -> None:
        """Run a pickled zero-arg callable in every worker.  Every reply
        is read before the first failure is raised, so the pipes stay in
        step for the pool's next use.

        Raises:
            WorkerProcessDied: a worker died before replying (the callable
                may have killed it).  The pool is closed first: its pipes
                are out of step, and the next call respawns it.
        """
        try:
            for _, conn in workers:
                conn.send(("setup", payload))
            replies = [conn.recv() for _, conn in workers]
        except (EOFError, OSError) as exc:
            self.close()
            raise WorkerProcessDied(
                "a worker process died while the pool broadcast its bootstrap "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        for tag, body in replies:
            if tag == "err":
                raise _decode_exception(body)

    def close(self) -> None:
        """Shut the pool down (idempotent; a closed executor stays
        usable — the next multi-task call spawns a fresh pool and
        re-installs the last bootstrap)."""
        with self._lock:
            workers, self._workers = self._workers, []
        for _, conn in workers:
            try:
                conn.send(("exit",))
            except (OSError, ValueError):
                pass
        for proc, conn in workers:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
            conn.close()

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: don't leak children
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Session-owned pools
# ---------------------------------------------------------------------------
class SessionPools:
    """The worker pools one session owns: at most one
    :class:`ProcessExecutor` and one :class:`ThreadExecutor`, kept
    between runs.

    :meth:`lease` lends the pool of a kind to one caller at a time; a
    caller that finds it lent out (a concurrent run on the same session)
    gets a private pool for the duration of its lease instead of
    waiting, so two runs never interleave on one set of pipes.
    :meth:`close` shuts the held pools down; a closed holder keeps
    working, handing every lease a private pool.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: kind -> (worker count, pool)
        self._held: dict[str, tuple[int, ThreadExecutor | ProcessExecutor]] = {}
        self._leased: set[str] = set()
        self._closed = False

    @contextmanager
    def lease(
        self, kind: str, n_workers: int
    ) -> Iterator[ThreadExecutor | ProcessExecutor]:
        """Lend the ``kind`` (``"threads"`` or ``"processes"``) pool of
        ``n_workers`` workers for the ``with`` block.

        A held pool of another size is closed and replaced.  With
        ``n_workers <= 1`` the block gets a private executor, which runs
        tasks serially and spawns nothing, and the held pool is left
        alone.  An exit through a ``BaseException`` that is not an
        ``Exception`` (an injected kill, an interrupt) closes the pool —
        it may have cut a message exchange short — and the next lease
        respawns it; so does a lost worker (:class:`ProcessExecutor`
        closes itself then).
        """
        factory = ProcessExecutor if kind == "processes" else ThreadExecutor
        stale = None
        with self._lock:
            shared = n_workers > 1 and not self._closed and kind not in self._leased
            if shared:
                self._leased.add(kind)
                size, pool = self._held.get(kind, (0, None))
                if size != n_workers:
                    stale, pool = pool, factory(n_workers)
                    self._held[kind] = (n_workers, pool)
        if not shared:
            with factory(n_workers) as private:
                yield private
            return
        try:
            if stale is not None:
                stale.close()
            yield pool
        except BaseException as exc:
            if not isinstance(exc, Exception):
                pool.close()
            raise
        finally:
            with self._lock:
                self._leased.discard(kind)
                orphaned = self._closed and self._held.pop(kind, None) is not None
            if orphaned:  # the session closed while the pool was lent out
                pool.close()

    def close(self) -> None:
        """Shut the held pools down (idempotent).  A pool lent out right
        now is shut down when its lease ends."""
        with self._lock:
            self._closed = True
            idle = [kind for kind in self._held if kind not in self._leased]
            pools = [self._held.pop(kind)[1] for kind in idle]
        for pool in pools:
            pool.close()


#: The holder of code that runs outside any session: closed, so every
#: lease is a private pool that lives as long as the lease.
NO_SESSION = SessionPools()
NO_SESSION.close()

