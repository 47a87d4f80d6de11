"""The asyncio front door: concurrent sessions over one Vertexica.

:class:`VertexicaService` turns a single-caller :class:`Vertexica` into
a serving tier: many concurrent readers, one streaming writer, and an
event loop that never blocks on engine work.

The contract, end to end:

* **Admission** — at most ``max_concurrency`` requests execute at once;
  at most ``max_queue`` more may wait.  Beyond that the service fails
  fast with :class:`~repro.errors.AdmissionError` (marked transient, so
  ``faults.retry_call`` and client retry loops treat it as backpressure,
  not breakage).  Engine work runs on a bounded thread pool via
  ``run_in_executor``; the event loop only ever coordinates.
* **Snapshot isolation** — every read pins the versions of exactly the
  tables it depends on (:class:`~repro.serving.snapshot.Snapshot`) and
  executes against a private shadow database over the pinned immutable
  batches.  A writer streaming DML on the live database is invisible to
  in-flight reads; reads are bit-identical to a serial execution at the
  pinned versions.
* **Version-keyed caching** — results are cached under
  ``(fingerprint, pinned versions)`` (:mod:`repro.serving.cache`), so a
  repeated query/run/extraction at an unchanged version is O(1) and any
  write precisely invalidates exactly the results it staled.  Cached
  run stats carry ``served_from_cache=True``.
* **Write path** — non-SELECT statements bypass snapshots and the cache
  entirely: they execute on the live database, serialized behind an
  asyncio writer lock (the engine lock below it makes individual
  statements atomic against pinning).

Sessions (:class:`ServingSession`, from :meth:`VertexicaService.session`)
add per-session concurrency limits and counters on top — the unit a
connection handler would hold.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, Sequence, TypeVar

from repro.core.config import VertexicaConfig
from repro.core.program import VertexProgram
from repro.core.recovery import program_fingerprint
from repro.core.runner import Vertexica, VertexicaResult
from repro.core.storage import GraphHandle, GraphStorage
from repro.engine.database import Database, Result
from repro.engine.sql.ast import SelectStatement, SetOperation, referenced_tables
from repro.engine.sql.parser import parse_statement
from repro.errors import AdmissionError, ServingError, SnapshotInvalid
from repro.graphview.catalog import view_fingerprint
from repro.graphview.lowering import involved_tables
from repro.graphview.view import GraphViewHandle
from repro.serving.cache import DEFAULT_CACHE_BYTES, ResultCache, fingerprint_text
from repro.serving.metrics import ServingMetrics
from repro.serving.snapshot import Snapshot
from repro import sql_graph as _sql_graph

__all__ = ["VertexicaService", "ServingSession", "ServedResult"]

T = TypeVar("T")

#: sql_graph algorithms servable by name via :meth:`ServingSession.sql_graph`.
SQL_GRAPH_ALGORITHMS: dict[str, Callable[..., Any]] = {
    name: getattr(_sql_graph, name)
    for name in (
        "pagerank_sql",
        "shortest_paths_sql",
        "connected_components_sql",
        "triangle_count_sql",
        "per_node_triangle_counts_sql",
        "strong_overlap_sql",
        "weak_ties_sql",
        "local_clustering_coefficients",
        "global_clustering_coefficient",
    )
}


@dataclasses.dataclass(frozen=True)
class ServedResult:
    """One served read: the value, provenance, and the pinned versions.

    ``versions`` is the snapshot key the read executed at — sorted
    ``(table, uid, version)`` triples — which is exactly what a client
    needs to reproduce the read serially (the fuzz suite does) or to
    reason about staleness.  Writes come back with empty ``versions``.
    """

    value: Any
    from_cache: bool
    versions: tuple = ()


class VertexicaService:
    """Concurrent serving facade over one :class:`Vertexica` (module
    docstring has the full contract).

    Args:
        vx: the live Vertexica instance (shared with the writer).
        max_concurrency: executing-request cap (thread-pool width).
        max_queue: waiting-request cap before :class:`AdmissionError`.
        cache_bytes: result-cache budget; ``0`` disables caching.
        session_inflight: default per-session concurrent-request cap.
    """

    def __init__(
        self,
        vx: Vertexica,
        *,
        max_concurrency: int = 8,
        max_queue: int = 64,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        session_inflight: int = 4,
    ) -> None:
        if max_concurrency < 1:
            raise ServingError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ServingError("max_queue must be >= 0")
        self.vx = vx
        self.db: Database = vx.db
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.session_inflight = session_inflight
        self.cache = ResultCache(max_bytes=cache_bytes)
        self.metrics = ServingMetrics(cache=self.cache.stats)
        self._slots = asyncio.Semaphore(max_concurrency)
        self._writer_lock = asyncio.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="vertexica-serve"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "VertexicaService":
        return self

    async def __aexit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the executor down; subsequent requests are refused."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def session(self, *, max_inflight: int | None = None) -> "ServingSession":
        """A new session (use as ``async with service.session() as s:``)."""
        return ServingSession(
            self, max_inflight=max_inflight or self.session_inflight
        )

    def stats(self) -> dict[str, object]:
        """Metrics snapshot: admission, latency histograms, cache."""
        return self.metrics.summary()

    # ------------------------------------------------------------------
    # Admission + executor plumbing
    # ------------------------------------------------------------------
    @contextlib.asynccontextmanager
    async def _admitted(self):
        """Admission-controlled slot: queue-cap check, bounded wait,
        wait/serve latency accounting."""
        if self._closed:
            raise ServingError("service is closed")
        # Reject only when every slot is busy AND the wait queue is full
        # (no awaits between this check and the acquire, so the answer
        # cannot go stale under the single-threaded event loop).
        if self._slots.locked() and self.metrics.queue_depth >= self.max_queue:
            self.metrics.enqueued()
            self.metrics.dropped()
            raise AdmissionError(
                f"serving queue full ({self.max_queue} waiting); retry later"
            )
        self.metrics.enqueued()
        waited_from = perf_counter()
        try:
            await self._slots.acquire()
        except BaseException:
            self.metrics.dropped()  # cancelled while queued
            raise
        self.metrics.started(perf_counter() - waited_from)
        served_from = perf_counter()
        try:
            yield
        finally:
            self._slots.release()
            self.metrics.finished(perf_counter() - served_from)

    async def _offload(self, fn: Callable[[], T]) -> T:
        """Run blocking engine work on the bounded pool."""
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn)

    async def _serve_read(
        self,
        kind: str,
        fingerprint: Any,
        tables: Sequence[str],
        compute: Callable[[Snapshot], Any],
        *,
        cached: bool = True,
        at: Snapshot | None = None,
    ) -> ServedResult:
        """The one read path every session call funnels through:
        admit -> pin -> cache lookup -> shadow compute -> admit to cache.

        ``compute`` receives the pinned snapshot and runs on the
        executor; it must touch only the snapshot's shadow state.
        """
        async with self._admitted():
            def work() -> ServedResult:
                snap = at if at is not None else Snapshot.pin(self.db, tables)
                versions = snap.key(tables if at is not None else None)
                if not cached:
                    self.metrics.bypass()
                    return ServedResult(compute(snap), False, versions)
                key = (kind, fingerprint, versions)
                value, hit = self.cache.get_or_compute(
                    key, lambda: compute(snap), tables
                )
                return ServedResult(value, hit, versions)

            try:
                return await self._offload(work)
            except SnapshotInvalid:
                self.metrics.snapshot_invalidated()
                raise

    async def _serve_write(self, fn: Callable[[], T]) -> T:
        """Writes: admitted like everything else, serialized behind the
        writer lock, never cached (bypass counters tell the story)."""
        async with self._admitted():
            async with self._writer_lock:
                self.metrics.write()
                return await self._offload(fn)


class ServingSession:
    """One client's handle on the service: per-session inflight limits
    and counters over the shared admission control.

    Use as an async context manager; a closed session refuses requests::

        async with service.session() as s:
            r = await s.sql("SELECT COUNT(*) AS n FROM edges")
    """

    def __init__(self, service: VertexicaService, *, max_inflight: int) -> None:
        if max_inflight < 1:
            raise ServingError("max_inflight must be >= 1")
        self.service = service
        self._gate = asyncio.Semaphore(max_inflight)
        self._closed = False
        self.requests = 0
        self.cache_hits = 0

    async def __aenter__(self) -> "ServingSession":
        return self

    async def __aexit__(self, *exc: object) -> None:
        self._closed = True

    @contextlib.asynccontextmanager
    async def _request(self):
        if self._closed:
            raise ServingError("session is closed")
        async with self._gate:
            self.requests += 1
            yield

    def _count(self, served: ServedResult) -> ServedResult:
        if served.from_cache:
            self.cache_hits += 1
        return served

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    async def sql(
        self,
        statement: str,
        params: Sequence[Any] | None = None,
        *,
        cached: bool = True,
        at: Snapshot | None = None,
    ) -> ServedResult:
        """Serve one SQL statement.

        SELECTs pin the tables they reference and run on a shadow
        (snapshot-isolated, cache-eligible); everything else takes the
        serialized write path against the live database.  ``at`` pins a
        SELECT to an existing snapshot (repeatable reads across calls).
        """
        svc = self.service
        stmt = parse_statement(statement, params)
        async with self._request():
            if not isinstance(stmt, (SelectStatement, SetOperation)):
                if at is not None:
                    raise ServingError("writes cannot run against a snapshot")
                result = await svc._serve_write(
                    lambda: svc.db.execute(statement, params)
                )
                return ServedResult(result, False)
            tables = sorted(referenced_tables(stmt))
            served = await svc._serve_read(
                "sql",
                fingerprint_text(statement, list(params or ())),
                tables,
                lambda snap: snap.reader(tables).execute(statement, params),
                cached=cached,
                at=at,
            )
            return self._count(served)

    async def run(
        self,
        graph: GraphHandle | str,
        program: VertexProgram,
        *,
        cached: bool = True,
        **overrides: Any,
    ) -> VertexicaResult:
        """Run a vertex program at a pinned snapshot of the graph's
        edge/node tables, serving repeats from the cache.

        A fresh shadow Vertexica executes each miss, so the live
        database never sees the run's vertex/message/output tables and
        concurrent DML never sees a half-done run.  The shadow leases
        the live session's worker pool, so misses with ``n_workers > 1``
        spawn workers once per session, not per miss (a miss that finds
        the pool lent out runs on a private one).
        Cache hits return a result whose stats carry
        ``served_from_cache=True``.
        """
        svc = self.service
        name = graph if isinstance(graph, str) else graph.name
        config = (
            svc.vx.config.with_overrides(**overrides) if overrides else svc.vx.config
        )
        tables = [f"{name}_edge", f"{name}_node"]

        def compute(snap: Snapshot) -> VertexicaResult:
            shadow_vx = Vertexica(db=snap.reader(tables), config=config, pools=svc.vx.pools)
            return shadow_vx.run(name, program)

        async with self._request():
            served = await svc._serve_read(
                "run",
                (name, program_fingerprint(program),
                 fingerprint_text(dataclasses.asdict(config))),
                tables,
                compute,
                cached=cached,
            )
        self._count(served)
        result: VertexicaResult = served.value
        if not served.from_cache:
            return result
        stats = dataclasses.replace(
            result.stats,
            supersteps=[
                dataclasses.replace(s, served_from_cache=True)
                for s in result.stats.supersteps
            ],
            served_from_cache=True,
        )
        return VertexicaResult(values=dict(result.values), stats=stats)

    async def one_hop(
        self, graph: GraphHandle | str, vertex: int, *, cached: bool = True
    ) -> ServedResult:
        """The out-neighbors of one vertex at a pinned snapshot — the
        classic point-read a serving tier exists for.  Value is a sorted
        list of neighbor ids."""
        svc = self.service
        name = graph if isinstance(graph, str) else graph.name
        edge_table = f"{name}_edge"

        def compute(snap: Snapshot) -> list[int]:
            result = snap.reader([edge_table]).execute(
                f"SELECT dst FROM {edge_table} WHERE src = ? ORDER BY dst",
                [int(vertex)],
            )
            return [int(v) for v in result.batch.column("dst").values]

        async with self._request():
            served = await svc._serve_read(
                "one_hop", (name, int(vertex)), [edge_table], compute, cached=cached
            )
            return self._count(served)

    async def sql_graph(
        self, algorithm: str, graph: GraphHandle | str, *, cached: bool = True,
        **kwargs: Any,
    ) -> ServedResult:
        """Serve a :mod:`repro.sql_graph` algorithm by name (e.g.
        ``"triangle_count_sql"``, ``"pagerank_sql"``) at a pinned
        snapshot.  Scratch tables land in the shadow, never the live db.
        """
        svc = self.service
        fn = SQL_GRAPH_ALGORITHMS.get(algorithm)
        if fn is None:
            raise ServingError(
                f"unknown sql_graph algorithm {algorithm!r}; "
                f"one of {sorted(SQL_GRAPH_ALGORITHMS)}"
            )
        name = graph if isinstance(graph, str) else graph.name
        tables = [f"{name}_edge", f"{name}_node"]

        def compute(snap: Snapshot) -> Any:
            shadow = snap.reader(tables)
            handle = GraphStorage(shadow).handle(name)
            return fn(shadow, handle, **kwargs)

        async with self._request():
            served = await svc._serve_read(
                "sql_graph",
                (algorithm, name, fingerprint_text(kwargs)),
                tables,
                compute,
                cached=cached,
            )
            return self._count(served)

    async def extract_view(
        self, name: str, *, cached: bool = True
    ) -> ServedResult:
        """Extract a declared graph view at a pinned snapshot of its
        base tables, cached by ``(view fingerprint, base versions)``.

        Value is a dict with the extracted ``num_vertices`` /
        ``num_edges`` and the edge table as a :class:`Result` — the
        cacheable serving unit GraphGen-style workloads repeat.
        """
        svc = self.service
        handle = svc.vx.graph_view(name)  # GraphViewError if undeclared
        view = handle.view
        tables = sorted(involved_tables(view))

        def compute(snap: Snapshot) -> dict[str, Any]:
            shadow = snap.reader(tables)
            extracted = GraphViewHandle(
                shadow, GraphStorage(shadow), name, view, materialized=False
            ).resolve()
            edges = shadow.execute(
                f"SELECT src, dst, weight FROM {extracted.edge_table} "
                f"ORDER BY src, dst"
            )
            return {
                "num_vertices": extracted.num_vertices,
                "num_edges": extracted.num_edges,
                "edges": edges,
            }

        async with self._request():
            served = await svc._serve_read(
                "view", view_fingerprint(view), tables, compute, cached=cached
            )
            return self._count(served)

    # ------------------------------------------------------------------
    # Snapshots and writes
    # ------------------------------------------------------------------
    async def snapshot(self, tables: Sequence[str] | None = None) -> Snapshot:
        """Pin a snapshot for repeatable reads (pass to ``sql(at=...)``)."""
        svc = self.service
        async with self._request():
            return await svc._offload(lambda: Snapshot.pin(svc.db, tables))

    async def execute_write(self, statement: str,
                            params: Sequence[Any] | None = None) -> Result:
        """Explicit write-path escape hatch (no parse-based routing)."""
        svc = self.service
        async with self._request():
            return await svc._serve_write(lambda: svc.db.execute(statement, params))
