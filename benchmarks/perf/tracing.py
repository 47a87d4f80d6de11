"""Span tracing installed from the benchmark's own files.

``TARGETS`` is the declarative wrap table: each row names one function of
one layer and the per-layer metric its spans feed.  ``Tracer.install``
replaces each target with a wrapper that records a span (metric, start,
end, parent, op) in memory; nothing under ``src/`` is edited.  A target
that no longer exists is skipped and reported in ``Tracer.missing`` — the
end-to-end numbers never depend on a wrap target.

A span's *self time* is its duration minus the part its child spans
cover.  The span a call nests under travels in a context variable, so
spans nest per thread and per asyncio task; the benchmark opens one root
span per op.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, metric fed by span durations, metric fed by span self times)
# A module-level function is wrapped where the calling module looks it up.
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.core.runner", "Vertexica.load_graph", "runner.load_graph_s", None),
    ("repro.core.runner", "Vertexica.create_graph_view", "runner.create_graph_view_s", None),
    ("repro.core.runner", "Vertexica.run", "runner.run_s", "runner.run_self_s"),
    ("repro.core.storage", "GraphStorage.read_values", "runner.read_values_s", None),
    ("repro.core.coordinator", "Coordinator.run", "coordinator.run_s", "coordinator.self_s"),
    ("repro.core.storage", "GraphStorage.load_graph", "storage.load_graph_s", None),
    ("repro.core.storage", "GraphStorage.replace_graph", "storage.replace_graph_s", None),
    ("repro.core.storage", "GraphStorage.setup_run", "storage.setup_run_s", None),
    ("repro.core.storage", "GraphStorage.stage_worker_output", "storage.stage_s", None),
    ("repro.core.storage", "GraphStorage.apply_vertex_updates", "storage.apply_updates_s", None),
    ("repro.core.storage", "GraphStorage.apply_messages", "storage.apply_messages_s", None),
    ("repro.core.storage", "GraphStorage.reduce_aggregators", "storage.reduce_aggregators_s", None),
    ("repro.core.storage", "GraphStorage.pending_messages", "storage.poll_s", None),
    ("repro.core.storage", "GraphStorage.active_vertices", "storage.poll_s", None),
    ("repro.core.storage", "GraphStorage.count_staged", "storage.poll_s", None),
    ("repro.core.storage", "GraphStorage.sync_vertex_state", "storage.sync_s", None),
    ("repro.core.storage", "GraphStorage.sync_message_state", "storage.sync_s", None),
    ("repro.engine.database", "Database.execute", "engine.execute_s", None),
    ("repro.engine.database", "Database.query_batch", "engine.query_batch_s", None),
    ("repro.engine.database", "Database.insert_batch", "engine.insert_batch_s", None),
    ("repro.engine.database", "Database.run_transform", "engine.run_transform_s",
     "engine.run_transform_self_s"),
    ("repro.core.worker", "VertexWorker.__call__", "worker.call_s", "worker.decode_self_s"),
    ("repro.core.worker", "VertexWorker.compute_decoded", "worker.compute_s", None),
    ("repro.core.shards", "ShardedDataPlane.__init__", "shards.build_s", None),
    ("repro.core.shards", "ShardedDataPlane.bind_executor", "shards.bind_executor_s", None),
    ("repro.core.shards", "ShardedDataPlane.run_superstep", "shards.run_superstep_s",
     "shards.run_superstep_self_s"),
    ("repro.core.shards", "ShardedDataPlane.sync_tables", "shards.sync_tables_s", None),
    ("repro.core.shards", "ShardedDataPlane.close", "shards.close_s", None),
    ("repro.engine.parallel", "ProcessExecutor.install", "parallel.start_s", None),
    ("repro.engine.parallel", "ProcessExecutor.__call__", "parallel.call_s", None),
    ("repro.engine.parallel", "ProcessExecutor.close", "parallel.close_s", None),
    ("repro.graphview.view", "GraphViewHandle.refresh", "graphview.refresh_s",
     "graphview.refresh_self_s"),
    ("repro.graphview.view", "GraphViewHandle.resolve", "graphview.resolve_s", None),
    ("repro.graphview.view", "lower_view", "graphview.lower_s", None),
    ("repro.graphview.maintenance", "build_state", "graphview.build_state_s", None),
    ("repro.graphview.maintenance", "incremental_refresh", "graphview.refresh_incremental_s",
     None),
    ("repro.serving.service", "ServingSession.run", "serving.request_s", "serving.request_self_s"),
    ("repro.serving.service", "ServingSession.sql", "serving.request_s", "serving.request_self_s"),
    ("repro.serving.service", "ServingSession.one_hop", "serving.request_s",
     "serving.request_self_s"),
    ("repro.serving.service", "ServingSession.execute_write", "serving.request_s",
     "serving.request_self_s"),
    ("repro.serving.snapshot", "Snapshot.pin", "serving.pin_s", None),
    ("repro.serving.snapshot", "Snapshot.reader", "serving.reader_s", None),
    ("repro.serving.cache", "ResultCache.get_or_compute", "serving.get_or_compute_s",
     "serving.cache_lookup_s"),
)

#: the coroutine through which the service hands work to its thread pool.
#: Its wrapper records no span: it carries the caller's context into the
#: worker thread, so that spans recorded there nest under the request's
OFFLOAD = ("repro.serving.service", "VertexicaService._offload")

#: the span the current thread or task is inside of
_TOP: contextvars.ContextVar = contextvars.ContextVar("perf_span", default=None)

#: engine spans the workload itself issues (their parent is the op root): its DML
DML_METRIC = "engine.dml_s"
_DML_SOURCES = ("engine.execute_s", "engine.insert_batch_s")
#: number of ``Database.execute`` spans per op
STATEMENTS_METRIC = "engine.statements"
#: number of ``ProcessExecutor.__call__`` spans per op
DISPATCHES_METRIC = "parallel.dispatches"



def span_metrics(targets=TARGETS) -> tuple[str, ...]:
    """Every metric the spans of ``targets`` feed, in table order."""
    named = [m for row in targets for m in row[2:] if m]
    return tuple(dict.fromkeys(named + [DML_METRIC, STATEMENTS_METRIC, DISPATCHES_METRIC]))


class Span:
    """One recorded call; ``metric`` is ``None`` for an op's root span."""

    __slots__ = ("metric", "self_metric", "start", "end", "child", "parent", "kind", "op")

    def __init__(self, metric, self_metric, start, parent, kind, op):
        self.metric = metric
        self.self_metric = self_metric
        self.start = start
        self.end = start
        self.child = 0.0
        self.parent = parent
        self.kind = kind
        self.op = op

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child


class Tracer:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.enabled = False
        self.spans: list[Span] = []
        #: ``module:path`` of every target that could not be resolved
        self.missing: list[str] = []
        self._missing_metrics: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []
        self._op: tuple[str, int] | None = None

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        for module_name, path, metric, self_metric in (*self.targets, (*OFFLOAD, None, None)):
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                self._missing_metrics.update(m for m in (metric, self_metric) if m)
                continue
            if metric is None:
                wrapper = self._carry(original)
            elif inspect.iscoroutinefunction(original):
                wrapper = self._wrap_async(original, metric, self_metric)
            else:
                wrapper = self._wrap(original, metric, self_metric)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _open(self, metric, self_metric):
        """A new span under the current one, or ``None`` outside an op."""
        op = self._op
        if not self.enabled or op is None:
            return None, None
        span = Span(metric, self_metric, perf_counter(), _TOP.get(), *op)
        return span, _TOP.set(span)

    def _close(self, span, token) -> None:
        span.end = perf_counter()
        _TOP.reset(token)
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def _wrap(self, fn, metric, self_metric):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self._open(metric, self_metric)
            if span is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, token)

        return traced

    def _wrap_async(self, fn, metric, self_metric):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span, token = self._open(metric, self_metric)
            if span is None:
                return await fn(*args, **kwargs)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span, token)

        return traced

    def _carry(self, offload):
        @functools.wraps(offload)
        async def carrying(service, work):
            if not self.enabled:
                return await offload(service, work)
            context = contextvars.copy_context()
            return await offload(service, lambda: context.run(work))

        return carrying

    # -- ops ------------------------------------------------------------
    @contextmanager
    def op(self, kind: str, index: int):
        """Root span of one op (``kind`` is ``"setup"`` or ``"step"``);
        wrapped calls made on any thread while it is open belong to it."""
        if not self.enabled:
            yield
            return
        root = Span(None, None, perf_counter(), None, kind, index)
        self._op = (kind, index)
        token = _TOP.set(root)
        try:
            yield
        finally:
            root.end = perf_counter()
            _TOP.reset(token)
            self._op = None
            self.spans.append(root)

    # -- aggregation ----------------------------------------------------
    def per_op(self) -> dict[tuple[str, int], dict[str, float]]:
        """Per op: seconds (or counts) summed by metric; ``"wall"`` is the
        root span's duration and ``"attributed"`` the summed self time of
        every layer span of the op."""
        ops: dict[tuple[str, int], dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            totals = ops[(span.kind, span.op)]
            if span.metric is None:
                totals["wall"] += span.seconds
                continue
            totals[span.metric] += span.seconds
            totals["attributed"] += span.self_seconds
            if span.self_metric:
                totals[span.self_metric] += span.self_seconds
            if span.metric == "engine.execute_s":
                totals[STATEMENTS_METRIC] += 1
            elif span.metric == "parallel.call_s":
                totals[DISPATCHES_METRIC] += 1
            if (
                span.metric in _DML_SOURCES
                and span.parent is not None
                and span.parent.metric is None
            ):
                totals[DML_METRIC] += span.seconds
        return ops

    def layer_metrics(self) -> dict[str, float | None]:
        """Every span metric as the median over the step ops it occurs in
        (over the set-up ops when it occurs in no step; 0.0 when it never
        occurs; ``None`` when its wrap target is missing)."""
        ops = self.per_op()
        out: dict[str, float | None] = {}
        for metric in span_metrics(self.targets):
            if metric in self._missing_metrics:
                out[metric] = None
                continue
            for kind in ("step", "setup"):
                seen = [t[metric] for (k, _), t in ops.items() if k == kind and metric in t]
                if seen:
                    out[metric] = statistics.median(seen)
                    break
            else:
                out[metric] = 0.0
        return out

    def attributed_share(self, walls: dict[int, float] | None = None) -> float:
        """Summed layer self time over summed op wall-clock, step ops only.
        ``walls`` overrides an op's wall-clock (concurrent clients: the sum
        of their request latencies, not the elapsed time)."""
        attributed = wall = 0.0
        for (kind, index), totals in self.per_op().items():
            if kind == "step":
                attributed += totals["attributed"]
                wall += (walls or {}).get(index, totals["wall"])
        return attributed / wall if wall else 0.0

    def span_records(self, workload: str) -> list[dict]:
        """The spans as JSON-ready rows (parent = row index or ``None``)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": span.metric or "op",
                "start": span.start,
                "end": span.end,
                "parent": index.get(id(span.parent)),
                "workload": workload,
                "op": f"{span.kind}:{span.op}",
            }
            for span in self.spans
        ]
