"""The user-facing Vertexica facade.

Bundles a :class:`~repro.engine.database.Database`, the graph storage
layer, and the coordinator stored procedure behind the three calls an
analyst needs::

    vx = Vertexica()
    graph = vx.load_graph("twitter", src=..., dst=...)
    result = vx.run(graph, PageRankProgram(iterations=10))
    result.values          # {vertex_id: rank}
    result.stats.summary() # timings per superstep

The database stays fully accessible (``vx.sql(...)``) so graph runs can be
freely mixed with relational pre-/post-processing — the paper's §3.4.

A ``Vertexica`` is a session: it also owns the worker-process pool its
runs lease, spawned on first need and kept between runs.  ``vx.close()``
(or leaving ``with Vertexica() as vx:``, or dropping the last reference)
shuts it down.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core import faults
from repro.core.config import VertexicaConfig
from repro.core.coordinator import register_coordinator
from repro.core.metrics import RunStats
from repro.core.program import VertexProgram
from repro.core.storage import GraphHandle, GraphStorage, edge_arrays
from repro.engine.database import Database, Result
from repro.engine.operators import int_runs
from repro.engine.parallel import SessionPools
from repro.engine.persistence import read_checkpoint_metadata
from repro.engine.sql.ast import (
    ConnectClause,
    CreateGraphViewStatement,
    DropGraphViewStatement,
    EdgeClause,
    RefreshGraphViewStatement,
)
from repro.errors import GraphViewError
from repro.graphview.catalog import MANIFEST_KEY, handle_manifest, view_from_dict
from repro.graphview.compiler import render_expression
from repro.graphview.lowering import involved_tables
from repro.graphview.spec import CoEdgeSpec, EdgeSpec, EdgeSource, GraphView, NodeSpec
from repro.graphview.view import GraphViewHandle

__all__ = ["Vertexica", "VertexicaResult"]


@dataclass
class VertexicaResult:
    """Output of one vertex-program run."""

    values: dict[int, Any]
    stats: RunStats

    def top(self, k: int, reverse: bool = True) -> list[tuple[int, Any]]:
        """The ``k`` vertices with the largest (or smallest) values,
        ties broken by ascending vertex id for determinism.

        Works for any orderable value type (negating the value would
        raise ``TypeError`` for e.g. label-propagation string labels), so
        the value sort relies on stable two-pass sorting instead.
        """
        items = [(vid, value) for vid, value in self.values.items() if value is not None]
        items.sort(key=lambda pair: pair[0])
        items.sort(key=lambda pair: pair[1], reverse=reverse)
        return items[:k]


class Vertexica:
    """Vertex-centric graph analytics on top of the relational engine.

    Args:
        db: the database to work in (default: a fresh one).
        config: run configuration; ``run()`` keyword overrides apply on
            top of it.
        pools: worker pools to lease runs from instead of owning a set —
            how a serving tier's shadow sessions share the live session's
            pool.  Borrowed pools are never closed by this session.
    """

    def __init__(
        self,
        db: Database | None = None,
        config: VertexicaConfig | None = None,
        *,
        pools: SessionPools | None = None,
    ) -> None:
        self.db = db if db is not None else Database()
        self.config = (config or VertexicaConfig()).validated()
        self.storage = GraphStorage(self.db)
        self._graph_views: dict[str, GraphViewHandle] = {}
        #: the worker pools runs lease
        self.pools = pools if pools is not None else SessionPools()
        # Owned pools close with the session; the finalizer holds the
        # pools, not the session, so dropping the last reference suffices.
        self._release = (
            weakref.finalize(self, self.pools.close) if pools is None else None
        )
        register_coordinator(self.db, self.pools)
        # SQL surface for graph views: the engine parses CREATE/DROP GRAPH
        # VIEW, this layer executes them.  Registered weakly: the database
        # must not keep its session (and the session's pools) alive.
        for statement_type, method in (
            (CreateGraphViewStatement, self._execute_create_graph_view),
            (DropGraphViewStatement, self._execute_drop_graph_view),
            (RefreshGraphViewStatement, self._execute_refresh_graph_view),
        ):
            self.db.register_statement_handler(statement_type, _weak_handler(method))

    def close(self) -> None:
        """Shut down the session's worker pools (idempotent).  The session
        stays usable; later runs lease private per-run pools."""
        if self._release is not None:
            self._release()

    def __enter__(self) -> "Vertexica":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Graph loading
    # ------------------------------------------------------------------
    def load_graph(
        self,
        name: str,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        num_vertices: int | None = None,
        symmetrize: bool = False,
    ) -> GraphHandle:
        """Load an edge list into relational tables.

        Args:
            name: graph name (prefix of its tables).
            src, dst: edge endpoint arrays.
            weights: optional edge weights (default 1.0).
            num_vertices: ensure ids ``0..num_vertices-1`` all exist even
                if isolated.
            symmetrize: also insert every reverse edge — required by
                algorithms that treat the graph as undirected (connected
                components, triangle counting on out-edges).
        """
        src_arr, dst_arr, weight_arr = edge_arrays(src, dst, weights)
        if symmetrize:
            src_arr, dst_arr, weight_arr = _symmetrized(src_arr, dst_arr, weight_arr)
        return self.storage.load_graph(
            name, src_arr, dst_arr, weight_arr, num_vertices=num_vertices
        )

    def graph(self, name: str) -> GraphHandle:
        """Re-attach to a loaded graph by name."""
        return self.storage.handle(name)

    # ------------------------------------------------------------------
    # Graph views (declarative extraction from relational tables)
    # ------------------------------------------------------------------
    def create_graph_view(
        self,
        name: str,
        view: GraphView | None = None,
        *,
        vertices: NodeSpec | Sequence[NodeSpec] = (),
        edges: EdgeSource | Sequence[EdgeSource] = (),
        materialized: bool = True,
        replace: bool = False,
    ) -> GraphViewHandle:
        """Declare (and, when materialized, extract) a graph view.

        Pass either a pre-built :class:`~repro.graphview.GraphView` or the
        ``vertices`` / ``edges`` specs directly::

            vx.create_graph_view(
                "social",
                vertices=NodeSpec("users", key="id"),
                edges=[EdgeSpec("follows", src="follower_id", dst="followee_id"),
                       CoEdgeSpec("likes", member="user_id", via="post_id")],
            )

        Args:
            name: view name; materialized tables are ``{name}_edge`` /
                ``{name}_node`` (planner-visible, queryable via SQL).
            view: a pre-built declaration (mutually exclusive with
                ``vertices``/``edges``).
            vertices, edges: specs used to build the declaration inline.
            materialized: extract now and persist (call ``refresh()``
                after base-table DML); ``False`` re-extracts at every run.
            replace: allow redefining an existing view name.

        Extraction runs in this process, whatever ``n_workers`` says:
        worker processes run shard tasks only.

        Raises:
            GraphViewError: invalid declaration, duplicate name, or a
                failing extraction query.
        """
        if view is None:
            view = GraphView(vertices=vertices, edges=edges, name=name)
        elif vertices or edges:
            raise GraphViewError("pass either a GraphView or vertices/edges, not both")
        displaced = self._graph_views.get(name)
        if displaced is not None:
            if not replace:
                raise GraphViewError(f"graph view {name!r} already exists")
            # Drop the old extraction so a materialized -> virtual redefine
            # cannot leave stale {name}_edge/{name}_node tables behind.
            displaced.drop()
        handle = GraphViewHandle(self.db, self.storage, name, view, materialized=materialized)
        if materialized:
            handle.refresh()
        self._graph_views[name] = handle
        if displaced is not None:
            # The redefinition may read different base tables; stop
            # capturing on any the displaced view alone was watching.
            self._release_unused_capture(displaced.view)
        return handle

    def graph_view(self, name: str) -> GraphViewHandle:
        """Look up a declared graph view by name.

        Raises:
            GraphViewError: unknown view name.
        """
        try:
            return self._graph_views[name]
        except KeyError:
            raise GraphViewError(f"graph view {name!r} is not defined") from None

    def drop_graph_view(self, name: str, if_exists: bool = False) -> None:
        """Remove a graph view and its extracted tables.

        Raises:
            GraphViewError: unknown view name (unless ``if_exists``).
        """
        handle = self._graph_views.pop(name, None)
        if handle is None:
            if if_exists:
                return
            raise GraphViewError(f"graph view {name!r} is not defined")
        handle.drop()
        self._release_unused_capture(handle.view)

    def _release_unused_capture(self, dropped_view: GraphView) -> None:
        """Disarm change capture on base tables no remaining materialized
        view derives from — a dropped view must not leave its tables
        paying capture copies (and retaining delta rows) forever."""
        still_needed: set[str] = set()
        for other in self._graph_views.values():
            if other.materialized:
                still_needed.update(involved_tables(other.view))
        for table in involved_tables(dropped_view):
            if table not in still_needed:
                self.db.release_capture(table)

    # -- SQL statement handlers ----------------------------------------
    def _execute_create_graph_view(
        self, db: Database, stmt: CreateGraphViewStatement
    ) -> Result:
        if stmt.if_not_exists and stmt.name in self._graph_views:
            return Result(row_count=0)
        view = GraphView(
            vertices=[
                NodeSpec(
                    table=clause.table,
                    key=clause.key,
                    where=_maybe_sql(clause.where),
                )
                for clause in stmt.nodes
            ],
            edges=[_edge_spec_from_clause(clause) for clause in stmt.edges],
            name=stmt.name,
        )
        handle = self.create_graph_view(
            stmt.name, view, materialized=stmt.materialized
        )
        extracted = handle.last_extraction
        return Result(row_count=extracted.num_edges if extracted else 0)

    def _execute_drop_graph_view(
        self, db: Database, stmt: DropGraphViewStatement
    ) -> Result:
        self.drop_graph_view(stmt.name, if_exists=stmt.if_exists)
        return Result(row_count=0)

    def _execute_refresh_graph_view(
        self, db: Database, stmt: RefreshGraphViewStatement
    ) -> Result:
        handle = self.graph_view(stmt.name)
        incremental = {None: None, "full": False, "incremental": True}[stmt.mode]
        refreshed = handle.refresh(incremental=incremental)
        return Result(row_count=refreshed.num_edges)

    # ------------------------------------------------------------------
    # Durability: the view catalog rides the engine checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str) -> None:
        """Persist the database *and* the graph-view catalog.

        Tables (including materialized ``{name}_edge`` / ``{name}_node``
        extractions) go through the engine's checkpoint; view declarations,
        freshness modes, and last-refreshed base-table versions ride in the
        manifest metadata (see :mod:`repro.graphview.catalog`).
        """
        manifest = [handle_manifest(h) for _, h in sorted(self._graph_views.items())]
        self.db.checkpoint(directory, metadata={MANIFEST_KEY: manifest})

    @classmethod
    def restore(
        cls, directory: str, config: VertexicaConfig | None = None
    ) -> "Vertexica":
        """Rebuild a Vertexica — database plus graph-view registry — from
        a :meth:`checkpoint` directory.

        Materialized views re-attach to their persisted extraction tables
        without re-extracting; virtual views come back as declarations.
        ``refresh()`` works immediately; the first one takes the full path
        (change capture does not survive a restart) and re-seeds the
        incremental state.
        """
        vx = cls(db=Database.restore(directory), config=config)
        for entry in read_checkpoint_metadata(directory).get(MANIFEST_KEY, []):
            handle = GraphViewHandle(
                vx.db,
                vx.storage,
                entry["name"],
                view_from_dict(entry["view"]),
                materialized=entry.get("materialized", True),
            )
            if handle.materialized:
                handle.attach_existing(entry.get("base_table_versions"))
            vx._graph_views[handle.name] = handle
        return vx

    # ------------------------------------------------------------------
    # Running programs
    # ------------------------------------------------------------------
    def run(
        self,
        graph: GraphHandle | GraphViewHandle | GraphView | str,
        program: VertexProgram,
        **overrides: Any,
    ) -> VertexicaResult:
        """Run a vertex program via the coordinator stored procedure.

        Accepts a loaded :class:`GraphHandle`, a graph or view name, a
        :class:`~repro.graphview.GraphViewHandle` (virtual views re-extract
        from their base tables right here), or a bare
        :class:`~repro.graphview.GraphView` declaration (extracted
        on the fly under its ``name``, default ``"adhoc_view"``).

        Keyword overrides are applied on top of this instance's config,
        e.g. ``vx.run(g, prog, n_partitions=16, input_strategy="join")``.
        ``n_workers=N`` (with ``data_plane="shards"``) runs shard tasks in
        N spawned worker processes over shared-memory vertex state —
        bit-identical to serial execution.
        Fault tolerance rides the same kwargs: ``vx.run(g, prog,
        checkpoint_every=4, checkpoint_dir=d)`` snapshots durable run
        state every 4 supersteps, and ``vx.run(g, prog, resume=True,
        checkpoint_dir=d)`` continues a killed run from its last
        checkpoint, bit-identical to an uninterrupted run (see
        :class:`~repro.core.config.VertexicaConfig`).
        """
        config = self.config.with_overrides(**overrides) if overrides else self.config
        handle = self._resolve_graph(graph, config)
        stats: RunStats = self.db.call("vertexica_run", handle, program, config)
        values = self.storage.read_values(handle, program)
        return VertexicaResult(values=values, stats=stats)

    def _resolve_graph(
        self,
        graph: GraphHandle | GraphViewHandle | GraphView | str,
        config: VertexicaConfig | None = None,
    ) -> GraphHandle:
        """Turn any accepted graph reference into a loaded handle.

        View extraction is a real query over base tables — the run's
        other I/O seam besides shard tasks — so transient faults there
        are retried with the same bounded-backoff policy."""
        config = config or self.config

        def resolving(handle: GraphViewHandle) -> GraphHandle:
            resolved = faults.retry_call(
                handle.resolve,
                retries=config.task_retries,
                backoff=config.retry_backoff,
            )
            if not handle.materialized:
                # Extraction arms change capture on the base tables; only
                # a materialized view ever reads it back.
                self._release_unused_capture(handle.view)
            return resolved

        if isinstance(graph, GraphViewHandle):
            return resolving(graph)
        if isinstance(graph, GraphView):
            name = graph.name or "adhoc_view"
            return resolving(
                GraphViewHandle(self.db, self.storage, name, graph, materialized=False)
            )
        if isinstance(graph, str):
            if graph in self._graph_views:
                return resolving(self._graph_views[graph])
            return self.graph(graph)
        return graph

    # ------------------------------------------------------------------
    # Relational access (§3.4: pre-/post-processing in the same system)
    # ------------------------------------------------------------------
    def sql(self, statement: str, params: Sequence[Any] | None = None) -> Result:
        """Run arbitrary SQL against the shared database."""
        return self.db.execute(statement, params)

    # ------------------------------------------------------------------
    # Serving (concurrent read tier over this instance)
    # ------------------------------------------------------------------
    def serve(self, **options: Any) -> "Any":
        """Open a concurrent serving tier over this instance.

        Returns a :class:`~repro.serving.VertexicaService`: an asyncio
        front door with admission control, snapshot-isolated reads, and
        a version-keyed result cache — this facade stays the writer::

            async with vx.serve(max_concurrency=8) as service:
                async with service.session() as s:
                    result = await s.run("g", PageRankProgram())

        Keyword ``options`` pass through to
        :class:`~repro.serving.VertexicaService` (``max_concurrency``,
        ``max_queue``, ``cache_bytes``, ``session_inflight``).
        """
        from repro.serving.service import VertexicaService  # lazy: avoid cycle

        return VertexicaService(self, **options)


def _weak_handler(method: Any) -> Any:
    """A statement handler that reaches the bound ``method`` through a
    weak reference, so the database holding the handler does not keep
    the method's session alive."""
    ref = weakref.WeakMethod(method)

    def handler(db: Database, statement: Any) -> Result:
        target = ref()
        if target is None:
            raise GraphViewError(
                f"{type(statement).__name__} needs the Vertexica session of this "
                "database, which no longer exists"
            )
        return target(db, statement)

    return handler


def _maybe_sql(expr: Any) -> str | None:
    """Render an optional parsed expression back to SQL text."""
    return None if expr is None else render_expression(expr)


def _edge_spec_from_clause(clause: "EdgeClause | ConnectClause") -> EdgeSource:
    """Convert one parsed EDGES clause into its DSL spec."""
    if isinstance(clause, ConnectClause):
        return CoEdgeSpec(
            table=clause.table,
            member=clause.member,
            via=clause.via,
            weight=_maybe_sql(clause.weight),
            where=_maybe_sql(clause.where),
        )
    return EdgeSpec(
        table=clause.table,
        src=clause.src,
        dst=clause.dst,
        weight=_maybe_sql(clause.weight),
        where=_maybe_sql(clause.where),
        directed=clause.directed,
    )


def _symmetrized(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge list plus its reverse, with exact duplicates removed."""
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    all_w = np.concatenate([weights, weights])
    # Dedup on (src, dst), keeping the first weight: the stable order puts
    # each pair's earliest row first in its run.
    order, starts = int_runs((all_src, all_dst))
    first = np.zeros(len(order), dtype=bool)
    first[order[starts]] = True
    return all_src[first], all_dst[first], all_w[first]
