"""Graph-view extraction: from declared specs to loaded graph tables.

Extraction is fully set-oriented and columnar: each compiled statement
runs over pinned base-table rows (see :mod:`repro.graphview.lowering`),
its result columns go to :meth:`GraphStorage.load_graph` as numpy
arrays, and ``load_graph`` bulk inserts them via the
``Column.from_numpy`` fast path — the extracted edges never take a
per-row Python round trip.

Two freshness modes:

* **materialized** — extraction runs at creation time; the vertex/edge
  tables persist in the catalog (planner-visible, queryable with plain
  SQL) and :meth:`GraphViewHandle.refresh` brings them up to date after
  base-table DML — *incrementally* when the engine's change capture can
  hand over the row deltas (see :mod:`repro.graphview.maintenance`),
  falling back to a full re-extraction otherwise or when the deltas
  exceed :data:`DEFAULT_DELTA_THRESHOLD` of a base table.
* **virtual** — nothing is extracted up front; every
  :meth:`GraphViewHandle.resolve` (which ``Vertexica.run`` calls) re-runs
  the extraction, so the analysis always sees the current base tables.

A full extraction runs in-process, one spec after another, through the
same spec runner as an incremental refresh (see
:mod:`repro.graphview.lowering`).

Both refresh paths produce bit-identical graph tables: full loads store
edges in canonical ``(src, dst, weight)`` order and the incremental path
maintains the same order (the randomized DML parity suite in
``tests/graphview/test_incremental_parity.py`` locks this down).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from repro.core.storage import GraphHandle, GraphStorage, canonical_edge_order
from repro.engine.database import Database
from repro.engine.operators import unique_ints
from repro.errors import GraphLoadError, GraphViewError
from repro.graphview import maintenance
from repro.graphview.lowering import lower_view
from repro.graphview.maintenance import MaintenanceState
from repro.graphview.spec import GraphView

__all__ = ["ExtractionStats", "GraphViewHandle"]

logger = logging.getLogger("repro.graphview")

#: Ceiling on delta size as a fraction of a base table's rows — beyond
#: it a refresh re-extracts instead of patching (the crossover where
#: replaying per-row work stops beating one set-oriented pass).
DEFAULT_DELTA_THRESHOLD = 0.25


@dataclass(frozen=True)
class ExtractionStats:
    """Timings and sizes of one extraction (or incremental refresh) pass.

    Attributes:
        seconds: wall time of the pass.
        num_vertices, num_edges: sizes of the resulting graph.
        num_queries: SQL statements issued: one per compiled statement on
            a full extraction, one per statement and non-empty delta side
            on an incremental refresh (0 for a no-op one).
        mode: ``"full"`` (re-extraction) or ``"incremental"``
            (delta-patched).
        delta_rows: base-table delta rows consumed (incremental only).
        lower_seconds: time spent running/converting the compiled queries
            (full mode only).
        load_seconds: time spent sorting and bulk-loading the graph
            tables, plus seeding the maintenance ledgers of a
            materialized view (full mode only).
    """

    seconds: float
    num_vertices: int
    num_edges: int
    num_queries: int
    mode: str = "full"
    delta_rows: int = 0
    lower_seconds: float = 0.0
    load_seconds: float = 0.0

    def summary(self) -> str:
        """One-line human-readable report."""
        delta = f" delta_rows={self.delta_rows}" if self.mode == "incremental" else ""
        return (
            f"{self.mode} refresh: |V|={self.num_vertices} |E|={self.num_edges} "
            f"from {self.num_queries} queries in {self.seconds:.3f}s{delta}"
        )


def _extract_with_state(
    db: Database,
    storage: GraphStorage,
    name: str,
    view: GraphView,
    want_state: bool,
) -> tuple[GraphHandle, ExtractionStats, MaintenanceState | None]:
    """Full extraction, optionally also building maintenance state from
    the same per-spec arrays (no base table is scanned twice).

    Edge rows with a NULL endpoint are dropped (a nullable foreign key is
    not an edge); NULL weights fall back to 1.0.

    Raises:
        GraphViewError: when a compiled query fails (missing base table or
            column, malformed filter/weight expression) — chained to the
            engine error naming the spec that caused it.
    """
    view.validate()
    started = time.perf_counter()
    lowered = lower_view(db, view)
    lowered_at = time.perf_counter()
    node_parts, edge_parts = lowered.node_parts, lowered.edge_parts

    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0, dtype=np.float64)
    src_parts = [src for part in edge_parts for (src, _, _) in part.triples]
    dst_parts = [dst for part in edge_parts for (_, dst, _) in part.triples]
    weight_parts = [w for part in edge_parts for (_, _, w) in part.triples]
    src_arr = np.concatenate(src_parts) if src_parts else empty_i
    dst_arr = np.concatenate(dst_parts) if dst_parts else empty_i
    weight_arr = np.concatenate(weight_parts) if weight_parts else empty_f
    node_ids = unique_ints(*node_parts)

    # Sort into canonical order once, here: load_graph stores the arrays
    # as-is and the maintenance state keeps the same arrays as its edge
    # ledger.
    order = canonical_edge_order(src_arr, dst_arr, weight_arr)
    src_arr, dst_arr, weight_arr = src_arr[order], dst_arr[order], weight_arr[order]
    handle = storage.load_graph(
        name, src_arr, dst_arr, weight_arr, node_ids=node_ids, presorted=True
    )
    state = (
        maintenance.build_state(
            lowered.bookmarks, view, node_parts, edge_parts, (src_arr, dst_arr, weight_arr)
        )
        if want_state
        else None
    )
    finished = time.perf_counter()
    stats = ExtractionStats(
        seconds=finished - started,
        num_vertices=handle.num_vertices,
        num_edges=handle.num_edges,
        num_queries=lowered.num_queries,
        mode="full",
        lower_seconds=lowered_at - started,
        load_seconds=finished - lowered_at,
    )
    return handle, stats, state


class GraphViewHandle:
    """A named graph view bound to a database.

    ``materialized=True`` keeps extracted tables in the catalog between
    runs (call :meth:`refresh` after base-table DML); ``False`` makes the
    view *virtual* — every :meth:`resolve` re-extracts, so runs always
    see current base data.

    :data:`DEFAULT_DELTA_THRESHOLD` caps how large a base table's delta
    may grow (as a fraction of its current rows) before :meth:`refresh`
    abandons the incremental path for a full re-extraction.
    """

    def __init__(
        self,
        db: Database,
        storage: GraphStorage,
        name: str,
        view: GraphView,
        materialized: bool = True,
    ) -> None:
        if not name or not name.isidentifier():
            raise GraphViewError(f"graph view name must be an identifier, got {name!r}")
        self.db = db
        self.storage = storage
        self.name = name
        self.view = view
        self.materialized = materialized
        self._handle: GraphHandle | None = None
        self._state: MaintenanceState | None = None
        #: base-table versions carried over from a checkpoint restore
        #: (reported until the first in-process refresh reseeds state)
        self._restored_versions: dict[str, int] = {}
        #: stats of the most recent extraction (``None`` before the first)
        self.last_extraction: ExtractionStats | None = None
        #: why the most recent refresh abandoned the incremental path
        #: (``None`` when it ran incrementally or never tried)
        self.last_fallback_reason: str | None = None

    # ------------------------------------------------------------------
    def resolve(self) -> GraphHandle:
        """The graph to run on *now*.

        Materialized views return the persisted tables (extracting on
        first use); virtual views re-extract every call.
        """
        if self.materialized and self._handle is not None:
            return self._handle
        return self.refresh()

    def refresh(self, incremental: bool | None = None) -> GraphHandle:
        """Bring the extracted tables up to date with the base tables.

        Args:
            incremental: ``None`` (default) patches from captured row
                deltas when possible and within
                :data:`DEFAULT_DELTA_THRESHOLD`, falling back to a full
                re-extraction otherwise; ``True`` insists on the delta
                path regardless of delta size (still falling back when no
                deltas are reconstructable);
                ``False`` forces a full re-extraction.

        The two paths produce bit-identical tables; ``last_extraction``
        records which one ran, its delta size, and its wall time.  When a
        requested or possible incremental refresh falls back to the full
        path, :attr:`last_fallback_reason` says why (also logged on the
        ``repro.graphview`` logger).
        """
        wanted_incremental = incremental is not False and self.materialized
        if wanted_incremental:
            handle = self._try_incremental(
                max_delta_fraction=None if incremental else DEFAULT_DELTA_THRESHOLD
            )
            if handle is not None:
                self.last_fallback_reason = None
                return handle
            if self._state is not None:
                self.last_fallback_reason = self._state.last_fallback_reason
            else:
                self.last_fallback_reason = "no maintenance state (first refresh)"
                logger.info(
                    "graph view %r: %s", self.name, self.last_fallback_reason
                )
        handle, stats, state = _extract_with_state(
            self.db, self.storage, self.name, self.view, want_state=self.materialized
        )
        self._handle = handle
        self._state = state
        self.last_extraction = stats
        return handle

    def _try_incremental(self, max_delta_fraction: float | None) -> GraphHandle | None:
        """One attempt at the delta path; ``None`` means take the full one."""
        if self._state is None or self._handle is None:
            return None
        started = time.perf_counter()
        result = maintenance.incremental_refresh(
            self.db,
            self.storage,
            self.name,
            self.view,
            self._state,
            max_delta_fraction,
        )
        if result is None:
            return None
        handle, delta_rows, statements = result
        self._handle = handle
        self.last_extraction = ExtractionStats(
            seconds=time.perf_counter() - started,
            num_vertices=handle.num_vertices,
            num_edges=handle.num_edges,
            num_queries=statements,
            mode="incremental",
            delta_rows=delta_rows,
        )
        return handle

    # ------------------------------------------------------------------
    # Persistence hooks (see repro.graphview.catalog)
    # ------------------------------------------------------------------
    def base_table_versions(self) -> dict[str, int]:
        """Base-table versions as of the last refresh — from live
        maintenance state, or carried over from a checkpoint (empty when
        the view never refreshed)."""
        if self._state is None:
            return dict(self._restored_versions)
        return {t: version for t, (_, version) in self._state.bookmarks.items()}

    def attach_existing(self, base_table_versions: dict[str, int] | None = None) -> bool:
        """Re-attach to already-materialized ``{name}_*`` tables (used
        after checkpoint restore) without re-extracting.  Maintenance
        state is *not* rebuilt — the first post-restore refresh takes the
        full path and reseeds it.  Returns True when tables were found.
        """
        if base_table_versions:
            self._restored_versions = dict(base_table_versions)
        try:
            self._handle = self.storage.handle(self.name)
        except GraphLoadError:
            return False
        return True

    def drop(self) -> None:
        """Drop the extracted tables (base tables are untouched).

        Table names are derived from the view name — not from a cached
        handle — so materialized tables are removed even when this handle
        never resolved them in this process (e.g. right after a
        checkpoint restore).
        """
        ghost = GraphHandle(self.db, self.name, 0, 0)
        for table in (
            ghost.edge_table,
            ghost.node_table,
            ghost.vertex_table,
            ghost.message_table,
            ghost.output_table,
        ):
            self.db.execute(f"DROP TABLE IF EXISTS {table}")
        self._handle = None
        self._state = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "materialized" if self.materialized else "virtual"
        return f"GraphViewHandle({self.name!r}, {mode}, specs={len(self.view.edges)})"
