"""Delta-based incremental maintenance of materialized graph views.

A full extraction (:func:`~repro.graphview.lowering.lower_view`) re-runs
every compiled query over the whole base tables and rebuilds the graph
tables wholesale.  After small DML that is almost entirely wasted work —
the change-capture layer (:mod:`repro.engine.changelog`) already knows
exactly which rows changed.  This module turns those row deltas into
graph deltas and patches the materialized tables in place:

* each spec runs over the delta rows alone, pinned under the base
  table's own name in a private catalog — through the same spec runner
  (:func:`~repro.graphview.lowering.run_spec`) as a full extraction, so
  the SQL text, the filters/casts/weight expressions and the NULL
  handling are the same and the live catalog never gains a table;
* the view's edge relation is kept as a sorted multiset: parallel
  ``src`` / ``dst`` (int64) and ``weight`` (float64) columns in canonical
  ``(src, dst, weight)`` order — the same order
  :func:`~repro.core.storage.canonical_edge_order` gives a full load, with
  weights ordered by :func:`~repro.core.storage.weight_order_key`, so both
  refresh paths land on bit-identical tables (``-0.0`` before ``+0.0``);
* the vertex set is kept as a support ledger: id -> number of derivations
  (node-spec rows plus edge-endpoint occurrences), so a vertex disappears
  exactly when its last derivation does;
* a :class:`CoEdgeSpec` keeps its filtered side relation (``via`` /
  ``member`` columns sorted by ``(via, member)``) and per-pair
  co-occurrence counts (an edge ledger of its own), and recomputes only
  the groups whose ``via`` key appears in the delta.

No ledger is a structured array, and none is ever comparison-sorted as
one.  Seeding reuses the extraction's arrays: the edge ledger *is* the
canonically ordered arrays the graph tables were loaded from, and a
co-occurrence pair ledger is checked to be in order with one linear pass
(the expansion lowering emits it sorted).  A refresh nets its added and
removed rows with one small integer sort, finds their positions by
``searchsorted`` on the leading int64 column (bisecting the later columns
inside each equal run), and builds each new column with one gather.

Whenever a delta cannot be applied exactly — change log evicted or reset,
base table dropped/recreated, a delta larger than the configured fraction
of its table, a ``CoEdgeSpec`` with a custom aggregate weight (lowered by
the self-join, never maintained) or a non-integer join key — the caller
falls back to a full re-extraction (which also rebuilds this module's
state).

Recomputing a touched co-occurrence group is *delta-directed*: only
pairs with at least one member whose row count actually changed are
re-derived, so the cost is O(|changed members| · |group|) rather than
O(|group|²) — a one-row delta against a dense ``via`` group (a celebrity
post with 10⁵ likers) touches one stripe of the pair matrix, not the
whole square.  A delta that changes many members of dense groups can
still cost more than starting over, so when the touched groups' stripes
(Σ ``|changed| · |union|``) exceed the view's current edge count — the
rows a full refresh would reload — the refresh falls back to a full
re-extraction.  The bound comes from state the refresh already holds;
no knob sets it.

Every fallback records its reason on
:attr:`MaintenanceState.last_fallback_reason` and logs it on the
``repro.graphview`` logger, so "why did my refresh go full?" is
answerable without a debugger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.storage import GraphHandle, GraphStorage, weight_order_key
from repro.engine.changelog import TableDelta
from repro.engine.database import Database, PinnedTable
from repro.engine.operators import run_starts, stable_int_order, unique_ints, value_ranks
from repro.graphview.lowering import run_spec, spec_statements
from repro.graphview.spec import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec

__all__ = [
    "MaintenanceState",
    "build_state",
    "incremental_refresh",
]

logger = logging.getLogger("repro.graphview")

#: One sorted multiset as parallel columns (see "Columnar sorted
#: multisets" below): edges are ``(src, dst, weight)``, co-occurrence
#: side rows ``(via, member)``.
Rows = tuple[np.ndarray, ...]

_NO_EDGES: Rows = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
)


class _Fallback(Exception):
    """Internal: this delta cannot be applied exactly; do a full refresh."""


def _side_ledger_rows(member: np.ndarray, via: np.ndarray) -> Rows:
    """``(via, member)`` int64 side-ledger columns of a co-occurrence
    spec's side rows (NULL rows already dropped).

    Raises :class:`_Fallback` when the via key is not integer-typed — the
    sorted side ledger only supports ints.
    """
    if via.dtype.kind not in "iu":
        raise _Fallback("co-occurrence via key is not integer-typed")
    return via.astype(np.int64, copy=False), member


# ---------------------------------------------------------------------------
# Columnar sorted multisets
#
# A ledger is a tuple of parallel columns whose rows are in lexicographic
# order of their order keys: an int column is its own key, a float column
# orders by weight_order_key.  The leading column is always int64.  Rows
# with equal keys are identical bytes, so where a row lands among its
# equals never shows.
# ---------------------------------------------------------------------------
def _order_key(column: np.ndarray) -> np.ndarray:
    return weight_order_key(column) if column.dtype.kind == "f" else column


def _intra_group_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for run lengths ``counts``."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _rows_sorted(rows: Rows) -> bool:
    """Whether ``rows`` are in ledger order: one linear pass over the
    leading column, later columns compared only where earlier ones tie."""
    ties = None  # i such that rows i and i + 1 tie on every column so far
    for column in rows:
        if ties is None:
            behind, ahead = column[:-1], column[1:]
        elif len(ties) == 0:
            return True
        else:
            behind, ahead = column[ties], column[ties + 1]
        behind, ahead = _order_key(behind), _order_key(ahead)
        if np.any(ahead < behind):
            return False
        equal = ahead == behind
        ties = np.flatnonzero(equal) if ties is None else ties[equal]
    return True


def _sorted_rows(rows: Rows) -> Rows:
    """``rows`` in ledger order, sorted by the int-order kernel only when
    the linear check finds them out of order."""
    if _rows_sorted(rows):
        return rows
    order = stable_int_order([_order_key(column) for column in rows])
    return tuple(column[order] for column in rows)


def _bisect(
    column: np.ndarray, lo: np.ndarray, hi: np.ndarray, probe: np.ndarray, side: str
) -> np.ndarray:
    """Per probe, its ``side`` insertion point into the sorted slice
    ``column[lo:hi]`` (``probe`` holds order keys): a vectorized binary
    search that halves every slice each round."""
    while True:
        live = lo < hi
        if not live.any():
            return lo
        mid = (lo + hi) >> 1
        value = _order_key(column[np.where(live, mid, 0)])
        right = live & ((value < probe) if side == "left" else (value <= probe))
        lo = np.where(right, mid + 1, lo)
        hi = np.where(live & ~right, mid, hi)


def _equal_range(ledger: Rows, probes: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per probe row, the ``[lo, hi)`` run of ledger rows equal to it on the
    probed (leading) columns — ``np.searchsorted`` on the leading int64
    column, then a bisection of each later column inside the run the
    earlier ones tie on.  ``probes`` hold order keys."""
    lo = np.searchsorted(ledger[0], probes[0], side="left")
    hi = np.searchsorted(ledger[0], probes[0], side="right")
    for column, probe in zip(ledger[1:], probes[1:]):
        lo = _bisect(column, lo, hi, probe, "left")
        hi = _bisect(column, lo, hi, probe, "right")
    return lo, hi


def _merge(ledger: Rows, added: Rows, removed: Rows) -> Rows:
    """``ledger + added - removed`` as a new ledger; nothing is modified.

    Added and removed rows (any order) are netted by one sort of the
    delta alone; each net change finds its run in ``ledger`` by
    :func:`_equal_range`, and one gather per column splices them in.

    Raises:
        _Fallback: a row is removed more often than ``ledger`` and
            ``added`` hold it — the incremental bookkeeping no longer
            matches the base data (e.g. a non-deterministic weight
            expression), so the caller must re-extract from scratch.
    """
    n_added = len(added[0])
    if n_added + len(removed[0]) == 0:
        return ledger
    rows = tuple(np.concatenate(pair) for pair in zip(added, removed))
    keys = [_order_key(column) for column in rows]
    order = stable_int_order(keys)
    keys = [key[order] for key in keys]
    starts = np.flatnonzero(run_starts(keys))
    net = np.add.reduceat(np.where(order < n_added, 1, -1), starts)
    distinct = [key[starts] for key in keys]

    dropped = net < 0
    lo, hi = _equal_range(ledger, [key[dropped] for key in distinct])
    copies = -net[dropped]
    if np.any(hi - lo < copies):
        raise _Fallback("delta removes rows the maintained state does not hold")
    doomed = np.repeat(lo, copies) + _intra_group_offsets(copies)

    kept = net > 0
    copies = net[kept]
    at = np.repeat(_equal_range(ledger, [key[kept] for key in distinct])[0], copies)
    fresh = [np.repeat(column[order[starts[kept]]], copies) for column in rows]
    return _splice(ledger, doomed, at, fresh)


def _splice(
    ledger: Rows, doomed: np.ndarray, at: np.ndarray, fresh: list[np.ndarray]
) -> Rows:
    """``ledger`` without rows ``doomed`` (ascending) and with row ``j`` of
    ``fresh`` inserted before ledger row ``at[j]`` (non-decreasing): one
    gather per column builds the result."""
    n, k = len(ledger[0]), len(at)
    if n == 0:
        return tuple(fresh)
    size = n - len(doomed) + k
    slots = at - np.searchsorted(doomed, at) + np.arange(k)
    keep = np.ones(n, dtype=bool)
    keep[doomed] = False
    from_ledger = np.ones(size, dtype=bool)
    from_ledger[slots] = False
    take = np.zeros(size, dtype=np.intp)
    take[from_ledger] = np.flatnonzero(keep)
    out = []
    for column, new in zip(ledger, fresh):
        merged = column[take]
        merged[slots] = new
        out.append(merged)
    return tuple(out)


# ---------------------------------------------------------------------------
# Vertex support ledger
# ---------------------------------------------------------------------------
@dataclass
class _SupportLedger:
    """id -> number of derivations (node-spec rows + edge endpoints)."""

    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @classmethod
    def from_derivations(cls, derived_ids: np.ndarray) -> "_SupportLedger":
        ids = derived_ids[stable_int_order((derived_ids,))]
        starts = np.flatnonzero(run_starts((ids,)))
        return cls(ids=ids[starts], counts=np.diff(np.append(starts, len(ids))))

    def apply(self, added_ids: np.ndarray, removed_ids: np.ndarray) -> None:
        """Shift support by +1 per added derivation, -1 per removed."""
        if len(added_ids) == 0 and len(removed_ids) == 0:
            return
        delta_ids = np.concatenate([added_ids, removed_ids])
        signs = np.concatenate(
            [
                np.ones(len(added_ids), dtype=np.int64),
                -np.ones(len(removed_ids), dtype=np.int64),
            ]
        )
        inverse = value_ranks(delta_ids)
        net = np.zeros(int(inverse.max()) + 1, dtype=np.int64)
        np.add.at(net, inverse, signs)
        uniq = np.empty(len(net), dtype=np.int64)
        uniq[inverse] = delta_ids
        touched = net != 0
        uniq, net = uniq[touched], net[touched]
        if len(uniq) == 0:
            return
        positions = np.searchsorted(self.ids, uniq)
        in_range = positions < len(self.ids)
        present = np.zeros(len(uniq), dtype=bool)
        present[in_range] = self.ids[positions[in_range]] == uniq[in_range]

        counts = self.counts.copy()
        counts[positions[present]] += net[present]
        if np.any(counts < 0) or np.any(net[~present] < 0):
            raise _Fallback("vertex support underflow")
        fresh = ~present & (net > 0)
        ids = np.insert(self.ids, positions[fresh], uniq[fresh])
        counts = np.insert(counts, positions[fresh], net[fresh])
        keep = counts > 0
        self.ids, self.counts = ids[keep], counts[keep]

    @property
    def live_ids(self) -> np.ndarray:
        """Sorted ids with at least one derivation (== the node table)."""
        return self.ids


# ---------------------------------------------------------------------------
# Co-occurrence spec state
# ---------------------------------------------------------------------------
@dataclass
class _CoState:
    """Side relation + per-pair counts for one :class:`CoEdgeSpec`."""

    side: Rows  # (via, member), sorted by (via, member)
    pairs: Rows  # (src, dst, weight == float(count)), sorted; one row per pair

    def apply_delta(
        self, inserted_side: Rows, deleted_side: Rows, budget: int
    ) -> tuple[Rows, Rows]:
        """Apply side-row deltas; return ``(added, removed)`` edge rows.

        Only groups whose ``via`` key appears in the delta are touched,
        and within a touched group only the *delta-directed* stripe of
        the pair matrix — pairs with at least one member whose row count
        changed — is re-derived (pairs between two unchanged members
        keep their exact old count, since a pair's count is the product
        of its members' counts).  A touched pair's old row (its previous
        global count) is removed and its new row added, so the caller can
        treat co-occurrence changes as ordinary edge-multiset arithmetic.
        ``budget`` bounds the stripes' total size (see
        :func:`_delta_pair_contributions`).
        """
        if len(inserted_side[0]) == 0 and len(deleted_side[0]) == 0:
            return _NO_EDGES, _NO_EDGES
        touched_vias = unique_ints(inserted_side[0], deleted_side[0])
        old_groups = _touched_group_counts(self.side, touched_vias)
        self.side = _merge(self.side, inserted_side, deleted_side)
        new_groups = _touched_group_counts(self.side, touched_vias)

        # Net count change per (src, dst) pair across the touched groups.
        src, dst, deltas = _delta_pair_contributions(old_groups, new_groups, budget)
        if len(src) == 0:
            return _NO_EDGES, _NO_EDGES

        # Each pair appears at most once in self.pairs: its run is empty
        # (a new pair) or one row holding its current count.
        lo, hi = _equal_range(self.pairs, (src, dst))
        present = hi > lo
        old_counts = np.zeros(len(src), dtype=np.int64)
        old_counts[present] = np.rint(self.pairs[2][lo[present]]).astype(np.int64)
        new_counts = old_counts + deltas
        if np.any(new_counts < 0):
            raise _Fallback("co-occurrence count underflow")

        removed = _pair_rows(src, dst, old_counts)
        added = _pair_rows(src, dst, new_counts)
        self.pairs = _merge(self.pairs, added, removed)
        return added, removed


def _pair_rows(src: np.ndarray, dst: np.ndarray, counts: np.ndarray) -> Rows:
    """Edge rows of the pairs with a positive count, weighted by it."""
    live = counts > 0
    return src[live], dst[live], counts[live].astype(np.float64)


def _touched_group_counts(side: Rows, vias: np.ndarray) -> Rows:
    """Per-``(via, member)`` row counts within the given groups.

    Returns ``(via, member, count)`` columns of the distinct pairs, sorted
    by ``(via, member)`` — the side ledger's order, so each group is one
    ``searchsorted`` range and nothing is re-sorted.
    """
    via, member = side
    lo = np.searchsorted(via, vias, side="left")
    lengths = np.searchsorted(via, vias, side="right") - lo
    rows = np.repeat(lo, lengths) + _intra_group_offsets(lengths)
    via, member = via[rows], member[rows]
    starts = np.flatnonzero(run_starts((via, member)))
    return via[starts], member[starts], np.diff(np.append(starts, len(rows)))


def _delta_pair_contributions(old: Rows, new: Rows, budget: int) -> Rows:
    """Pairs whose co-occurrence count changed: ``(src, dst, delta)``
    columns sorted by ``(src, dst)``, with signed count deltas.

    A pair's count is ``sum over groups of count_a * count_b``, so only
    pairs with at least one *changed* member (per-group row count moved)
    can shift.  Per touched group this derives exactly that stripe:
    ``changed × union`` plus ``(union − changed) × changed`` — never the
    full ``union × union`` square.

    Raises:
        _Fallback: the stripes of the touched groups (Σ ``|changed| ·
            |union|``) exceed ``budget`` — the caller passes the view's
            edge count, so patching would cost more than the full
            refresh it must take instead.
    """
    via_old, member_old, c_old = old
    via_new, member_new, c_new = new
    vias = unique_ints(via_old, via_new)
    stripes = 0
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    delta_parts: list[np.ndarray] = []
    for via in vias:
        lo_o, hi_o = np.searchsorted(via_old, via, "left"), np.searchsorted(
            via_old, via, "right"
        )
        lo_n, hi_n = np.searchsorted(via_new, via, "left"), np.searchsorted(
            via_new, via, "right"
        )
        members_old = member_old[lo_o:hi_o]
        members_new = member_new[lo_n:hi_n]
        union = unique_ints(members_old, members_new)
        old_vec = np.zeros(len(union), dtype=np.int64)
        old_vec[np.searchsorted(union, members_old)] = c_old[lo_o:hi_o]
        new_vec = np.zeros(len(union), dtype=np.int64)
        new_vec[np.searchsorted(union, members_new)] = c_new[lo_n:hi_n]
        moved_member = old_vec != new_vec
        changed = np.flatnonzero(moved_member)
        if len(changed) == 0:
            continue
        stripes += len(changed) * len(union)
        if stripes > budget:
            raise _Fallback(
                f"co-occurrence delta needs at least {stripes} pair updates, "
                f"more than the view's {budget} edges; falling back to full "
                "recompute"
            )
        # changed × union (minus the diagonal) ...
        a_idx = np.repeat(changed, len(union))
        b_idx = np.tile(np.arange(len(union)), len(changed))
        keep = a_idx != b_idx
        a_idx, b_idx = a_idx[keep], b_idx[keep]
        # ... plus (union − changed) × changed; disjoint sides, so no
        # diagonal and no overlap with the first stripe.
        unchanged = np.flatnonzero(~moved_member)
        a_idx = np.concatenate([a_idx, np.repeat(unchanged, len(changed))])
        b_idx = np.concatenate([b_idx, np.tile(changed, len(unchanged))])
        delta = new_vec[a_idx] * new_vec[b_idx] - old_vec[a_idx] * old_vec[b_idx]
        moved = delta != 0
        if not moved.any():
            continue
        src_parts.append(union[a_idx[moved]])
        dst_parts.append(union[b_idx[moved]])
        delta_parts.append(delta[moved])
    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    # The same pair can co-occur through several touched groups; sum the
    # per-group deltas and drop pairs that net out to zero.
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    deltas = np.concatenate(delta_parts)
    order = stable_int_order((src, dst))
    src, dst, deltas = src[order], dst[order], deltas[order]
    starts = np.flatnonzero(run_starts((src, dst)))
    net = np.add.reduceat(deltas, starts)
    moved = net != 0
    return src[starts][moved], dst[starts][moved], net[moved]


# ---------------------------------------------------------------------------
# Whole-view state
# ---------------------------------------------------------------------------
@dataclass
class MaintenanceState:
    """Everything needed to patch a materialized view instead of
    re-extracting it (see module docstring)."""

    edges: Rows  # (src, dst, weight), canonically sorted
    support: _SupportLedger
    co_states: dict[int, _CoState]  # edge-spec index -> state
    bookmarks: dict[str, tuple[int, int]]  # table -> (uid, version)
    capable: bool  # False: this view always takes the full path
    #: why the last refresh attempt (or state build) abandoned the
    #: incremental path; ``None`` when it has never fallen back
    last_fallback_reason: str | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges[0])

    @property
    def num_vertices(self) -> int:
        return len(self.support.live_ids)


def incremental_capable(view: GraphView) -> bool:
    """Whether every spec of the view has an incremental lowering.

    A :class:`CoEdgeSpec` with a custom aggregate weight has no
    delta form — ``AVG``/``MAX``-style aggregates are not decomposable
    over group membership changes — so such views always re-extract.
    """
    return all(
        not (isinstance(spec, CoEdgeSpec) and spec.weight is not None)
        for spec in view.edges
    )


def build_state(
    bookmarks: dict[str, tuple[int, int]],
    view: GraphView,
    node_parts: list[np.ndarray],
    edge_parts: list,
    sorted_edges: Rows,
) -> MaintenanceState:
    """Construct maintenance state from a just-completed full extraction.

    ``bookmarks`` are the ``(uid, version)`` of every base table as the
    extraction pinned and read it (see
    :attr:`~repro.graphview.lowering.LoweredExtraction.bookmarks`) — never
    re-read afterwards, so a write that lands after the pins is the next
    refresh's delta.  ``node_parts``/``edge_parts`` are the per-spec
    results the extraction produced (``edge_parts`` holds one
    :class:`~repro.graphview.lowering.EdgeSpecResult` per edge spec) and
    ``sorted_edges`` the already-canonically-ordered ``(src, dst,
    weight)`` columns the graph tables were loaded from — they become the
    edge ledger as they are (nothing is scanned, sorted or copied twice).
    A maintained :class:`CoEdgeSpec` is lowered through the expansion,
    whose result carries its filtered ``(member, via)`` side rows, so
    seeding the pair ledger costs no extra query; its pairs arrive in
    ledger order, which one linear pass confirms (and a sort restores,
    should they not).
    """
    capable = incremental_capable(view)
    reason: str | None = None if capable else "spec has no incremental lowering"
    edges = tuple(sorted_edges)
    if np.isnan(edges[2]).any() and capable:
        capable = False  # NaN breaks sorted-multiset matching
        reason = "NaN edge weight"

    support = _SupportLedger.from_derivations(np.concatenate([*node_parts, edges[0], edges[1]]))

    co_states: dict[int, _CoState] = {}
    if capable:
        try:
            for index, spec in enumerate(view.edges):
                if not isinstance(spec, CoEdgeSpec):
                    continue
                part = edge_parts[index]
                side = _side_ledger_rows(part.side_member, part.side_via)
                (src, dst, weight) = part.triples[0]
                if not np.all(weight == np.rint(weight)):
                    raise _Fallback("co-occurrence counts are not integral")
                co_states[index] = _CoState(
                    side=_sorted_rows(side), pairs=_sorted_rows((src, dst, weight))
                )
        except _Fallback as exc:
            capable = False
            reason = str(exc)
            co_states = {}

    return MaintenanceState(
        edges=edges,
        support=support,
        co_states=co_states,
        bookmarks=dict(bookmarks),
        capable=capable,
        last_fallback_reason=reason,
    )


# ---------------------------------------------------------------------------
# The incremental refresh itself
# ---------------------------------------------------------------------------
def gather_deltas(
    db: Database, state: MaintenanceState
) -> dict[str, TableDelta] | None:
    """Per-table deltas since the state's bookmarks — one consistent cut,
    taken under the database lock — or ``None`` when any table's window
    is unreconstructable."""
    deltas: dict[str, TableDelta] = {}
    with db.lock:
        for table, (uid, version) in state.bookmarks.items():
            if not db.has_table(table):
                return None
            delta = db.changes_since(table, uid, version)
            if delta is None:
                return None
            deltas[table] = delta
    return deltas


def incremental_refresh(
    db: Database,
    storage: GraphStorage,
    name: str,
    view: GraphView,
    state: MaintenanceState,
    max_delta_fraction: float | None,
) -> tuple[GraphHandle, int, int] | None:
    """Patch ``{name}_edge`` / ``{name}_node`` from base-table deltas.

    Returns ``(handle, delta_rows, statements)`` on success —
    ``statements`` counts the delta statements the refresh ran — or
    ``None`` when the caller must fall back to a full re-extraction:
    state not capable, deltas unavailable, a per-table delta above
    ``max_delta_fraction`` of its current table size (skipped when
    ``None`` — a forced incremental refresh), or an exactness guard
    tripping mid-apply.  The new bookmarks are the deltas' end versions,
    so a write that lands while the refresh runs is the next one's delta.

    On ``None`` the state may be partially consumed and must be rebuilt —
    :func:`build_state` runs as part of the full refresh anyway.  Every
    ``None`` records why on ``state.last_fallback_reason`` and logs it.
    """
    if not state.capable:
        return _fall_back(
            state, state.last_fallback_reason or "maintenance state not capable"
        )
    deltas = gather_deltas(db, state)
    if deltas is None:
        return _fall_back(
            state, "base-table deltas unavailable (change log evicted or reset)"
        )
    delta_rows = sum(d.num_rows for d in deltas.values())
    if max_delta_fraction is not None:
        for table, delta in deltas.items():
            budget = max_delta_fraction * max(db.table(table).num_rows, 1)
            if delta.num_rows > budget:
                return _fall_back(
                    state,
                    f"delta of {delta.num_rows} rows on {table!r} exceeds "
                    f"{max_delta_fraction:.0%} of the table",
                )
    if delta_rows == 0:
        handle = GraphHandle(db, name, state.num_vertices, state.num_edges)
        _refresh_bookmarks(state, deltas)
        return handle, 0, 0

    try:
        added, removed, node_added, node_removed, statements = _spec_deltas(
            view, state, deltas
        )
        if np.isnan(added[2]).any() or np.isnan(removed[2]).any():
            raise _Fallback("NaN weight in delta")
        edges = _merge(state.edges, added, removed)
        state.support.apply(
            np.concatenate([node_added, added[0], added[1]]),
            np.concatenate([node_removed, removed[0], removed[1]]),
        )
        state.edges = edges
    except _Fallback as exc:
        state.capable = False  # force the rebuild the caller now performs
        return _fall_back(state, str(exc))

    # Ledger columns are never written in place (every merge builds new
    # ones), so the tables can share them.
    src, dst, weight = state.edges
    handle = storage.replace_graph(name, src, dst, weight, state.support.live_ids)
    _refresh_bookmarks(state, deltas)
    return handle, delta_rows, statements


def _fall_back(state: MaintenanceState, reason: str) -> None:
    """Record and log why an incremental refresh is being abandoned."""
    state.last_fallback_reason = reason
    logger.info("incremental refresh fell back to full extraction: %s", reason)
    return None


def _refresh_bookmarks(state: MaintenanceState, deltas: dict[str, TableDelta]) -> None:
    state.bookmarks = {
        t: (uid, deltas[t].to_version) for t, (uid, _) in state.bookmarks.items()
    }


def _spec_deltas(
    view: GraphView,
    state: MaintenanceState,
    deltas: dict[str, TableDelta],
) -> tuple[Rows, Rows, np.ndarray, np.ndarray, int]:
    """Lower table row deltas to graph deltas across every spec.

    Each spec runs through :func:`~repro.graphview.lowering.run_spec`
    over its table's inserted rows and over its deleted rows, pinned
    without the primary key (a delta multiset may repeat a key: insert,
    delete, re-insert); an empty side runs nothing.  Every statement runs
    before any co-occurrence state moves, so one that raises leaves the
    state as it was.  Returns ``(added_edges, removed_edges,
    added_node_ids, removed_node_ids, statements)``; edges are ``(src,
    dst, weight)`` columns.
    """
    specs = [*view.vertices, *view.edges]
    ran: list[list] = []  # per spec, its (inserted, deleted) results; None: empty side
    statements = 0
    for spec in specs:
        delta = deltas[spec.table]
        uid = state.bookmarks[spec.table][0]
        sides = []
        for rows in (delta.inserted, delta.deleted):
            if rows.num_rows == 0:
                sides.append(None)
                continue
            pin = PinnedTable(spec.table, uid, delta.to_version, rows, rows.schema, None)
            sides.append(run_spec(spec, pin))
            statements += len(spec_statements(spec))
        ran.append(sides)

    node_ids: tuple[list, list] = ([], [])
    edge_parts: tuple[list[Rows], list[Rows]] = ([], [])
    for index, (spec, sides) in enumerate(zip(specs, ran)):
        if isinstance(spec, NodeSpec):
            for ids, out in zip(sides, node_ids):
                if ids is not None:
                    out.append(ids)
        elif isinstance(spec, EdgeSpec):
            for triples, out in zip(sides, edge_parts):
                out.extend(triples or [])
        else:  # CoEdgeSpec — delta-capable views always carry its state
            inserted, deleted = (
                _NO_EDGES[:2] if side is None else _side_ledger_rows(*side) for side in sides
            )
            co_state = state.co_states[index - len(view.vertices)]
            added, removed = co_state.apply_delta(inserted, deleted, state.num_edges)
            edge_parts[0].append(added)
            edge_parts[1].append(removed)

    empty_ids = np.empty(0, dtype=np.int64)
    return (
        *(_concat_rows(parts) for parts in edge_parts),
        *(np.concatenate(ids) if ids else empty_ids for ids in node_ids),
        statements,
    )


def _concat_rows(parts: list[Rows]) -> Rows:
    if not parts:
        return _NO_EDGES
    return tuple(np.concatenate(columns) for columns in zip(*parts))
