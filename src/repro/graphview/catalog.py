"""(De)serialization of the graph-view catalog for checkpoint/restore.

The view registry lives in the Vertexica layer, but durability belongs to
the engine: :meth:`Vertexica.checkpoint` serializes every registered view
through these helpers and ships the result as checkpoint *metadata*
(:func:`repro.engine.persistence.checkpoint_catalog`), so the registry
rides inside the snapshot's manifest — published by the same atomic
``LATEST`` flip as the tables it describes — and :meth:`Vertexica.restore`
rebuilds the handles without re-extracting anything: materialized views
re-attach to their persisted ``{name}_edge`` / ``{name}_node`` tables.
An entry records a view's name, freshness mode, declaration and
last-refreshed base-table versions; the refresh threshold is a constant
(:data:`~repro.graphview.view.DEFAULT_DELTA_THRESHOLD`), so an entry's
``delta_threshold`` key, if it has one, is ignored.

Everything here is plain JSON-able dicts; no pickle, no code execution.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import GraphViewError
from repro.graphview.spec import CoEdgeSpec, EdgeSpec, GraphView, NodeSpec

__all__ = [
    "view_to_dict",
    "view_from_dict",
    "view_fingerprint",
    "handle_manifest",
    "MANIFEST_KEY",
]

#: Key under which the view catalog lives in checkpoint metadata.
MANIFEST_KEY = "graph_views"

_SPEC_KINDS = {"node": NodeSpec, "edge": EdgeSpec, "co_edge": CoEdgeSpec}


def _spec_to_dict(spec: NodeSpec | EdgeSpec | CoEdgeSpec) -> dict[str, Any]:
    if isinstance(spec, NodeSpec):
        return {"kind": "node", "table": spec.table, "key": spec.key, "where": spec.where}
    if isinstance(spec, EdgeSpec):
        return {
            "kind": "edge",
            "table": spec.table,
            "src": spec.src,
            "dst": spec.dst,
            "weight": spec.weight,
            "where": spec.where,
            "directed": spec.directed,
        }
    if isinstance(spec, CoEdgeSpec):
        return {
            "kind": "co_edge",
            "table": spec.table,
            "member": spec.member,
            "via": spec.via,
            "weight": spec.weight,
            "where": spec.where,
        }
    raise GraphViewError(f"cannot serialize spec type {type(spec).__name__}")


def _spec_from_dict(data: dict[str, Any]):
    kind = data.get("kind")
    cls = _SPEC_KINDS.get(kind)
    if cls is None:
        raise GraphViewError(f"unknown graph-view spec kind {kind!r} in checkpoint")
    fields = {k: v for k, v in data.items() if k != "kind"}
    return cls(**fields)


def view_to_dict(view: GraphView) -> dict[str, Any]:
    """A JSON-able description of a :class:`GraphView` declaration."""
    return {
        "name": view.name,
        "vertices": [_spec_to_dict(s) for s in view.vertices],
        "edges": [_spec_to_dict(s) for s in view.edges],
    }


def view_from_dict(data: dict[str, Any]) -> GraphView:
    """Rebuild a :class:`GraphView`; validation runs as usual, so a
    corrupted manifest fails loudly instead of registering a broken view.
    """
    return GraphView(
        vertices=[_spec_from_dict(s) for s in data.get("vertices", [])],
        edges=[_spec_from_dict(s) for s in data.get("edges", [])],
        name=data.get("name"),
    )


def view_fingerprint(view: GraphView) -> str:
    """A stable digest of a view *declaration* (specs, not data).

    Two views with equal fingerprints extract identically from identical
    base tables, so ``(view_fingerprint, pinned base-table versions)``
    is a sound serving-cache key for extraction results — the same
    keying discipline the result cache applies to SQL statements.
    """
    payload = json.dumps(view_to_dict(view), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def handle_manifest(handle) -> dict[str, Any]:
    """Serialize one :class:`~repro.graphview.view.GraphViewHandle`:
    declaration, freshness mode, and the base-table versions it last
    refreshed against."""
    return {
        "name": handle.name,
        "materialized": handle.materialized,
        "view": view_to_dict(handle.view),
        "base_table_versions": handle.base_table_versions(),
    }
