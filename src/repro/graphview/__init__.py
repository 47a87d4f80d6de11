"""``repro.graphview`` — declarative graph extraction from relational tables.

The "relational friend" half of the paper: graphs usually already exist
inside normalized schemas, as foreign keys and junction tables.  This
package lets users *declare* that graph (:class:`GraphView` over
:class:`NodeSpec` / :class:`EdgeSpec` / :class:`CoEdgeSpec`), compiles the
declaration to set-oriented SQL, and loads the result into Vertexica's
vertex/edge tables — materialized with explicit ``refresh()``, or virtual
(re-extracted at every run).

Entry points: ``Vertexica.create_graph_view(...)`` for the Python DSL and
the ``CREATE [MATERIALIZED] GRAPH VIEW ... AS NODES(...) EDGES(...)``
SQL statement for the declarative surface.
"""

from repro.graphview.catalog import view_fingerprint, view_from_dict, view_to_dict
from repro.graphview.lowering import EdgeSpecResult, expand_co_occurrence
from repro.graphview.spec import CoEdgeSpec, EdgeSpec, EdgeSource, GraphView, NodeSpec
from repro.graphview.view import (
    DEFAULT_DELTA_THRESHOLD,
    ExtractionStats,
    GraphViewHandle,
)

__all__ = [
    "GraphView",
    "NodeSpec",
    "EdgeSpec",
    "CoEdgeSpec",
    "EdgeSource",
    "GraphViewHandle",
    "ExtractionStats",
    "EdgeSpecResult",
    "expand_co_occurrence",
    "DEFAULT_DELTA_THRESHOLD",
    "view_to_dict",
    "view_from_dict",
    "view_fingerprint",
]
