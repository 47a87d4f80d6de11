"""A transactional property-graph database (the Neo4j stand-in).

Per-object nodes and relationships, ACID-ish transactions with an on-disk
write-ahead log, and traversal-based algorithm implementations.  The paper
uses "a transactional graph database system" as its slowest baseline —
the costs this stand-in charges (per-object traversal, per-transaction WAL
appends and flushes, undo logging) are the same architectural costs, minus
the 2014 disk latencies, so the ordering in Figure 2 is preserved even
though absolute gaps compress (README.md, "Paper vs measured").
"""

from repro.baselines.graphdb.algorithms import (
    graphdb_pagerank,
    graphdb_shortest_paths,
    graphdb_wcc,
)
from repro.baselines.graphdb.store import (
    Node,
    PropertyGraphStore,
    Relationship,
    StoreConfig,
)

__all__ = [
    "PropertyGraphStore",
    "StoreConfig",
    "Node",
    "Relationship",
    "graphdb_pagerank",
    "graphdb_shortest_paths",
    "graphdb_wcc",
]
