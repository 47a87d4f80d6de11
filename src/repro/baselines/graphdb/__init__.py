"""A transactional property-graph database (the Neo4j stand-in).

Per-object nodes and relationships, ACID-ish transactions with an on-disk
write-ahead log, and traversal-based algorithm implementations.  The paper
uses "a transactional graph database system" as its slowest baseline.
This stand-in pays the same architectural costs in real time (per-object
traversal, per-transaction WAL appends and flushes, undo logging) and
counts its store accesses, which callers charge at ``ACCESS_LATENCY_S``
each in place of the 2014 disk latencies (README.md, "Paper vs
measured").
"""

from repro.baselines.graphdb.algorithms import (
    graphdb_pagerank,
    graphdb_shortest_paths,
    graphdb_wcc,
)
from repro.baselines.graphdb.store import (
    ACCESS_LATENCY_S,
    Node,
    PropertyGraphStore,
    Relationship,
    StoreConfig,
)

__all__ = [
    "ACCESS_LATENCY_S",
    "PropertyGraphStore",
    "StoreConfig",
    "Node",
    "Relationship",
    "graphdb_pagerank",
    "graphdb_shortest_paths",
    "graphdb_wcc",
]
