"""The property-graph store: nodes, relationships, transactions.

Mirrors an embedded 2014-era Neo4j: every entity is a heap object with a
property dictionary, every mutation happens inside a transaction that
write-ahead-logs its operations and keeps an in-memory undo list, and
traversal walks per-object adjacency lists.  Every node lookup and
relationship record read is one store access, counted in ``accesses``;
the simulated disk cost is that count times :data:`ACCESS_LATENCY_S`.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.baselines.graphdb.wal import WriteAheadLog
from repro.errors import GraphDbCapacityError, GraphDbError

__all__ = ["ACCESS_LATENCY_S", "Node", "Relationship", "StoreConfig", "PropertyGraphStore"]

#: Simulated seconds per store access (one node lookup or relationship
#: record read): the disk a 2014 store sat on, which a RAM-resident dict
#: hides.  The paper's graph database took 589 s for PageRank over 2.28 M
#: edges, ~258 us per edge; 200 us per access keeps that order.
ACCESS_LATENCY_S = 200e-6


class Relationship:
    """A directed, typed edge with properties."""

    __slots__ = ("start", "end", "rel_type", "properties")

    def __init__(self, start: int, end: int, rel_type: str, properties: dict[str, Any]) -> None:
        self.start = start
        self.end = end
        self.rel_type = rel_type
        self.properties = properties

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"({self.start})-[:{self.rel_type}]->({self.end})"


class Node:
    """A vertex object with properties and adjacency lists."""

    __slots__ = ("id", "properties", "out_rels", "in_rels")

    def __init__(self, node_id: int) -> None:
        self.id = node_id
        self.properties: dict[str, Any] = {}
        self.out_rels: list[Relationship] = []
        self.in_rels: list[Relationship] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.id}, out={len(self.out_rels)}, in={len(self.in_rels)})"


@dataclass(frozen=True)
class StoreConfig:
    """Store limits and placement.

    Attributes:
        wal_path: WAL file location; ``None`` = a fresh temp file, deleted
            when the store is closed or garbage collected.
        max_nodes / max_relationships: capacity caps (``None`` = unlimited).
    """

    wal_path: str | None = None
    max_nodes: int | None = None
    max_relationships: int | None = None


class _Transaction:
    """One transaction: WAL-ahead logging plus an undo list."""

    def __init__(self, store: "PropertyGraphStore", tx_id: int) -> None:
        self.store = store
        self.tx_id = tx_id
        self._undo: list[Callable[[], None]] = []
        self.closed = False

    # -- mutations -------------------------------------------------------
    def create_node(self, node_id: int) -> Node:
        """Create a node (id must be new).

        Raises:
            GraphDbError: duplicate id.
            GraphDbCapacityError: store is full.
        """
        store = self.store
        if node_id in store._nodes:
            raise GraphDbError(f"node {node_id} already exists")
        cap = store.config.max_nodes
        if cap is not None and len(store._nodes) >= cap:
            raise GraphDbCapacityError(
                f"store capacity of {cap} nodes exceeded"
            )
        store.wal.log_operation(self.tx_id, "create_node", {"id": node_id})
        node = Node(node_id)
        store._nodes[node_id] = node
        self._undo.append(lambda: store._nodes.pop(node_id, None))
        return node

    def create_relationship(
        self, start: int, end: int, rel_type: str = "LINKS", **properties: Any
    ) -> Relationship:
        """Create a directed relationship between existing nodes.

        Raises:
            GraphDbError: unknown endpoint.
            GraphDbCapacityError: store is full.
        """
        store = self.store
        start_node = store.node(start)
        end_node = store.node(end)
        cap = store.config.max_relationships
        if cap is not None and store._n_relationships >= cap:
            raise GraphDbCapacityError(
                f"store capacity of {cap} relationships exceeded"
            )
        store.wal.log_operation(
            self.tx_id,
            "create_rel",
            {"start": start, "end": end, "type": rel_type, "props": properties},
        )
        rel = Relationship(start, end, rel_type, dict(properties))
        start_node.out_rels.append(rel)
        end_node.in_rels.append(rel)
        store._n_relationships += 1

        def undo() -> None:
            start_node.out_rels.remove(rel)
            end_node.in_rels.remove(rel)
            store._n_relationships -= 1

        self._undo.append(undo)
        return rel

    def set_property(self, node_id: int, key: str, value: Any) -> None:
        """Set one node property."""
        store = self.store
        node = store.node(node_id)
        store.wal.log_operation(
            self.tx_id, "set_prop", {"id": node_id, "key": key, "value": value}
        )
        had_key = key in node.properties
        old = node.properties.get(key)
        node.properties[key] = value

        def undo() -> None:
            if had_key:
                node.properties[key] = old
            else:
                node.properties.pop(key, None)

        self._undo.append(undo)

    # -- lifecycle -------------------------------------------------------
    def commit(self) -> None:
        """Seal the transaction (WAL commit marker + flush)."""
        self._ensure_open()
        self.store.wal.log_commit(self.tx_id)
        self.closed = True
        self.store._active_tx = None

    def rollback(self) -> None:
        """Undo every operation, newest first, and mark the tx aborted."""
        self._ensure_open()
        for undo in reversed(self._undo):
            undo()
        self.store.wal.log_abort(self.tx_id)
        self.closed = True
        self.store._active_tx = None

    def _ensure_open(self) -> None:
        if self.closed:
            raise GraphDbError("transaction already closed")


class PropertyGraphStore:
    """The embedded graph database."""

    def __init__(self, config: StoreConfig | None = None) -> None:
        self.config = config or StoreConfig()
        path = self.config.wal_path
        owns_wal_file = path is None
        if owns_wal_file:
            fd, path = tempfile.mkstemp(prefix="graphdb_wal_", suffix=".jsonl")
            os.close(fd)
        self.wal = WriteAheadLog(path)
        self._close_wal = weakref.finalize(self, _close_wal, self.wal, owns_wal_file)
        self._nodes: dict[int, Node] = {}
        self._n_relationships = 0
        self._next_tx_id = 1
        self._active_tx: _Transaction | None = None
        #: store accesses so far; each costs :data:`ACCESS_LATENCY_S`
        self.accesses = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """Look up a node (one store access).

        Raises:
            GraphDbError: unknown id.
        """
        self.accesses += 1
        node = self._nodes.get(node_id)
        if node is None:
            raise GraphDbError(f"unknown node {node_id}")
        return node

    def out_relationships(self, node_id: int) -> list[Relationship]:
        """A node's outgoing relationships (one access for the node, one
        per relationship record, as reading them from store pages would)."""
        node = self.node(node_id)
        self.accesses += len(node.out_rels)
        return node.out_rels

    def in_relationships(self, node_id: int) -> list[Relationship]:
        """A node's incoming relationships (counted like
        :meth:`out_relationships`)."""
        node = self.node(node_id)
        self.accesses += len(node.in_rels)
        return node.in_rels

    def has_node(self, node_id: int) -> bool:
        """True when the node exists."""
        return node_id in self._nodes

    def node_ids(self) -> list[int]:
        """All node ids, sorted (deterministic iteration order)."""
        return sorted(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Node count."""
        return len(self._nodes)

    @property
    def num_relationships(self) -> int:
        """Relationship count."""
        return self._n_relationships

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> _Transaction:
        """Open a transaction.

        Raises:
            GraphDbError: when one is already active (single-writer store).
        """
        if self._active_tx is not None and not self._active_tx.closed:
            raise GraphDbError("a transaction is already active")
        tx = _Transaction(self, self._next_tx_id)
        self._next_tx_id += 1
        self._active_tx = tx
        return tx

    @contextmanager
    def transaction(self) -> Iterator[_Transaction]:
        """``with store.transaction() as tx:`` — commit on success,
        rollback on exception (re-raised)."""
        tx = self.begin()
        try:
            yield tx
        except BaseException:
            if not tx.closed:
                tx.rollback()
            raise
        if not tx.closed:
            tx.commit()

    # ------------------------------------------------------------------
    # Bulk loading / lifecycle
    # ------------------------------------------------------------------
    def load_edge_list(
        self,
        src: Iterator[int] | Any,
        dst: Iterator[int] | Any,
        weights: Any = None,
        rel_type: str = "LINKS",
        batch_size: int = 10_000,
    ) -> None:
        """Import an edge list in committed batches (as ``neo4j-import``
        style loaders do), creating endpoint nodes on demand."""
        src = list(src)
        dst = list(dst)
        weight_list = list(weights) if weights is not None else [1.0] * len(src)
        for start in range(0, len(src), batch_size):
            with self.transaction() as tx:
                for i in range(start, min(start + batch_size, len(src))):
                    a, b = int(src[i]), int(dst[i])
                    if a not in self._nodes:
                        tx.create_node(a)
                    if b not in self._nodes:
                        tx.create_node(b)
                    tx.create_relationship(a, b, rel_type, weight=float(weight_list[i]))

    @classmethod
    def recover(cls, wal_path: str, config: StoreConfig | None = None) -> "PropertyGraphStore":
        """Rebuild a store from a write-ahead log.

        Replays the operations of *committed* transactions in log order;
        an uncommitted tail (a crash mid-transaction) is discarded, which
        is exactly the recovery guarantee the WAL exists to provide.

        The recovered store appends to a fresh temp WAL (not the source
        file) unless ``config`` names one.
        """
        store = cls(config)
        with store.transaction() as tx:
            for op in WriteAheadLog.replay(wal_path):
                if op["op"] == "create_node":
                    tx.create_node(op["id"])
                elif op["op"] == "create_rel":
                    tx.create_relationship(
                        op["start"], op["end"], op["type"], **op["props"]
                    )
                elif op["op"] == "set_prop":
                    tx.set_property(op["id"], op["key"], op["value"])
        return store

    def close(self) -> None:
        """Close the WAL (and delete it when the store created it)."""
        self._close_wal()

    def __enter__(self) -> "PropertyGraphStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _close_wal(wal: WriteAheadLog, delete: bool) -> None:
    """Close ``wal`` and delete its file when the store created it.  Runs
    once: from :meth:`PropertyGraphStore.close`, or when an unclosed store
    is garbage collected, so a temp WAL never outlives its store."""
    wal.close()
    if delete and os.path.exists(wal.path):
        os.unlink(wal.path)
