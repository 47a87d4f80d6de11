"""Run-level checkpoint/resume — Pregel's fault-tolerance contract.

Giraph (the paper's baseline) checkpoints every N supersteps and recovers
a failed run from the last checkpoint; Vertexica inherits the contract
"for free" from the RDBMS.  This module is that subsystem for our
runtime: a :class:`CheckpointPolicy` decides *when* to snapshot, and
:class:`RunRecovery` durably captures everything a superstep depends on —

* the vertex table (values + halt votes) and the message table (the next
  superstep's inbox, combiner already applied);
* the aggregator values visible to the next superstep;
* opaque program state (:meth:`VertexProgram.checkpoint_state` — e.g.
  RNG state for programs that draw during supersteps);
* the facts that validate the lot: completed-superstep count, graph
  facts, and a :func:`program_fingerprint` over the program's class,
  codecs, combiner, aggregators, and scalar parameters (resuming
  PageRank(d=0.9) from a PageRank(d=0.85) checkpoint must fail loudly,
  not drift).

Both data planes produce *identical* checkpoints (cross-plane parity is a
repo invariant), so a run checkpointed on one plane may resume on the
other.

A checkpoint is one snapshot of the engine's checkpoint writer
(:mod:`repro.engine.persistence`): ``ckpt-<completed>`` holds both
tables, and its manifest's ``metadata`` carries the rest.  The directory
is fully written **before** the ``LATEST`` pointer is flipped to it
atomically, and superseded snapshots are pruned only after the flip.  A
crash mid-write therefore leaves either the old pointer (the fresh
directory is unreferenced garbage, removed on the next load) or the new
one — never a half checkpoint that loads.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any

from repro.core import faults
from repro.core.program import VertexProgram
from repro.core.storage import GraphHandle, GraphStorage
from repro.engine.batch import RecordBatch
from repro.engine.persistence import publish_snapshot, read_snapshot, write_snapshot
from repro.errors import EngineError, RecoveryError

__all__ = ["CheckpointPolicy", "RunRecovery", "RestoredRun", "program_fingerprint"]

#: checkpointed run tables: label -> GraphHandle attribute
_TABLES = (("vertex", "vertex_table"), ("message", "message_table"))


def program_fingerprint(program: VertexProgram) -> str:
    """A stable digest of everything about a program that shapes its
    superstep trajectory: class, codecs, combiner, aggregators, cap, and
    every scalar constructor-ish attribute (``iterations``, ``damping``,
    ``seed``, ...).  Mutable non-scalar state belongs in
    :meth:`VertexProgram.checkpoint_state` instead."""
    params = {
        key: value
        for key, value in sorted(vars(program).items())
        if isinstance(value, (bool, int, float, str, type(None)))
    }
    payload = {
        "class": type(program).__name__,
        "vertex_codec": program.vertex_codec.name,
        "message_codec": program.message_codec.name,
        "combiner": program.combiner,
        "aggregators": dict(sorted(program.aggregators.items())),
        "max_supersteps": program.max_supersteps,
        "params": params,
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to snapshot: after every ``every`` completed supersteps
    (``None`` disables writes; loads still work for ``resume=True``)."""

    every: int | None = None

    @property
    def enabled(self) -> bool:
        return self.every is not None

    def due(self, completed: int) -> bool:
        """True when a checkpoint should be written with ``completed``
        supersteps done.  The baseline checkpoint (``completed=0``) is
        always written when the policy is enabled, so rollback has a
        floor even before the first boundary."""
        if self.every is None:
            return False
        return completed == 0 or completed % self.every == 0


@dataclass(frozen=True)
class RestoredRun:
    """A loaded checkpoint, ready to be applied to the run tables."""

    completed: int
    aggregated: dict[str, float]
    program_state: dict[str, Any]
    tables: dict[str, RecordBatch]  # label -> data


class RunRecovery:
    """Checkpoint writer/loader for one ``(graph, program)`` run."""

    def __init__(
        self,
        storage: GraphStorage,
        graph: GraphHandle,
        program: VertexProgram,
        directory: str,
        policy: CheckpointPolicy,
    ) -> None:
        self.storage = storage
        self.graph = graph
        self.program = program
        self.directory = directory
        self.policy = policy
        self.fingerprint = program_fingerprint(program)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, completed: int, aggregated: dict[str, float]) -> float:
        """Snapshot the run with ``completed`` supersteps done; returns
        seconds spent.  Tables must already reflect that state (the shard
        plane syncs resident arrays first)."""
        started = time.perf_counter()
        metadata = {
            "completed": completed,
            "graph": {
                "name": self.graph.name,
                "num_vertices": self.graph.num_vertices,
                "num_edges": self.graph.num_edges,
            },
            "program": {"name": self.program.name, "fingerprint": self.fingerprint},
            "aggregated": dict(aggregated),
            "program_state": self.program.checkpoint_state(),
        }
        db = self.storage.db
        tables = {label: db.table(getattr(self.graph, attr)) for label, attr in _TABLES}
        name = write_snapshot(self.directory, completed, tables, metadata)
        faults.trip("checkpoint.write", superstep=completed)
        publish_snapshot(self.directory, name)
        return time.perf_counter() - started

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------
    def load(self) -> RestoredRun | None:
        """The latest durable checkpoint, or ``None`` when there is none
        (fresh directory, or only torn unreferenced writes — which are
        cleaned up here).

        Raises:
            RecoveryError: the published checkpoint is torn or unreadable,
                or was written by a different graph/program.
        """
        try:
            snapshot = read_snapshot(self.directory)
        except EngineError as exc:
            raise RecoveryError(
                f"checkpoint in {self.directory!r} is torn or unreadable ({exc}); "
                "delete the checkpoint directory to start fresh"
            ) from exc
        if snapshot is None:
            return None
        facts = snapshot.metadata
        self._validate(facts, snapshot.name)
        return RestoredRun(
            completed=int(facts["completed"]),
            aggregated={k: float(v) for k, v in facts["aggregated"].items()},
            program_state=dict(facts["program_state"]),
            tables={label: snapshot.tables[label].data() for label, _ in _TABLES},
        )

    def _validate(self, facts: dict[str, Any], name: str) -> None:
        graph = facts.get("graph", {})
        if (
            graph.get("name") != self.graph.name
            or graph.get("num_vertices") != self.graph.num_vertices
            or graph.get("num_edges") != self.graph.num_edges
        ):
            raise RecoveryError(
                f"checkpoint {name!r} was written for graph "
                f"{graph.get('name')!r} ({graph.get('num_vertices')} vertices, "
                f"{graph.get('num_edges')} edges); cannot resume "
                f"{self.graph.name!r} ({self.graph.num_vertices} vertices, "
                f"{self.graph.num_edges} edges) from it"
            )
        recorded = facts.get("program", {})
        if recorded.get("fingerprint") != self.fingerprint:
            raise RecoveryError(
                f"checkpoint {name!r} was written by program "
                f"{recorded.get('name')!r} (fingerprint "
                f"{recorded.get('fingerprint')!r}); resuming with "
                f"{self.program.name!r} (fingerprint {self.fingerprint!r}) "
                "would not be bit-identical"
            )

    # ------------------------------------------------------------------
    def restore(self, restored: RestoredRun) -> None:
        """Roll the run tables back to ``restored`` (atomic per table via
        the engine's replace path) and rewind program state."""
        db = self.storage.db
        for label, attr in _TABLES:
            db.table(getattr(self.graph, attr)).replace_data(restored.tables[label])
        self.program.restore_state(dict(restored.program_state))
