"""Per-superstep and per-run metrics.

The demo GUI's "time monitor" plots runtimes; these records are its
programmatic equivalent and also feed the perf benchmark
(``benchmarks/perf/`` reports their counters per run).  Each
superstep now carries data-plane throughput — rows into the worker, rows
staged out, and vertices processed per second — so benchmark output and
the demo console can show where time goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StepStats", "SuperstepStats", "RunStats"]


@dataclass(frozen=True)
class StepStats:
    """What one superstep did on a data plane — the counts either plane
    hands the coordinator, which adds timing and builds
    :class:`SuperstepStats` from them."""

    vertices_ran: int
    vertex_updates: int
    messages_out: int
    #: worker input rows, one definition on both planes: the vertex rows
    #: plus the pending message rows, plus the edge table's rows at
    #: superstep 0 only (a run reads its edges once; a resumed or rolled
    #: back run does not count them again).  Under the join input format,
    #: the join's rows (one per vertex x out-edge x message combination).
    rows_in: int
    rows_out: int
    #: "update" | "replace" (SQL plane) | "memory" (shard plane) | "none"
    update_path: str
    #: message rows before the combiner ran (== ``messages_out`` when
    #: combining is off)
    messages_precombine: int
    #: per-shard compute seconds (empty on the SQL plane, whose
    #: partition work is not individually timed)
    shard_seconds: tuple[float, ...] = ()
    #: transient shard-task faults retried in place this superstep
    retries: int = 0


@dataclass(frozen=True)
class SuperstepStats:
    """What one superstep did and how long it took."""

    superstep: int
    active_vertices: int
    messages_in: int
    messages_out: int
    vertex_updates: int
    update_path: str  # "update" | "replace" | "none" | "memory"
    seconds: float
    #: global aggregator values produced this superstep (name, value)
    aggregated: tuple[tuple[str, float], ...] = ()
    #: worker input rows (see :attr:`StepStats.rows_in`)
    rows_in: int = 0
    #: staged output rows (vertex updates + messages + aggregator partials)
    rows_out: int = 0
    #: which compute path ran: "batch" | "scalar"
    compute_path: str = "scalar"
    #: per-shard compute seconds (sharded data plane only; empty on the
    #: SQL plane, whose partition work is not individually timed)
    shard_seconds: tuple[float, ...] = ()
    #: seconds writing the run checkpoint that closed this superstep,
    #: including the shard plane's table sync just before it (0.0 off
    #: boundaries and with checkpointing disabled).  Excluded from
    #: ``seconds``.
    checkpoint_seconds: float = 0.0
    #: True when the serving tier replayed this superstep's record from
    #: its version-keyed result cache instead of executing it
    served_from_cache: bool = False
    #: message rows staged *before* the combiner ran (equals
    #: ``messages_out`` when combining is off or nothing combined); the
    #: gap to ``messages_out`` is the message volume the combiner kept
    #: out of routing / staging / the shared-memory pipes
    messages_precombine: int = 0

    @property
    def vertices_per_sec(self) -> float:
        """Active vertices processed per second of superstep wall time."""
        return self.active_vertices / self.seconds if self.seconds > 0 else 0.0

    @property
    def shard_balance(self) -> float:
        """Max-over-mean shard compute time (1.0 = perfectly balanced;
        0.0 when shard timings were not recorded).  The closer to 1.0,
        the better parallel shard workers can scale this superstep."""
        busy = [s for s in self.shard_seconds if s > 0]
        if not busy:
            return 0.0
        return max(busy) / (sum(busy) / len(busy))

    @property
    def rows_per_sec(self) -> float:
        """Worker input rows consumed per second of superstep wall time."""
        return self.rows_in / self.seconds if self.seconds > 0 else 0.0


@dataclass
class RunStats:
    """Aggregated metrics for one Vertexica run."""

    program: str
    graph: str
    supersteps: list[SuperstepStats] = field(default_factory=list)
    total_seconds: float = 0.0
    #: transient faults retried (shard-task retries + superstep rollbacks)
    retries: int = 0
    #: completed-superstep counts restored from checkpoints instead of
    #: executed, summed over recovery events (``resume=True`` and in-run
    #: rollbacks); 0 for an undisturbed run
    recovered_supersteps: int = 0
    #: total seconds writing run checkpoints (0.0 when disabled)
    checkpoint_seconds: float = 0.0
    #: True when the serving tier answered from its version-keyed result
    #: cache — the timings then describe the *original* computation, not
    #: this request (demo console and bench output show the marker)
    served_from_cache: bool = False

    @property
    def n_supersteps(self) -> int:
        """Number of supersteps executed."""
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        """Messages produced across all supersteps."""
        return sum(s.messages_out for s in self.supersteps)

    @property
    def total_messages_precombine(self) -> int:
        """Message rows staged before combining, across all supersteps
        (equals :attr:`total_messages` when no combiner ran)."""
        return sum(s.messages_precombine for s in self.supersteps)

    @property
    def messages_combined_away(self) -> int:
        """Message rows the combiner eliminated before routing/delivery
        — the volume that never crossed staging or the executor pipes."""
        return self.total_messages_precombine - self.total_messages

    @property
    def total_vertex_updates(self) -> int:
        """Vertex-value updates across all supersteps."""
        return sum(s.vertex_updates for s in self.supersteps)

    @property
    def total_rows_in(self) -> int:
        """Worker input rows consumed across all supersteps."""
        return sum(s.rows_in for s in self.supersteps)

    @property
    def total_rows_out(self) -> int:
        """Staged output rows produced across all supersteps."""
        return sum(s.rows_out for s in self.supersteps)

    @property
    def vertices_per_sec(self) -> float:
        """Active-vertex throughput over superstep wall time."""
        superstep_seconds = sum(s.seconds for s in self.supersteps)
        if superstep_seconds <= 0:
            return 0.0
        return sum(s.active_vertices for s in self.supersteps) / superstep_seconds

    @property
    def rows_per_sec(self) -> float:
        """Worker input-row throughput over superstep wall time."""
        superstep_seconds = sum(s.seconds for s in self.supersteps)
        if superstep_seconds <= 0:
            return 0.0
        return self.total_rows_in / superstep_seconds

    def summary(self) -> str:
        """One-line human summary including data-plane throughput."""
        line = (
            f"{self.program} on {self.graph}: {self.n_supersteps} supersteps, "
            f"{self.total_messages} messages, {self.total_seconds:.3f}s"
        )
        if self.total_rows_in:
            line += (
                f" ({self.vertices_per_sec:,.0f} vertices/s, "
                f"{self.rows_per_sec:,.0f} rows/s)"
            )
        if self.recovered_supersteps:
            line += f" [recovered {self.recovered_supersteps} supersteps]"
        if self.retries:
            line += f" [{self.retries} transient retries]"
        if self.served_from_cache:
            line += " [served from cache]"
        return line

    def breakdown(self) -> str:
        """Per-superstep table showing where the time goes."""
        header = (
            f"{'step':>4} {'path':>6} {'active':>8} {'rows in':>9} "
            f"{'rows out':>9} {'msgs out':>9} {'v/sec':>11} {'seconds':>8}"
        )
        lines = [header, "-" * len(header)]
        for s in self.supersteps:
            lines.append(
                f"{s.superstep:>4} {s.compute_path:>6} {s.active_vertices:>8} "
                f"{s.rows_in:>9} {s.rows_out:>9} {s.messages_out:>9} "
                f"{s.vertices_per_sec:>11,.0f} {s.seconds:>8.3f}"
            )
        return "\n".join(lines)
