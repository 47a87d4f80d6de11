"""The coordinator: the stored procedure driving supersteps.

Per Figure 1 / §2.2 of the paper, the coordinator (a) builds the worker
input relation, (b) fans it out to parallel workers, (c) applies the
resulting vertex updates and messages, and (d) loops "as long as there
is any message for the next superstep" — extended, as in Pregel, to also
stop only when every vertex has voted to halt.

That loop exists once, in :meth:`Coordinator.run`.  It owns termination,
the superstep cap, rollback-and-replay, checkpoint-due and the
per-superstep stats, and drives steps (a)–(c) through the small
:class:`DataPlane` protocol, chosen once per run by
``config.data_plane``:

* ``"sql"`` — :class:`~repro.core.sqlplane.SqlDataPlane`, the paper's
  architecture verbatim: input SQL, partitioned worker transform, staging
  table, SQL apply.  Its tables are always current, so ``sync_tables``
  is a no-op.
* ``"shards"`` — :class:`~repro.core.shards.ShardedDataPlane`: the graph
  is partitioned **once** into resident vid-hash shards, which reach the
  SQL tables only when the loop calls ``sync_tables``: at each checkpoint
  boundary and once at completion.  Bit-identical to the SQL plane.

On the shard plane, ``n_workers > 1`` executes shard tasks on a pool of
worker processes that the run leases from its session
(:class:`~repro.engine.parallel.SessionPools`) for its whole length: the
pool outlives the run and is spawned once per session, not per run, and
a run's own context reaches it as the plane's bootstrap.  The SQL plane
runs its partitions serially.

Fault tolerance is the Giraph contract: with ``checkpoint_every=N`` the
run snapshots its durable state every N completed supersteps
(:mod:`repro.core.recovery`).  A transient fault anywhere in a loop turn
(the superstep, a checkpoint's sync and write, or the final sync) rolls
the tables back to the last checkpoint, rebuilds the plane from them and
replays, bounded by ``task_retries``.  Deterministic faults fail fast
*after* the rollback leaves the tables consistent, and ``resume=True``
continues a killed run from its last checkpoint — bit-identical to an
uninterrupted run on either plane.
"""

from __future__ import annotations

import time
from typing import Protocol

from repro.core import faults
from repro.core.config import VertexicaConfig
from repro.core.metrics import RunStats, StepStats, SuperstepStats
from repro.core.program import VertexProgram, supports_batch
from repro.core.recovery import CheckpointPolicy, RunRecovery
from repro.core.shards import ShardedDataPlane
from repro.core.sqlplane import SqlDataPlane
from repro.core.storage import GraphHandle, GraphStorage
from repro.engine.database import Database
from repro.engine.parallel import (
    NO_SESSION,
    PartitionExecutor,
    ProcessExecutor,
    SessionPools,
)
from repro.errors import VertexicaError

__all__ = ["Coordinator", "DataPlane", "register_coordinator", "SUPERSTEP_SAFETY_LIMIT"]

#: Hard cap when neither the program nor the config bounds supersteps;
#: prevents a buggy never-halting program from spinning forever.
SUPERSTEP_SAFETY_LIMIT = 10_000


class DataPlane(Protocol):
    """What the superstep loop needs from a data plane.  The plane holds
    the run's vertex / message state between supersteps (relational
    tables or resident shards); the loop holds everything else."""

    #: global aggregator values produced by the last :meth:`run_superstep`
    aggregated: dict[str, float]

    @property
    def pending_messages(self) -> int: ...

    @property
    def active_vertices(self) -> int: ...

    def run_superstep(self, superstep: int, aggregated: dict[str, float]) -> StepStats: ...

    def sync_tables(self, superstep: int | None = None) -> float:
        """Make the relational tables reflect the plane's state; returns
        the seconds spent (0.0 when they always do).  The loop calls it
        before each checkpoint write and once when the run completes,
        unless the tables already hold the final state (the run ended on
        a checkpoint boundary, or right after a restore)."""
        ...

    def close(self) -> None: ...


class Coordinator:
    """Drives one vertex-program run over one graph, on a worker pool
    leased from ``pools`` (the session's; without one, every run leases
    a private pool)."""

    def __init__(
        self, db: Database, config: VertexicaConfig, pools: SessionPools | None = None
    ) -> None:
        self.db = db
        self.config = config.validated()
        self.storage = GraphStorage(db)
        self.pools = pools if pools is not None else NO_SESSION

    # ------------------------------------------------------------------
    def run(self, graph: GraphHandle, program: VertexProgram) -> RunStats:
        """Execute the program to quiescence (or the superstep cap).

        Returns:
            Per-superstep and total metrics.

        Raises:
            VertexicaError: if the safety superstep limit is hit.
        """
        program.validate()
        config = self.config
        stats = RunStats(program=program.name, graph=graph.name)
        started = time.perf_counter()

        recovery = None
        if config.checkpoint_dir is not None:
            recovery = RunRecovery(
                self.storage,
                graph,
                program,
                config.checkpoint_dir,
                CheckpointPolicy(every=config.checkpoint_every),
            )
        # Resume decides *before* setup_run wipes the working tables:
        # load() only touches the checkpoint directory.
        restored = recovery.load() if (recovery is not None and config.resume) else None

        self.storage.setup_run(graph, program)
        superstep = 0
        aggregated: dict[str, float] = {}
        if restored is not None:
            recovery.restore(restored)
            aggregated = dict(restored.aggregated)
            superstep = restored.completed
            stats.recovered_supersteps += restored.completed
        elif recovery is not None and recovery.policy.enabled:
            # Baseline snapshot (0 completed supersteps): rollback and
            # resume have a floor even if the run dies in superstep 0.
            # It is written outside the loop's rollback guard because
            # there is nothing older to roll back to, so a fault here,
            # transient or not, fails the run.
            stats.checkpoint_seconds += recovery.write(0, aggregated)

        limit = config.max_supersteps or program.max_supersteps
        hard_cap = limit if limit is not None else SUPERSTEP_SAFETY_LIMIT
        use_batch = self._resolve_compute_path(program)
        compute_path = "batch" if use_batch else "scalar"
        rollbacks_left = config.task_retries
        # The completed-superstep count the tables last reflected: set up,
        # resumed, restored by a rollback, or synced for a checkpoint.
        synced = superstep
        # The session's pool for the whole run: spawned once per session,
        # not per run or per superstep.  A one-worker lease spawns nothing:
        # tasks run serially.
        with self.pools.lease(config.n_workers) as executor:
            plane = self._build_plane(graph, program, use_batch, executor)
            # The plane may hold shared-memory segments or a registered
            # transform; `plane` is rebound on rollback rebuilds and the
            # finally closes whichever one is current, even on a failed run.
            try:
                while True:
                    messages_in = plane.pending_messages
                    active = plane.active_vertices
                    done = (superstep > 0 and messages_in == 0 and active == 0) or (
                        limit is not None and superstep >= limit
                    )
                    if not done and superstep >= hard_cap:
                        raise VertexicaError(
                            f"superstep safety limit ({hard_cap}) exceeded by "
                            f"{program.name}; declare max_supersteps"
                        )

                    # One rollback guard covers the superstep and every
                    # table write at its boundary: a checkpoint's sync and
                    # write, and the final sync.
                    try:
                        if done:
                            # Final vertex values, and any messages still
                            # pending under a superstep cap, reach the
                            # tables, unless they already hold this state.
                            if synced != superstep:
                                plane.sync_tables(superstep)
                            break
                        step_started = time.perf_counter()
                        step = plane.run_superstep(superstep, aggregated)
                        seconds = time.perf_counter() - step_started
                        aggregated = dict(plane.aggregated)
                        checkpoint_seconds = 0.0
                        if recovery is not None and recovery.policy.due(superstep + 1):
                            # Plane state reaches the tables before the
                            # checkpoint snapshots them.
                            checkpoint_seconds = plane.sync_tables(superstep)
                            checkpoint_seconds += recovery.write(superstep + 1, aggregated)
                            synced = superstep + 1
                    except Exception as exc:
                        # A fault that escaped the plane may have left its
                        # state half-stepped; the rollback restores the
                        # tables, then the plane is rebuilt from them
                        # (anything a plane holds beyond them is cache).
                        superstep, aggregated = self._rollback_or_raise(
                            exc, recovery, stats, rollbacks_left
                        )
                        synced = superstep
                        rollbacks_left -= 1
                        plane.close()
                        plane = self._build_plane(graph, program, use_batch, executor)
                        continue
                    stats.retries += step.retries
                    stats.checkpoint_seconds += checkpoint_seconds

                    if config.track_metrics:
                        stats.supersteps.append(
                            SuperstepStats(
                                superstep=superstep,
                                active_vertices=step.vertices_ran,
                                messages_in=messages_in,
                                messages_out=step.messages_out,
                                vertex_updates=step.vertex_updates,
                                update_path=step.update_path,
                                seconds=seconds,
                                aggregated=tuple(sorted(aggregated.items())),
                                rows_in=step.rows_in,
                                rows_out=step.rows_out,
                                compute_path=compute_path,
                                shard_seconds=step.shard_seconds,
                                checkpoint_seconds=checkpoint_seconds,
                                messages_precombine=step.messages_precombine,
                            )
                        )
                    superstep += 1
            except BaseException as exc:
                if not isinstance(exc, Exception) and isinstance(executor, ProcessExecutor):
                    # A kill may have cut a worker exchange short: drop the
                    # pool (the next run respawns it) before the plane's
                    # close would talk to its workers.
                    executor.close()
                raise
            finally:
                plane.close()
        stats.total_seconds = time.perf_counter() - started
        return stats

    def _build_plane(
        self,
        graph: GraphHandle,
        program: VertexProgram,
        use_batch: bool,
        executor: PartitionExecutor,
    ) -> DataPlane:
        """The run's data plane over the current table state — the one
        place ``config.data_plane`` is consulted."""
        if self.config.data_plane == "sql":
            return SqlDataPlane(self.storage, graph, program, self.config, use_batch)
        # Adopts pending messages from the message table, so a plane built
        # over restored checkpoint state resumes mid-run with the exact
        # inboxes (and delivery order) of the original.
        plane = ShardedDataPlane(self.storage, graph, program, self.config, use_batch)
        # On a worker-process pool this moves the resident shard arrays
        # into shared memory and installs the plane bootstrap in the
        # workers (no-op for the serial executor).
        plane.bind_executor(executor)
        return plane

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _rollback_or_raise(
        self,
        exc: Exception,
        recovery: RunRecovery | None,
        stats: RunStats,
        rollbacks_left: int,
    ) -> tuple[int, dict[str, float]]:
        """Handle a fault that escaped a superstep.

        Without checkpointing there is nothing to roll back to: re-raise
        (the PR-1 crash-consistency contract — tables stay analyzable).
        With it, restore the last checkpoint either way; then transient
        faults with budget left replay from there, while deterministic
        faults (and exhausted budgets) fail fast — after the rollback, so
        the tables are left in the checkpoint's consistent state.
        """
        if recovery is None or not recovery.policy.enabled:
            raise exc
        restored = recovery.load()
        if restored is None:
            raise exc
        recovery.restore(restored)
        # Replayed supersteps get re-recorded; drop their first take.
        stats.supersteps[:] = [
            s for s in stats.supersteps if s.superstep < restored.completed
        ]
        if rollbacks_left <= 0 or not faults.is_transient(exc):
            raise exc
        stats.retries += 1
        stats.recovered_supersteps += restored.completed
        return restored.completed, dict(restored.aggregated)

    # ------------------------------------------------------------------
    def _resolve_compute_path(self, program: VertexProgram) -> bool:
        """The vectorized batch path when the program supports it, unless
        ``compute_strategy="scalar"`` forces the per-vertex path."""
        return self.config.compute_strategy == "auto" and supports_batch(program)


def register_coordinator(db: Database, pools: SessionPools | None = None) -> None:
    """Install the coordinator as the stored procedure ``vertexica_run``,
    matching the paper's architecture ("We implement the coordinator as a
    stored procedure").  Call it via::

        db.call("vertexica_run", graph_handle, program, config)

    Its runs lease their worker pool from ``pools`` — the session's, the
    procedure's long-lived server resources (``None``: every run leases a
    private pool).
    """

    def procedure(
        db_: Database, graph: GraphHandle, program: VertexProgram, config: VertexicaConfig
    ) -> RunStats:
        return Coordinator(db_, config, pools).run(graph, program)

    db.register_procedure("vertexica_run", procedure)
