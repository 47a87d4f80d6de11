"""Vertexica runtime configuration.

Every §2.3 optimization is a knob here so that the ablation benchmarks can
run both sides of each design decision:

* ``input_strategy`` — ``"union"`` (the paper's Table Unions optimization)
  vs ``"join"`` (the naive three-way join it replaces);
* ``n_partitions`` + ``n_workers`` — Vertex Batching / Parallel Workers
  (worker processes, on the shard plane);
* ``update_strategy`` — Update vs Replace: ``"update"`` (the default)
  vs ``"replace"``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

from repro.errors import VertexicaError

__all__ = ["VertexicaConfig"]


@dataclass(frozen=True)
class VertexicaConfig:
    """Knobs for one Vertexica run: 16 flat fields, read by the one
    superstep loop in :mod:`repro.core.coordinator` and by whichever
    data plane it drives.

    Attributes:
        n_partitions: how many vertex batches the worker input is hash
            partitioned into.  1 = a single batch; ``num_vertices`` would
            be one UDF call per vertex (the paper's "extreme case").
        n_workers: worker processes executing shard tasks.  1 (default)
            keeps execution serial; more requires ``data_plane="shards"``
            (the SQL plane stages through the engine in-process, so its
            partitions always run serially).  Any setting is fully
            deterministic (the parity suite holds serial and process
            execution to bit-identical results); parallelism only changes
            wall-clock.  The pool is held by the session: spawned once,
            not per run, over shared-memory shard state.
        executor: what runs shard tasks when ``n_workers > 1``:
            ``"processes"``, the one value (a thread pool tied serial at
            best under the GIL and was removed; README, "Paper vs
            measured").
        input_strategy: ``"union"`` or ``"join"`` (see module docstring).
            Under ``"union"`` the input query carries the vertex and
            message tables, and each partition reads its CSR out-edges
            from the graph version's index (the shard plane's topology,
            built once per edge-table version); ``"join"`` re-reads the
            edges through the three-way join every superstep.
        compute_strategy: ``"auto"`` runs the vectorized batch data plane
            for programs implementing ``compute_batch`` and falls back to
            the per-vertex scalar path otherwise; ``"scalar"`` forces the
            per-vertex path (the parity/ablation foil).  Each superstep's
            ``compute_path`` stat records which path ran.
        update_strategy: how the SQL plane applies a superstep's vertex
            updates.  ``"update"`` (default) writes the staged rows into
            the existing table as one set-oriented keyed scatter (one
            version bump however many rows change); ``"replace"`` rebuilds
            the vertex table with one ``LEFT JOIN`` against the staged rows
            and swaps it in.  Both paths leave the same rows.  The paper's
            rule picks replace unless few tuples changed; on this engine
            the scatter is the cheaper path at every density measured, 1 %
            to 100 % (``benchmarks/test_ablation_update_replace.py``), so
            there is no threshold and ``"replace"`` is the ablation's foil.
        data_plane: ``"sql"`` stages every superstep through the
            relational engine (the paper's architecture: union input SQL,
            transform UDF, staging table, SQL apply); ``"shards"`` keeps
            vertex/edge/message state resident in hash-partitioned
            columnar shards — partitioned once at run setup — and routes
            messages between shards in-plane, touching the SQL tables
            only at checkpoint boundaries and at completion.  Both
            planes are bit-identical (the parity suite holds all shipped
            programs to it); the sharded plane skips the per-superstep
            union query, the global partition lexsort, and the
            message-table round trip.  ``input_strategy`` and ``update_strategy`` are
            the paper's SQL-plane ablations: setting either away from its
            default under ``"shards"`` is an error naming the field and
            the plane.
        superstep_sync: ``"halt"``, the one value: the shard plane
            writes the vertex and message tables at checkpoint
            boundaries and once at completion, as Pregel and Giraph
            write their output at the end (no reader sees them mid-run:
            ``run`` is synchronous and served reads pin a snapshot).
            The SQL plane's tables are always current.
        use_combiner: honor the program's combiner declaration (pushed into
            SQL aggregation between supersteps).
        max_supersteps: overrides the program's cap when not ``None``.
        track_metrics: collect per-superstep statistics.
        checkpoint_every: Giraph-style fault tolerance — durably snapshot
            vertex/message/aggregator/program state into
            ``checkpoint_dir`` after every N completed supersteps (plus a
            baseline before superstep 0).  With a checkpoint on disk,
            transient mid-superstep faults roll the run back and replay
            instead of crashing it, and a killed run can be resumed.
            ``None`` (default) disables checkpointing.  The shard plane
            syncs its resident arrays into the tables just before each
            checkpoint write.  A transient fault in that sync or write
            (after the baseline) rolls back and replays like any other.
        checkpoint_dir: where run checkpoints live; required by
            ``checkpoint_every`` and ``resume``.
        resume: continue from the last durable checkpoint in
            ``checkpoint_dir`` (torn partial checkpoints are detected and
            discarded) — bit-identical to an uninterrupted run.  With no
            checkpoint present the run simply starts fresh.
        task_retries: bounded retry budget for transient faults: per
            shard task / extraction attempt, and for superstep-level
            rollback-and-replay when checkpointing is on.  0 disables
            retries.
        retry_backoff: base seconds of the capped deterministic
            exponential backoff between retries.
    """

    n_partitions: int = 4
    n_workers: int = 1
    # One value left, the default.  The field stays only because
    # benchmarks/perf/workloads.py passes executor="processes" in its
    # process workload; a benchmark change drops it there, then deletes it.
    executor: str = "processes"
    input_strategy: str = "union"
    compute_strategy: str = "auto"
    update_strategy: str = "update"
    data_plane: str = "sql"
    # One value left, the default.  The field stays only because
    # benchmarks/perf/workloads.py passes superstep_sync="halt" in its
    # SHARDS overrides; a benchmark change drops it there, then deletes it.
    superstep_sync: str = "halt"
    use_combiner: bool = True
    max_supersteps: int | None = None
    track_metrics: bool = True
    checkpoint_every: int | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    task_retries: int = 2
    retry_backoff: float = 0.01

    def validated(self) -> "VertexicaConfig":
        """Return self after checking invariants.

        Raises:
            VertexicaError: on out-of-range or unknown settings.
        """
        # Integral admits numpy ints; bool is Integral but no count.
        optional = ("max_supersteps", "checkpoint_every")
        for name in ("n_partitions", "n_workers", "task_retries", *optional):
            value = getattr(self, name)
            if not (name in optional and value is None) and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise VertexicaError(f"{name} must be an integer, got {value!r}")
        if self.n_partitions < 1:
            raise VertexicaError("n_partitions must be >= 1")
        if self.n_workers < 1:
            raise VertexicaError("n_workers must be >= 1")
        if self.executor != "processes":
            raise VertexicaError(
                f"executor must be 'processes', got {self.executor!r} (the "
                "thread executor was removed: n_workers > 1 runs worker "
                "processes on data_plane='shards', and n_workers=1 runs serially)"
            )
        if self.n_workers > 1 and self.data_plane != "shards":
            raise VertexicaError(
                f"n_workers={self.n_workers} requires data_plane='shards' (the "
                "SQL plane stages through the engine in-process and runs its "
                "partitions serially)"
            )
        if self.input_strategy not in ("union", "join"):
            raise VertexicaError(
                f"input_strategy must be 'union' or 'join', got {self.input_strategy!r}"
            )
        if self.compute_strategy not in ("auto", "scalar"):
            raise VertexicaError(
                "compute_strategy must be 'auto' or 'scalar', got "
                f"{self.compute_strategy!r} ('auto' runs the batch path "
                "whenever the program implements compute_batch)"
            )
        if self.update_strategy not in ("update", "replace"):
            raise VertexicaError(
                "update_strategy must be 'update' or 'replace', "
                f"got {self.update_strategy!r}"
            )
        if self.data_plane not in ("sql", "shards"):
            raise VertexicaError(
                f"data_plane must be 'sql' or 'shards', got {self.data_plane!r}"
            )
        if self.superstep_sync != "halt":
            raise VertexicaError(
                f"superstep_sync must be 'halt', got {self.superstep_sync!r} "
                "('every' was removed: the shard plane writes its tables at "
                "checkpoint boundaries and at completion)"
            )
        if self.data_plane == "shards":
            default = VertexicaConfig()
            for name in ("input_strategy", "update_strategy"):
                value, unset = getattr(self, name), getattr(default, name)
                if value != unset:
                    raise VertexicaError(
                        f"{name}={value!r} is a SQL-plane ablation; "
                        f"data_plane='shards' has no such stage (leave it at {unset!r})"
                    )
        if self.max_supersteps is not None and self.max_supersteps < 1:
            raise VertexicaError("max_supersteps must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise VertexicaError("checkpoint_every must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_dir is None:
            raise VertexicaError("checkpoint_every requires checkpoint_dir")
        if self.resume and self.checkpoint_dir is None:
            raise VertexicaError("resume=True requires checkpoint_dir")
        if self.task_retries < 0:
            raise VertexicaError("task_retries must be >= 0")
        if self.retry_backoff < 0:
            raise VertexicaError("retry_backoff must be >= 0")
        return self

    def with_overrides(self, **kwargs: object) -> "VertexicaConfig":
        """A copy with some fields replaced (validated).

        Raises:
            VertexicaError: on an unknown field name, naming it and the
                valid ones, or on an invalid setting.
        """
        names = [f.name for f in fields(self)]
        unknown = sorted(set(kwargs).difference(names))
        if unknown:
            raise VertexicaError(
                f"unknown config field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(names)}"
            )
        return replace(self, **kwargs).validated()  # type: ignore[arg-type]
