"""The SQL-staged superstep data plane (``data_plane="sql"``).

The paper's architecture verbatim (§2.2, Figure 1): every superstep
builds the worker input relation with SQL (the Table Unions query, or
the naive three-way join it replaces), hash-partitions and sorts it
inside ``TransformOp``, runs the worker as a partitioned transform UDF,
stages its output into a table, and applies vertex updates (Update vs
Replace), messages and aggregators back with SQL.  The relational
tables *are* the run state, so there is nothing to sync and a plane
built over restored checkpoint tables simply continues from them.
"""

from __future__ import annotations

from repro.core.config import VertexicaConfig
from repro.core.metrics import StepStats
from repro.core.program import VertexProgram
from repro.core.shards import shard_index
from repro.core.storage import GraphHandle, GraphStorage
from repro.core.worker import VertexWorker

__all__ = ["SqlDataPlane"]


class SqlDataPlane:
    """One run's SQL-plane state: the worker transform registration,
    released by :meth:`close`, and under the union input format the graph
    version's topology (:func:`~repro.core.shards.shard_index` — the
    index the shard plane partitions by, kept on the edge table, so a
    rollback's rebuilt plane and a later run on either plane reuse it).
    """

    def __init__(
        self,
        storage: GraphStorage,
        graph: GraphHandle,
        program: VertexProgram,
        config: VertexicaConfig,
        use_batch: bool | None = None,
    ) -> None:
        self.storage = storage
        self.db = storage.db
        self.graph = graph
        self.program = program
        self.config = config
        self.use_batch = use_batch
        self.aggregated: dict[str, float] = {}
        self._last_output = None
        self.transform_name = f"{graph.name}_worker"
        # Update vs Replace is read once per run: the keyed scatter unless
        # the ablation asks for the LEFT JOIN rebuild.
        self.replace = config.update_strategy == "replace"
        # The edge relation never changes during a run, so the union input
        # carries none: partition p reads its CSR out-edges from shard p of
        # the graph version's index, the shard plane's topology.
        self.topology = (
            shard_index(self.db, graph, config.n_partitions)[0]
            if config.input_strategy == "union"
            else None
        )

    # ------------------------------------------------------------------
    # Run-state queries (the coordinator's halt condition)
    # ------------------------------------------------------------------
    @property
    def pending_messages(self) -> int:
        return self.storage.pending_messages(self.graph)

    @property
    def active_vertices(self) -> int:
        return self.storage.active_vertices(self.graph)

    # ------------------------------------------------------------------
    # One superstep
    # ------------------------------------------------------------------
    def run_superstep(self, superstep: int, aggregated: dict[str, float]) -> StepStats:
        """Input SQL -> partitioned worker transform (its partitions run
        serially) -> staging table -> SQL apply of vertex updates,
        messages and aggregators (into :attr:`aggregated`)."""
        config, storage, graph, program = self.config, self.storage, self.graph, self.program
        worker = VertexWorker(
            program,
            superstep,
            graph.num_vertices,
            input_format=config.input_strategy,
            aggregated=aggregated,
            use_batch=self.use_batch,
            topology=self.topology,
        )
        self.db.register_transform(self.transform_name, worker, worker.schema)
        edge_rows = 0
        if self.topology is not None:
            input_sql = storage.union_input_sql(graph, program)
            order_by = ("vid", "kind")
            # The edges count as read once per run, at superstep 0, as on
            # the shard plane.
            edge_rows = graph.num_edges if superstep == 0 else 0
        else:
            input_sql = storage.join_input_sql(graph, program)
            order_by = ("vid", "edst", "msrc")
        # Held until the next superstep's output replaces it (as the loop's
        # locals used to hold it): releasing the staged arrays at the end
        # of every superstep makes the allocator trim and re-fault them —
        # +5 % op_s on the benchmark's pagerank_sql workload, measured.
        output = self._last_output = self.db.run_transform(
            self.transform_name,
            input_sql,
            partition_by=("vid",),
            order_by=order_by,
            n_partitions=config.n_partitions,
        )
        storage.stage_worker_output(graph, output)

        vertex_updates, messages_staged, _ = storage.count_staged(graph)
        storage.apply_vertex_updates(
            graph, program, self.replace, superstep=superstep, updates=vertex_updates
        )
        messages_out = storage.apply_messages(graph, program, config.use_combiner)
        self.aggregated = storage.reduce_aggregators(graph, program)
        return StepStats(
            vertices_ran=worker.vertices_ran,
            vertex_updates=vertex_updates,
            messages_out=messages_out,
            rows_in=worker.rows_in + edge_rows,
            rows_out=output.num_rows,
            update_path=config.update_strategy if vertex_updates else "none",
            messages_precombine=messages_staged,
        )

    # ------------------------------------------------------------------
    def sync_tables(self, superstep: int | None = None) -> float:
        """Nothing to mirror: the tables are always current."""
        return 0.0

    def close(self) -> None:
        """Unregister the worker transform so the database stops pinning
        the last worker and the program closure (idempotent).  The
        topology stays on the edge table for later runs."""
        self.db.unregister_transform(self.transform_name)
