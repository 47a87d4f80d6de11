"""Relational storage for Vertexica graphs.

Exactly the paper's §2.2 "Physical Storage": a *vertex* table (id, value,
state), an *edge* table (src, dst, weight), and a *message* table (sender,
receiver, value) — plus one scratch table holding worker output between
the transform call and the SQL that applies it.

Tables for a graph named ``g``:

==============  =====================================================
``g_edge``      src INTEGER, dst INTEGER, weight FLOAT   (loaded once)
``g_vertex``    id INTEGER, <value columns>, halted BOOLEAN
``g_message``   src INTEGER, dst INTEGER, <value columns>
``g_out``       worker output staging (kind, vid, dst, halted, f1,
                p0..p{K-1}: the typed payload lane)
==============  =====================================================

The vertex/message/output tables are (re)created per run because their
value column layout depends on the program's codecs: a scalar codec owns
one ``value`` column of its SQL type (the paper's layout); a vector codec
(:func:`~repro.core.codecs.vector_codec`) owns ``k`` typed FLOAT columns
``v0..v{k-1}``.
Vertex and message payloads travel through the union input and the
staging table in one lane of columns ``p0..p{K-1}``, each typed by the
codec that writes it (:func:`payload_layout`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import faults
from repro.core.codecs import ValueCodec
from repro.core.program import VertexProgram
from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.operators import stable_int_order, unique_ints
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, DataType
from repro.errors import GraphLoadError

__all__ = [
    "GraphHandle",
    "GraphStorage",
    "PayloadLayout",
    "WORKER_OUTPUT_COLUMNS",
    "canonical_edge_order",
    "edge_arrays",
    "encoded_storage",
    "payload_layout",
    "storage_arrays",
    "storage_form",
    "weight_order_key",
    "worker_output_columns",
]


def edge_arrays(
    src: Sequence[int] | np.ndarray,
    dst: Sequence[int] | np.ndarray,
    weights: Sequence[float] | np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An edge list as aligned int64 ``src``/``dst`` and float64 weight
    arrays (weights default to 1.0).

    Raises:
        GraphLoadError: the arrays differ in length.
    """
    src_arr = np.asarray(src, dtype=np.int64)
    dst_arr = np.asarray(dst, dtype=np.int64)
    if src_arr.shape != dst_arr.shape:
        raise GraphLoadError("src and dst arrays differ in length")
    if weights is None:
        return src_arr, dst_arr, np.ones(len(src_arr), dtype=np.float64)
    weight_arr = np.asarray(weights, dtype=np.float64)
    if weight_arr.shape != src_arr.shape:
        raise GraphLoadError("weights array length differs from edges")
    return src_arr, dst_arr, weight_arr


def weight_order_key(weight: np.ndarray) -> np.ndarray:
    """An int64 key whose order is a *total* order of float64 weights.

    The float's bits read as int64 already order non-negative values;
    flipping the 63 low bits of a negative one reverses its magnitude's
    order below zero.  So ``-0.0`` sorts just before ``+0.0`` (a plain
    float comparison ties them), and every NaN maps to the largest key —
    NaNs sort last and tie with each other, as ``np.argsort`` puts them.
    Equal keys therefore mean identical bytes for every non-NaN weight.
    """
    weight = np.ascontiguousarray(weight, dtype=np.float64)
    bits = weight.view(np.int64)
    key = bits ^ ((bits >> 63) & np.int64(0x7FFF_FFFF_FFFF_FFFF))
    nan = np.isnan(weight)
    if nan.any():
        key[nan] = np.iinfo(np.int64).max
    return key


def canonical_edge_order(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """The permutation sorting edges by ``(src, dst, weight)`` — exactly
    ``np.lexsort((weight_order_key(weight), dst, src))``.

    This is *the* storage order of every edge table (see
    :meth:`GraphStorage.load_graph`); incremental view maintenance keeps
    its patched tables in the same order so full and incremental refresh
    produce bit-identical relations.  Weights order by
    :func:`weight_order_key`, so parallel edges of ``-0.0`` and ``+0.0``
    land in one order whatever order they arrive in.

    Every sort is an integer sort through :func:`stable_int_order`.  The
    endpoints go first, and the weight key then orders only the runs of
    rows whose endpoints tie (parallel edges): the stable endpoint pass
    left each run in input order, so a stable sort of the runs' rows by
    ``(run, weight key)`` completes the lexsort.
    """
    keys = (np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))
    order = stable_int_order(keys)
    if len(order) < 2:
        return order
    ties = np.ones(len(order) - 1, dtype=bool)  # sorted row i ties row i + 1
    for key in keys:
        ranked = key[order]
        ties &= ranked[1:] == ranked[:-1]
    if not ties.any():
        return order
    run = np.cumsum(np.r_[True, ~ties])  # run number of every sorted row
    rows = np.flatnonzero(np.r_[ties, False] | np.r_[False, ties])
    tied = order[rows]
    order[rows] = tied[stable_int_order((run[rows], weight_order_key(weight[tied])))]
    return order


#: Worker output staging columns before the payload lane: kind 0 = vertex
#: update, 1 = message, 2 = aggregator partial.  ``dst`` is a message's
#: destination, or for kind 2 the aggregator's position in the program's
#: ``aggregators``; ``f1`` carries only aggregator partials.
WORKER_OUTPUT_COLUMNS = (
    ("kind", INTEGER, False),
    ("vid", INTEGER, False),
    ("dst", INTEGER, True),
    ("halted", BOOLEAN, True),
    ("f1", FLOAT, True),
)


@dataclass(frozen=True)
class PayloadLayout:
    """Where vertex and message payloads ride in the union input and the
    staging rows: the lane ``columns``, ``(name, SQL type)`` pairs
    ``p0..p{K-1}``.  ``vertex`` / ``message`` name the lane columns
    holding the vertex / message codec's storage columns, in the codec's
    column order; every other lane column is NULL in that role's rows."""

    columns: tuple[tuple[str, DataType], ...]
    vertex: tuple[str, ...]
    message: tuple[str, ...]


def payload_layout(program: VertexProgram) -> PayloadLayout:
    """The payload lane of a run: the one place that decides it.

    A scalar codec is a width-1 lane.  When the vertex and message codecs
    store the same SQL type (every shipped program) both roles share the
    lane from ``p0``, and it is as wide as the wider codec; otherwise the
    message lane follows the vertex lane.  Either way every value keeps
    its codec's own storage type from the union input query to the
    vertex and message tables — an INTEGER is never a FLOAT on the way.
    """
    v_codec, m_codec = program.vertex_codec, program.message_codec
    v_width, m_width = max(v_codec.width, 1), max(m_codec.width, 1)
    if v_codec.sql_type is m_codec.sql_type:
        types, message_at = (v_codec.sql_type,) * max(v_width, m_width), 0
    else:
        types, message_at = (v_codec.sql_type,) * v_width + (m_codec.sql_type,) * m_width, v_width
    names = tuple(f"p{j}" for j in range(len(types)))
    return PayloadLayout(
        tuple(zip(names, types)), names[:v_width], names[message_at : message_at + m_width]
    )


def worker_output_columns(layout: PayloadLayout) -> tuple[tuple[str, DataType, bool], ...]:
    """The staging columns of a run: the fixed columns, then the lane."""
    return WORKER_OUTPUT_COLUMNS + tuple(
        (name, dtype, True) for name, dtype in layout.columns
    )


def storage_form(codec: ValueCodec, columns: Sequence[Column]) -> tuple[np.ndarray, np.ndarray]:
    """A codec's storage form and validity from its storage columns (in
    a value table or the payload lane): the one column's values for a
    scalar codec, their ``(n, k)`` stack for a vector codec, whose NULLs
    are whole-vector NULLs (the first column's mask)."""
    if codec.is_vector:
        return np.column_stack([column.values for column in columns]), columns[0].valid
    return columns[0].values, columns[0].valid


def storage_arrays(values: np.ndarray) -> list[np.ndarray]:
    """A storage form's per-column arrays (views; the inverse of
    :func:`storage_form`'s stacking)."""
    return [values] if values.ndim == 1 else list(values.T)


def encoded_storage(codec: ValueCodec, items: list) -> tuple[np.ndarray, np.ndarray]:
    """The storage form and validity of per-value encoded items (``None``
    is NULL).  Scalar codecs get the column ``Column.from_values`` builds
    (through :func:`_scalar_storage` when it can skip the per-item
    coercion); vector codecs an ``(n, k)`` float64 block."""
    if codec.is_vector:
        valid = np.array([item is not None for item in items], dtype=bool)
        values = np.zeros((len(items), codec.width), dtype=np.float64)
        if valid.any():
            values[valid] = [item for item in items if item is not None]
        return values, valid
    storage = _scalar_storage(codec.sql_type, items)
    if storage is None:
        column = Column.from_values(codec.sql_type, items)
        storage = column.values, column.valid
    return storage


def _value_column_ddl(codec: ValueCodec) -> str:
    """The value-column clause of a vertex/message CREATE TABLE."""
    return ", ".join(f"{name} {codec.sql_type.name}" for name in codec.column_names())


def _value_columns_from_storage(
    codec: ValueCodec, values: np.ndarray, valid: np.ndarray
) -> list[Column]:
    """Table columns from a storage-encoded value array: one column per
    storage column (a 2-D ``(n, k)`` array splits into its ``k`` columns,
    each with its own copy of the whole-vector validity mask)."""
    if values.ndim == 1:
        return [Column.from_numpy(codec.sql_type, values, valid)]
    return [
        Column.from_numpy(codec.sql_type, np.ascontiguousarray(array), valid.copy())
        for array in storage_arrays(values)
    ]


def _scalar_storage(dtype: DataType, items: list) -> tuple[np.ndarray, np.ndarray] | None:
    """The storage array and validity mask ``Column.from_values(dtype,
    items)`` builds, without its per-item coercion, when every item of a
    numeric column already has the column's Python type (``float`` /
    ``int``; ``None`` is NULL and stores the column's filler) — coercion
    returns such an item unchanged.  ``None`` for anything else (numpy
    scalars, ``int`` for FLOAT, ``bool``): that takes ``from_values`` and
    its checks."""
    if set(map(type, items)) - {dtype.python_type, type(None)}:
        return None
    valid = np.ones(len(items), dtype=bool)
    if None in items:
        valid = np.array([item is not None for item in items], dtype=bool)
        filler = dtype.default_value()
        items = [filler if item is None else item for item in items]
    return np.array(items, dtype=dtype.numpy_dtype), valid


class GraphHandle:
    """A loaded graph: names of its tables plus cached size facts."""

    def __init__(self, db: Database, name: str, num_vertices: int, num_edges: int) -> None:
        self.db = db
        self.name = name
        self.num_vertices = num_vertices
        self.num_edges = num_edges

    # Table names -------------------------------------------------------
    @property
    def edge_table(self) -> str:
        """Name of the edge table."""
        return f"{self.name}_edge"

    @property
    def node_table(self) -> str:
        """Name of the node-id table (the bare vertex set)."""
        return f"{self.name}_node"

    @property
    def vertex_table(self) -> str:
        """Name of the per-run vertex state table."""
        return f"{self.name}_vertex"

    @property
    def message_table(self) -> str:
        """Name of the per-run message table."""
        return f"{self.name}_message"

    @property
    def output_table(self) -> str:
        """Name of the worker-output staging table."""
        return f"{self.name}_out"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GraphHandle({self.name!r}, |V|={self.num_vertices}, |E|={self.num_edges})"


class GraphStorage:
    """Creates, loads, and mutates the relational graph tables."""

    def __init__(self, db: Database) -> None:
        self.db = db

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_graph(
        self,
        name: str,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        num_vertices: int | None = None,
        node_ids: Sequence[int] | np.ndarray | None = None,
        presorted: bool = False,
    ) -> GraphHandle:
        """Bulk-load an edge list into ``{name}_edge`` / ``{name}_node``.

        Vertex ids must be integers; the node table is the union of
        endpoint ids with ``0..num_vertices-1`` when ``num_vertices`` is
        given (isolated vertices are kept that way) and with ``node_ids``
        when given (explicit vertex sets, e.g. from a graph view's node
        specs — members with no edges stay isolated vertices).

        Edges are stored in *canonical order* — sorted by
        ``(src, dst, weight)`` — so that any two loads of the same edge
        multiset produce bit-identical tables regardless of input order.
        Incremental graph-view maintenance relies on this: a delta-patched
        edge table and a from-scratch re-extraction land on the same rows
        in the same positions, which keeps downstream float reductions
        (message sums per vertex) bit-reproducible too.  Callers that
        already hold canonically ordered arrays pass ``presorted=True`` to
        skip the re-sort (the graph-view extractor sorts once and shares
        the order with its maintenance state).

        Raises:
            GraphLoadError: empty name, ragged arrays, or negative ids.
        """
        if not name or not name.isidentifier():
            raise GraphLoadError(f"graph name must be an identifier, got {name!r}")
        src_arr, dst_arr, weight_arr = edge_arrays(src, dst, weights)
        # The node set comes before the first DDL: a rejected load leaves
        # the graph's previous tables (and their derived state) untouched.
        ids = unique_ints(
            src_arr,
            dst_arr,
            np.arange(num_vertices or 0),
            () if node_ids is None else node_ids,
        )
        if len(ids) and ids[0] < 0:
            raise GraphLoadError("vertex ids must be non-negative")
        if not presorted:
            order = canonical_edge_order(src_arr, dst_arr, weight_arr)
            src_arr, dst_arr, weight_arr = (
                src_arr[order],
                dst_arr[order],
                weight_arr[order],
            )

        handle = GraphHandle(self.db, name, 0, len(src_arr))
        db = self.db
        # One critical section for the whole DROP/CREATE/INSERT sequence:
        # a concurrent snapshot pin must never land between the drop and
        # the reload and see the graph's tables half-gone.
        with db.lock:
            db.execute(f"DROP TABLE IF EXISTS {handle.edge_table}")
            db.execute(f"DROP TABLE IF EXISTS {handle.node_table}")
            db.execute(
                f"CREATE TABLE {handle.edge_table} "
                "(src INTEGER NOT NULL, dst INTEGER NOT NULL, weight FLOAT NOT NULL)"
            )
            edge_schema = db.table(handle.edge_table).schema
            db.insert_batch(
                handle.edge_table,
                RecordBatch(
                    edge_schema,
                    [
                        Column.from_numpy(INTEGER, src_arr),
                        Column.from_numpy(INTEGER, dst_arr),
                        Column.from_numpy(FLOAT, weight_arr),
                    ],
                ),
            )
            db.execute(f"CREATE TABLE {handle.node_table} (id INTEGER NOT NULL)")
            db.insert_batch(
                handle.node_table,
                RecordBatch(
                    db.table(handle.node_table).schema,
                    [Column.from_numpy(INTEGER, ids)],
                ),
            )
            handle.num_vertices = len(ids)
        return handle

    def replace_graph(
        self,
        name: str,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        node_ids: np.ndarray,
    ) -> GraphHandle:
        """Swap new contents into an *existing* graph's edge/node tables.

        This is the incremental-maintenance fast path: no DROP/CREATE, no
        SQL — the caller hands fully-prepared arrays (edges already in
        canonical order, node ids already sorted-unique) and each table is
        replaced wholesale via :meth:`~repro.engine.table.Table.replace_data`,
        the O(1)-beyond-batch-building pointer swap from the paper's
        Update-vs-Replace optimization.

        Raises:
            GraphLoadError: when the graph's tables do not exist yet.
        """
        edge_table = f"{name}_edge"
        node_table = f"{name}_node"
        # Both pointer swaps under the engine lock: a concurrent snapshot
        # pin must see old-edges/old-nodes or new-edges/new-nodes, never
        # a torn mix of the two.
        with self.db.lock:
            if not (self.db.has_table(edge_table) and self.db.has_table(node_table)):
                raise GraphLoadError(f"graph {name!r} is not loaded")
            edge = self.db.table(edge_table)
            edge.replace_data(
                RecordBatch(
                    edge.schema,
                    [
                        Column.from_numpy(INTEGER, src),
                        Column.from_numpy(INTEGER, dst),
                        Column.from_numpy(FLOAT, weights),
                    ],
                )
            )
            node = self.db.table(node_table)
            node.replace_data(
                RecordBatch(node.schema, [Column.from_numpy(INTEGER, node_ids)])
            )
        return GraphHandle(self.db, name, len(node_ids), len(src))

    def handle(self, name: str) -> GraphHandle:
        """Re-attach to a previously loaded graph by name."""
        edge_table = f"{name}_edge"
        node_table = f"{name}_node"
        if not (self.db.has_table(edge_table) and self.db.has_table(node_table)):
            raise GraphLoadError(f"graph {name!r} is not loaded")
        return GraphHandle(
            self.db,
            name,
            self.db.table(node_table).num_rows,
            self.db.table(edge_table).num_rows,
        )

    # ------------------------------------------------------------------
    # Per-run working tables
    # ------------------------------------------------------------------
    def setup_run(self, graph: GraphHandle, program: VertexProgram) -> None:
        """(Re)create the vertex/message/output tables for a program run
        and populate initial vertex values via
        :meth:`VertexProgram.initial_value`."""
        db = self.db
        db.execute(f"DROP TABLE IF EXISTS {graph.vertex_table}")
        db.execute(f"DROP TABLE IF EXISTS {graph.message_table}")
        db.execute(f"DROP TABLE IF EXISTS {graph.output_table}")
        db.execute(
            f"CREATE TABLE {graph.vertex_table} "
            f"(id INTEGER NOT NULL, {_value_column_ddl(program.vertex_codec)}, "
            "halted BOOLEAN NOT NULL)"
        )
        db.execute(
            f"CREATE TABLE {graph.message_table} "
            f"(src INTEGER, dst INTEGER NOT NULL, "
            f"{_value_column_ddl(program.message_codec)})"
        )
        staging_columns = ", ".join(
            f"{name} {dtype.name}{'' if nullable else ' NOT NULL'}"
            for name, dtype, nullable in worker_output_columns(payload_layout(program))
        )
        db.execute(f"CREATE TABLE {graph.output_table} ({staging_columns})")
        degrees = self.out_degrees(graph)
        id_batch = db.query_batch(f"SELECT id FROM {graph.node_table} ORDER BY id")
        ids = np.asarray(id_batch.column("id").values, dtype=np.int64)
        codec = program.vertex_codec
        n = graph.num_vertices
        # initial_value is a per-vertex program hook (runs once per run,
        # not per superstep).
        values = [
            codec.encode_or_none(
                program.initial_value(vertex_id, degrees.get(vertex_id, 0), n)
            )
            for vertex_id in ids.tolist()
        ]
        schema = db.table(graph.vertex_table).schema
        batch = RecordBatch(
            schema,
            [
                Column.from_numpy(INTEGER, ids),
                *_value_columns_from_storage(codec, *encoded_storage(codec, values)),
                Column.from_numpy(BOOLEAN, np.zeros(len(ids), dtype=bool)),
            ],
        )
        db.insert_batch(graph.vertex_table, batch)

    def out_degrees(self, graph: GraphHandle) -> dict[int, int]:
        """Out-degree per vertex (absent = 0), computed in SQL."""
        batch = self.db.query_batch(
            f"SELECT src, COUNT(*) AS deg FROM {graph.edge_table} GROUP BY src"
        )
        src, deg = batch.column("src"), batch.column("deg")
        return dict(zip(src.values.tolist(), deg.values.tolist()))

    # ------------------------------------------------------------------
    # Worker input queries (the §2.3 Table Unions optimization + its foil)
    # ------------------------------------------------------------------
    def union_input_sql(self, graph: GraphHandle, program: VertexProgram) -> str:
        """UNION ALL of the vertex and message tables renamed to one
        NULL-padded schema ``(vid, kind, i1, p0..p{K-1})`` — kind 0/2 =
        vertex/message.

        ``i1`` is a vertex's halt flag or a message's sender.  Both roles
        carry their values in the payload lane of :func:`payload_layout`,
        in their codec's own storage type; every lane column a row's role
        does not write is a typed NULL.  The edge relation, which never
        changes during a run, is not part of it: the worker reads each
        partition's out-edges from the graph version's
        :class:`~repro.core.shards.ShardIndex`.
        """
        layout = payload_layout(program)

        def lane(written: dict[str, str]) -> str:
            # Typed NULLs where a role does not write: a bare NULL would
            # type as VARCHAR.
            return "".join(
                f", {written.get(name, f'CAST(NULL AS {dtype.name})')} AS {name}"
                for name, dtype in layout.columns
            )

        v_names, m_names = program.vertex_codec.column_names(), program.message_codec.column_names()
        vertex = dict(zip(layout.vertex, (f"v.{name}" for name in v_names)))
        message = dict(zip(layout.message, (f"m.{name}" for name in m_names)))
        return (
            f"SELECT v.id AS vid, 0 AS kind, "
            f"CASE WHEN v.halted THEN 1 ELSE 0 END AS i1{lane(vertex)} "
            f"FROM {graph.vertex_table} v "
            f"UNION ALL "
            f"SELECT m.dst, 2, m.src{lane(message)} "
            f"FROM {graph.message_table} m"
        )

    def join_input_sql(self, graph: GraphHandle, program: VertexProgram) -> str:
        """The naive three-way join the paper warns against: one row per
        (vertex x out-edge x incoming-message) combination.  Each value
        arrives in its codec's own storage columns, prefixed by its table
        alias (``vvalue`` / ``mvalue``; ``vv0..`` / ``mv0..`` for vectors)."""

        def values(alias: str, codec: ValueCodec) -> str:
            return "".join(
                f", {alias}.{name} AS {alias}{name}" for name in codec.column_names()
            )

        return (
            "SELECT v.id AS vid, CASE WHEN v.halted THEN 1 ELSE 0 END AS halted"
            f"{values('v', program.vertex_codec)}, e.dst AS edst, e.weight AS eweight, "
            f"m.src AS msrc{values('m', program.message_codec)} "
            f"FROM {graph.vertex_table} v "
            f"LEFT JOIN {graph.edge_table} e ON v.id = e.src "
            f"LEFT JOIN {graph.message_table} m ON v.id = m.dst"
        )

    # ------------------------------------------------------------------
    # Applying worker output
    # ------------------------------------------------------------------
    def stage_worker_output(self, graph: GraphHandle, batch: RecordBatch) -> None:
        """Swap the worker's output batch in as the staging table's
        contents (:meth:`~repro.engine.table.Table.replace_data`: the
        batch is adopted, not copied; constraints are checked and change
        capture resets, as a truncate would).  The batch is the
        transform's own output, which nothing else holds for writing."""
        table = self.db.table(graph.output_table)
        table.replace_data(batch.with_schema(table.schema))

    def count_staged(self, graph: GraphHandle, kind: int) -> int:
        """Rows of one kind currently staged (direct column scan — this
        runs twice per superstep, so it skips the SQL round trip)."""
        data = self.db.table(graph.output_table).data()
        return int(np.count_nonzero(data.column("kind").values == kind))

    def apply_messages(
        self, graph: GraphHandle, program: VertexProgram, use_combiner: bool
    ) -> int:
        """Replace the message table with staged kind-1 rows, applying the
        program's combiner in SQL (a GROUP BY) when enabled.  Every
        superstep's messages are new, so the table is always swapped in
        wholesale (:meth:`~repro.engine.table.Table.replace_data`).

        Returns the number of messages now pending.
        """
        db = self.db
        lane = list(zip(payload_layout(program).message, program.message_codec.column_names()))
        if use_combiner and program.combiner is not None:
            # Each lane column aggregates in its own type (INTEGER sums
            # and extrema are exact).  Vector codecs combine element-wise:
            # one aggregate per column, all under the same GROUP BY.
            # Whole-vector validity means a NULL message is NULL in every
            # column, so the per-column NULL-skip of SQL aggregates cannot
            # mix lanes from different messages.
            agg_list = ", ".join(
                f"{program.combiner}({column}) AS {name}" for column, name in lane
            )
            select = (
                f"SELECT MIN(vid) AS src, dst, {agg_list} "
                f"FROM {graph.output_table} WHERE kind = 1 GROUP BY dst"
            )
        else:
            value_list = ", ".join(f"{column} AS {name}" for column, name in lane)
            select = (
                f"SELECT vid AS src, dst, {value_list} "
                f"FROM {graph.output_table} WHERE kind = 1"
            )
        message_table = db.table(graph.message_table)
        message_table.replace_data(db.query_batch(select))
        return message_table.num_rows

    def apply_vertex_updates(
        self,
        graph: GraphHandle,
        program: VertexProgram,
        replace: bool,
        superstep: int | None = None,
    ) -> int:
        """Apply staged kind-0 rows to the vertex table.

        Replace path: rebuild the whole table with one LEFT JOIN against
        the staged updates and swap it in.  Update path: one set-oriented
        write, the ``UPDATE … FROM`` of the Vertica follow-up — read the
        staged rows with one query (the vertex lane already holds the value
        columns' types), find each ``vid``'s row by ``searchsorted`` over the id
        column's stable order (one linear check when the table is
        id-ordered, as ``setup_run`` and ``sync_vertex_state`` leave it;
        after a replace step, whose join emits the updated rows first, a
        merge of a few ascending runs), and scatter every
        touched column through one :meth:`~repro.engine.table.Table.update_rows`
        call: one version bump, one changelog record, one constraint check.
        The worker stages at most one kind-0 row per existing vertex.

        Returns the number of vertex rows updated.  ``superstep`` only
        feeds the ``storage.apply`` fault-injection site.
        """
        faults.trip("storage.apply", superstep=superstep)
        db = self.db
        lane = payload_layout(program).vertex
        value_names = program.vertex_codec.column_names()
        updates = self.count_staged(graph, 0)
        if updates == 0:
            return 0
        if replace:
            value_cases = ", ".join(
                f"CASE WHEN w.vid IS NULL THEN v.{name} ELSE w.{column} END AS {name}"
                for column, name in zip(lane, value_names)
            )
            fresh = db.query_batch(
                f"SELECT v.id AS id, {value_cases}, "
                f"CASE WHEN w.vid IS NULL THEN v.halted ELSE w.halted END AS halted "
                f"FROM {graph.vertex_table} v "
                f"LEFT JOIN (SELECT vid, {', '.join(lane)}, halted "
                f"           FROM {graph.output_table} WHERE kind = 0) w "
                f"ON v.id = w.vid"
            )
            db.table(graph.vertex_table).replace_data(fresh)
            return updates
        value_list = ", ".join(f"{column} AS {name}" for column, name in zip(lane, value_names))
        staged = db.query_batch(
            f"SELECT vid, {value_list}, halted "
            f"FROM {graph.output_table} WHERE kind = 0"
        )
        table = db.table(graph.vertex_table)
        ids = table.data().column("id").values
        by_id = stable_int_order([ids])
        rows = by_id[np.searchsorted(ids[by_id], staged.column("vid").values)]
        mask = np.zeros(len(ids), dtype=bool)
        mask[rows] = True

        def scattered(name: str) -> Callable[[RecordBatch], Column]:
            # update_rows reads only the masked positions of the column.
            column = staged.column(name)
            values = np.empty(len(ids), dtype=column.values.dtype)
            valid = np.zeros(len(ids), dtype=bool)
            values[rows] = column.values
            valid[rows] = column.valid
            fresh = Column(column.dtype, values, valid)
            return lambda _current: fresh

        table.update_rows(
            mask, {name: scattered(name) for name in (*value_names, "halted")}
        )
        return updates

    # ------------------------------------------------------------------
    # Shard-plane sync (mirror resident shard state into the tables)
    # ------------------------------------------------------------------
    def sync_vertex_state(
        self,
        graph: GraphHandle,
        program: VertexProgram,
        ids: np.ndarray,
        values: np.ndarray,
        values_valid: np.ndarray,
        halted: np.ndarray,
    ) -> None:
        """Replace the vertex table with shard-resident state.

        ``values`` must already be in storage representation (the shard
        plane keeps vertex values encoded, exactly like the table
        columns — a 2-D ``(n, k)`` array for vector codecs).  Rows are
        written in ascending id order — the same order ``setup_run``
        loads and ``read_values`` reads.
        """
        table = self.db.table(graph.vertex_table)
        codec = program.vertex_codec
        table.replace_data(
            RecordBatch(
                table.schema,
                [
                    Column.from_numpy(INTEGER, ids),
                    *_value_columns_from_storage(codec, values, values_valid),
                    Column.from_numpy(BOOLEAN, halted),
                ],
            )
        )

    def sync_message_state(
        self,
        graph: GraphHandle,
        program: VertexProgram,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray,
        values_valid: np.ndarray,
    ) -> None:
        """Replace the message table with the shard plane's pending
        messages (storage-encoded values, sorted by destination)."""
        table = self.db.table(graph.message_table)
        codec = program.message_codec
        table.replace_data(
            RecordBatch(
                table.schema,
                [
                    Column.from_numpy(INTEGER, src),
                    Column.from_numpy(INTEGER, dst),
                    *_value_columns_from_storage(codec, values, values_valid),
                ],
            )
        )

    def reduce_aggregators(
        self, graph: GraphHandle, program: VertexProgram
    ) -> dict[str, float]:
        """Reduce the staged kind-2 aggregator partials in SQL.

        Returns a value per aggregator that received contributions this
        superstep (Pregel semantics: aggregators reset each superstep).
        A partial names its aggregator in ``dst`` by position in
        ``program.aggregators``.
        """
        out: dict[str, float] = {}
        for index, (name, op) in enumerate(program.aggregators.items()):
            value = self.db.execute(
                f"SELECT {op}(f1) FROM {graph.output_table} "
                f"WHERE kind = 2 AND dst = ?",
                params=(index,),
            ).scalar()
            if value is not None:
                out[name] = float(value)
        return out

    # ------------------------------------------------------------------
    # Run-state queries
    # ------------------------------------------------------------------
    def pending_messages(self, graph: GraphHandle) -> int:
        """Messages waiting for the next superstep."""
        return self.db.table(graph.message_table).num_rows

    def active_vertices(self, graph: GraphHandle) -> int:
        """Vertices that have not voted to halt (direct column scan, like
        :meth:`pending_messages` — one per superstep of the hot loop)."""
        data = self.db.table(graph.vertex_table).data()
        halted = data.column("halted")
        return int(np.count_nonzero(~halted.values))

    def read_values(self, graph: GraphHandle, program: VertexProgram) -> dict[int, Any]:
        """Final vertex values, decoded through the program's codec (one
        vectorized column pass, not a per-row decode loop)."""
        codec = program.vertex_codec
        cols = ", ".join(codec.column_names())
        batch = self.db.query_batch(
            f"SELECT id, {cols} FROM {graph.vertex_table} ORDER BY id"
        )
        ids = batch.column("id").values.tolist()
        values, valid = storage_form(
            codec, [batch.column(name) for name in codec.column_names()]
        )
        decoded = codec.decode_list(values, valid)
        return dict(zip(ids, decoded))
