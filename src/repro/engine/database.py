"""The Database facade: the public entry point of the engine.

Wires together catalog, parser, planner, executor, function/UDF registries,
transactions, and checkpointing.  A :class:`Database` is the stand-in for
the paper's "industry strength column-oriented database system": everything
Vertexica needs from Vertica — SQL with UDFs, transform functions, stored
procedures, transactions — is available on this object.

Example:
    >>> db = Database()
    >>> db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
    <...>
    >>> db.execute("INSERT INTO t VALUES (1, 2.5), (2, 4.5)")
    <...>
    >>> db.execute("SELECT SUM(v) FROM t").scalar()
    7.0
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.batch import RecordBatch
from repro.engine.catalog import Catalog
from repro.engine.changelog import ChangeLog, TableDelta
from repro.engine.executor import Result, StatementExecutor
from repro.engine.expressions import ColumnRef
from repro.engine.functions import FunctionRegistry, ScalarUdf
from repro.engine.operators import (
    BatchSourceOp,
    Operator,
    TransformOp,
    analyze_tree,
    explain_tree,
)
from repro.engine.persistence import checkpoint_catalog, restore_catalog
from repro.engine.planner import Planner
from repro.engine.schema import Schema
from repro.engine.sql.ast import SelectStatement, SetOperation
from repro.engine.sql.parser import parse_statement, parse_statements
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.engine.udf import StoredProcedure, TransformUdf, UdfCatalog
from repro.errors import SqlSyntaxError, TransactionError

__all__ = ["Database", "PinnedTable", "Result"]


@dataclass(frozen=True)
class PinnedTable:
    """One table pinned at a point in time for snapshot-isolated reads.

    ``batch`` is the table's contents *at the pinned version* — record
    batches are immutable and every mutation swaps in a fresh batch, so
    holding the reference costs nothing and stays stable no matter what
    the writer does afterwards.  ``(uid, version)`` is the same bookmark
    contract the change log uses (see :mod:`repro.engine.changelog`): a
    later read can prove the live table is still the object, at the
    version, this pin was taken from.
    """

    name: str
    uid: int
    version: int
    batch: RecordBatch
    schema: Schema
    primary_key: str | None

    def as_table(self) -> Table:
        """Materialize a detached :class:`Table` over the pinned batch —
        the copy-on-write handle snapshot readers query against.

        Shares the immutable batch (zero copy), keeps the pinned
        ``(uid, version)`` so nested pins of a shadow database stay
        truthful, and skips constraint re-checking: the data already
        passed it when it entered the live table.
        """
        table = Table.__new__(Table)
        table.name = self.name
        table.schema = self.schema
        table.primary_key = self.primary_key
        table.version = self.version
        table.uid = self.uid
        table.changelog = ChangeLog()
        table.derived = None
        table._batch = self.batch
        return table


class Database:
    """An in-memory column-oriented relational database."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self.udfs = UdfCatalog()
        #: Writer/reader interlock.  Every statement executes under this
        #: re-entrant lock, and :meth:`pin_tables` takes it too, so a
        #: snapshot pin can never observe a half-applied statement.  It
        #: does NOT make multi-statement operations atomic by itself —
        #: compound writers (graph loads, transactions, the serving
        #: tier's write path) hold it across the whole operation.
        self.lock = threading.RLock()
        self._executor = StatementExecutor(self.catalog, self.functions)
        self._tx_snapshot: tuple[dict[str, Table], dict[str, tuple[Any, int]]] | None = None
        #: number of statements executed (observability for tests/benches)
        self.statements_executed = 0
        #: parsed-statement memo — AST nodes are frozen dataclasses with
        #: parameters bound as literals, so (sql, params) fully keys them.
        self._parse_cache: dict[tuple[str, tuple[Any, ...] | None], Any] = {}
        #: statement types dispatched to an external layer (e.g. the
        #: Vertexica layer handles CREATE GRAPH VIEW); see
        #: :meth:`register_statement_handler`.
        self._statement_handlers: dict[type, Callable[["Database", Any], Result]] = {}

    @classmethod
    def from_pins(cls, pins: Iterable[PinnedTable]) -> "Database":
        """A private database whose catalog holds exactly ``pins``, each
        registered under its own name as a detached copy-on-write table
        (see :meth:`PinnedTable.as_table`) — O(#pins), zero data copies.

        The one way a reader gets a catalog of its own: snapshot readers
        query through it, and every graph-view statement runs in one.
        """
        db = cls()
        for pin in pins:
            db.catalog.register(pin.as_table())
        return db

    # ------------------------------------------------------------------
    # SQL execution
    # ------------------------------------------------------------------
    @property
    def pushdown(self) -> bool:
        """Whether the planner pushes WHERE conjuncts beneath joins/unions
        toward the scans.  On by default; flip off to A/B plans — pushed
        and unpushed plans return bit-identical batches."""
        return self._executor.planner.pushdown

    @pushdown.setter
    def pushdown(self, value: bool) -> None:
        self._executor.planner.pushdown = bool(value)

    def execute(self, sql: str, params: Sequence[Any] | None = None) -> Result:
        """Parse and run exactly one SQL statement.

        Args:
            sql: the statement text (a single statement).
            params: values for ``?`` placeholders, bound left to right.

        Returns:
            A :class:`Result`: rows for queries, affected count for DML.
        """
        statement = self._parse_cached(sql, params)
        self.statements_executed += 1
        handler = self._statement_handlers.get(type(statement))
        with self.lock:
            if handler is not None:
                return handler(self, statement)
            return self._executor.run(statement)

    def _parse_cached(self, sql: str, params: Sequence[Any] | None):
        """Parse via a bounded memo — the coordinator re-issues identical
        statement texts every superstep, so re-tokenizing them dominates
        small-graph runs otherwise.  Parameter *types* are part of the key:
        ``1``, ``1.0``, and ``True`` compare equal but bind different
        literals into the AST."""
        try:
            key = (
                sql,
                tuple((type(p), p) for p in params) if params is not None else None,
            )
            cached = self._parse_cache.get(key)
        except TypeError:  # unhashable parameter: skip the cache
            return parse_statement(sql, params)
        if cached is not None:
            return cached
        statement = parse_statement(sql, params)
        if len(self._parse_cache) >= 512:
            self._parse_cache.clear()
        self._parse_cache[key] = statement
        return statement

    def execute_script(self, sql: str) -> list[Result]:
        """Run a ';'-separated script, returning one Result per statement."""
        results = []
        with self.lock:
            for statement in parse_statements(sql):
                self.statements_executed += 1
                handler = self._statement_handlers.get(type(statement))
                if handler is not None:
                    results.append(handler(self, statement))
                else:
                    results.append(self._executor.run(statement))
        return results

    def query_batch(self, sql: str, params: Sequence[Any] | None = None) -> RecordBatch:
        """Run a query and return the raw columnar batch (no row
        materialization) — the fast path used by the Vertexica layer."""
        return self.execute(sql, params).batch

    def explain(self, sql: str) -> str:
        """The physical plan of a query as indented text."""
        statement = parse_statement(sql)
        if not isinstance(statement, (SelectStatement, SetOperation)):
            raise SqlSyntaxError("EXPLAIN supports only SELECT statements")
        plan = Planner(
            self.catalog, self.functions, pushdown=self.pushdown
        ).plan_select(statement)
        return explain_tree(plan)

    def explain_analyze(self, sql: str) -> tuple[Result, str]:
        """EXPLAIN ANALYZE: run the query and return its result together
        with the plan annotated per operator with inclusive wall time and
        output row counts."""
        statement = parse_statement(sql)
        if not isinstance(statement, (SelectStatement, SetOperation)):
            raise SqlSyntaxError("EXPLAIN ANALYZE supports only SELECT statements")
        plan = Planner(
            self.catalog, self.functions, pushdown=self.pushdown
        ).plan_select(statement)
        batch, text = analyze_tree(plan)
        self.statements_executed += 1
        return Result(batch=batch), text

    # ------------------------------------------------------------------
    # Catalog conveniences
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        """Direct access to a stored table object."""
        return self.catalog.get(name)

    def has_table(self, name: str) -> bool:
        """True when ``name`` exists in the catalog."""
        return name in self.catalog

    def table_names(self) -> list[str]:
        """Sorted list of table names."""
        return self.catalog.table_names()

    def insert_batch(self, table_name: str, batch: RecordBatch) -> int:
        """Bulk-load a record batch into a table (bypasses SQL parsing —
        this is the engine's COPY path, used by graph loaders)."""
        with self.lock:
            return self.catalog.get(table_name).insert_batch(batch)

    # ------------------------------------------------------------------
    # Change capture (incremental view maintenance)
    # ------------------------------------------------------------------
    def table_state(self, name: str, arm: bool = True) -> tuple[int, int]:
        """``(uid, version)`` of a table — the bookmark a derived view
        records so a later :meth:`changes_since` can prove the deltas it
        gets belong to the same table object it extracted from.

        Taking a bookmark *arms* change capture on the table by default:
        until the first one, mutations record nothing (tables nobody
        derives from pay zero capture overhead).  Pass ``arm=False`` for
        a read-only bookmark — snapshot pinning wants the version/uid
        pair without making every future mutation materialize delta rows
        nothing will consume."""
        table = self.catalog.get(name)
        if arm:
            table.changelog.enable(table.version)
        return table.uid, table.version

    def current_versions(self, names: Sequence[str] | None = None) -> dict[str, int]:
        """Current version per table (all tables when ``names`` is
        ``None``), without arming change capture — the read-only face of
        the version/uid machinery, used by the serving tier to key
        caches and name snapshots.

        Taken under :attr:`lock`, so the mapping is a consistent cut:
        it never interleaves with a half-applied statement.
        """
        with self.lock:
            if names is None:
                names = self.catalog.table_names()
            return {name: self.catalog.get(name).version for name in names}

    def pin_tables(self, names: Sequence[str] | None = None) -> dict[str, PinnedTable]:
        """Pin a consistent snapshot of tables for isolated reads.

        Returns one :class:`PinnedTable` per requested table (all tables
        when ``names`` is ``None``).  Pinning is O(#tables) and copies
        nothing — batches are immutable, mutations swap pointers — and
        runs under :attr:`lock`, so the set is a consistent cut even
        while a writer streams DML from another thread.  Change capture
        is *not* armed.

        Raises:
            CatalogError: a requested table does not exist.
        """
        with self.lock:
            if names is None:
                names = self.catalog.table_names()
            pins: dict[str, PinnedTable] = {}
            for name in names:
                table = self.catalog.get(name)
                pins[table.name] = PinnedTable(
                    name=table.name,
                    uid=table.uid,
                    version=table.version,
                    batch=table.data(),
                    schema=table.schema,
                    primary_key=table.primary_key,
                )
            return pins

    def release_capture(self, name: str) -> None:
        """Disarm change capture on a table and free its retained deltas.

        Call when the last derived consumer of the table is gone; the
        caller is responsible for knowing that (the Vertexica layer does
        this when the final materialized view over a table is dropped).
        A later :meth:`table_state` re-arms capture."""
        if name in self.catalog:
            self.catalog.get(name).changelog.disable()

    def changes_since(self, name: str, uid: int, version: int) -> TableDelta | None:
        """Row deltas of ``name`` since a recorded ``(uid, version)``
        bookmark, or ``None`` when unavailable: the table was dropped and
        recreated (uid mismatch), wholesale-replaced, rolled back, or the
        change log evicted the window — all of which mean the caller must
        recompute from scratch."""
        table = self.catalog.get(name)
        if table.uid != uid:
            return None
        return table.changes_since(version)

    # ------------------------------------------------------------------
    # Functions, transforms, procedures
    # ------------------------------------------------------------------
    def register_function(
        self,
        name: str,
        fn: Callable[..., Any],
        arg_types: Sequence[DataType],
        return_type: DataType,
        vectorized: bool = False,
        strict: bool = True,
    ) -> None:
        """Register a scalar UDF usable from SQL expressions."""
        self.functions.register_udf(
            ScalarUdf(name, fn, tuple(arg_types), return_type, vectorized, strict)
        )

    def register_transform(
        self,
        name: str,
        fn: Callable[[RecordBatch, int], RecordBatch],
        output_schema: Schema,
    ) -> None:
        """Register a transform (table) UDF — the worker container."""
        self.udfs.register_transform(TransformUdf(name, fn, output_schema))

    def unregister_transform(self, name: str) -> None:
        """Drop a transform UDF, releasing whatever its callable holds
        (idempotent: unknown names are ignored)."""
        self.udfs.unregister_transform(name)

    def run_transform(
        self,
        name: str,
        input_sql: str,
        partition_by: Sequence[str] = (),
        order_by: Sequence[str] = (),
        n_partitions: int = 1,
    ) -> RecordBatch:
        """Run a registered transform UDF over the result of ``input_sql``.

        The input is hash partitioned on ``partition_by`` into
        ``n_partitions`` buckets, each bucket sorted by ``order_by``, and
        the UDF invoked once per non-empty bucket, in bucket order.
        Mirrors Vertica's ``SELECT udf(...) OVER (PARTITION BY ...)``
        execution.
        """
        udf = self.udfs.get_transform(name)
        source_batch = self.query_batch(input_sql)
        op = TransformOp(
            BatchSourceOp(source_batch),
            udf.fn,
            udf.output_schema,
            [ColumnRef(c) for c in partition_by],
            [ColumnRef(c) for c in order_by],
            n_partitions,
            self.functions,
        )
        return op.execute()

    def register_statement_handler(
        self, statement_type: type, handler: Callable[["Database", Any], Result]
    ) -> None:
        """Route a parsed statement type to an external executor.

        Lets higher layers own statements the relational engine cannot
        execute by itself — the Vertexica layer registers handlers for
        ``CREATE GRAPH VIEW`` / ``DROP GRAPH VIEW`` this way.  The handler
        receives ``(db, statement)`` and must return a :class:`Result`.
        """
        self._statement_handlers[statement_type] = handler

    def register_procedure(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a stored procedure: ``fn(db, *args)``."""
        self.udfs.register_procedure(StoredProcedure(name, fn))

    def call(self, name: str, *args: Any) -> Any:
        """Invoke a stored procedure by name."""
        return self.udfs.get_procedure(name).fn(self, *args)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start a transaction (snapshot of every table; O(#tables)).

        Raises:
            TransactionError: when one is already open.
        """
        with self.lock:
            if self._tx_snapshot is not None:
                raise TransactionError("transaction already in progress")
            self._tx_snapshot = (self.catalog.tables_snapshot(), self.catalog.snapshot())

    def commit(self) -> None:
        """Commit the open transaction.

        Raises:
            TransactionError: when none is open.
        """
        if self._tx_snapshot is None:
            raise TransactionError("no transaction in progress")
        self._tx_snapshot = None

    def rollback(self) -> None:
        """Roll every table back to the :meth:`begin` snapshot: data and
        versions restored, created tables dropped, dropped tables revived.

        Raises:
            TransactionError: when none is open.
        """
        with self.lock:
            if self._tx_snapshot is None:
                raise TransactionError("no transaction in progress")
            tables, data = self._tx_snapshot
            self.catalog.restore_tables(tables)
            self.catalog.restore(data)
            self._tx_snapshot = None

    @property
    def in_transaction(self) -> bool:
        """True while a transaction is open."""
        return self._tx_snapshot is not None

    @contextlib.contextmanager
    def transaction(self) -> Iterator["Database"]:
        """``with db.transaction():`` — commit on success, roll back on
        exception (re-raised)."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        self.commit()

    # ------------------------------------------------------------------
    # Checkpoint / recovery
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str, metadata: dict[str, Any] | None = None) -> None:
        """Persist every table as a fresh snapshot of ``directory`` and
        publish it atomically (see :mod:`repro.engine.persistence` for
        the format): an interrupted call leaves the previous checkpoint
        in force.

        ``metadata`` is an optional JSON-serializable dict stored inside
        the manifest — higher layers persist their own catalogs through it
        (e.g. the Vertexica graph-view registry) and read it back with
        :func:`repro.engine.persistence.read_checkpoint_metadata`.
        """
        checkpoint_catalog(self.catalog, directory, metadata=metadata)

    @classmethod
    def restore(cls, directory: str) -> "Database":
        """Rebuild a database from the snapshot a checkpoint directory's
        ``LATEST`` pointer names."""
        db = cls()
        db.catalog = restore_catalog(directory)
        db._executor = StatementExecutor(db.catalog, db.functions)
        return db
