"""Transform (table) UDFs and stored procedures.

Transform UDFs are the container Vertexica runs its workers in: the engine
hash-partitions an input relation, sorts each partition, and invokes the
UDF once per partition.  Stored procedures are named Python callables that
receive the owning :class:`~repro.engine.database.Database` and issue SQL
through it — the paper's coordinator is implemented as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.batch import RecordBatch
from repro.engine.schema import Schema
from repro.errors import UdfError

__all__ = ["TransformUdf", "StoredProcedure", "UdfCatalog"]


@dataclass(frozen=True)
class TransformUdf:
    """A table-to-table user function.

    Attributes:
        name: registration name (case-insensitive).
        fn: ``fn(partition: RecordBatch, partition_index: int) -> RecordBatch``;
            must return rows matching ``output_schema``.
        output_schema: declared output shape, checked per partition.
    """

    name: str
    fn: Callable[[RecordBatch, int], RecordBatch]
    output_schema: Schema


@dataclass(frozen=True)
class StoredProcedure:
    """A named procedure: ``fn(db, *args) -> Any``."""

    name: str
    fn: Callable[..., Any]


class UdfCatalog:
    """Registry of transform UDFs and stored procedures for one database."""

    def __init__(self) -> None:
        self._transforms: dict[str, TransformUdf] = {}
        self._procedures: dict[str, StoredProcedure] = {}

    # -- transforms ------------------------------------------------------
    def register_transform(self, udf: TransformUdf) -> None:
        """Register (or replace) a transform UDF."""
        self._transforms[udf.name.lower()] = udf

    def unregister_transform(self, name: str) -> None:
        """Drop a transform UDF (and the callable it pins); a name that
        is not registered is ignored, so teardown paths can call this
        unconditionally."""
        self._transforms.pop(name.lower(), None)

    def get_transform(self, name: str) -> TransformUdf:
        """Look up a transform UDF.

        Raises:
            UdfError: unknown name.
        """
        udf = self._transforms.get(name.lower())
        if udf is None:
            raise UdfError(f"unknown transform UDF: {name!r}")
        return udf

    # -- procedures --------------------------------------------------------
    def register_procedure(self, proc: StoredProcedure) -> None:
        """Register (or replace) a stored procedure."""
        self._procedures[proc.name.lower()] = proc

    def get_procedure(self, name: str) -> StoredProcedure:
        """Look up a stored procedure.

        Raises:
            UdfError: unknown name.
        """
        proc = self._procedures.get(name.lower())
        if proc is None:
            raise UdfError(f"unknown stored procedure: {name!r}")
        return proc
