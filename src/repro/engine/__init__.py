"""``repro.engine`` — a from-scratch, in-memory, column-oriented RDBMS.

This package is the substrate substituting for HP Vertica in the
reproduction (see README.md, "Layout"): typed numpy-backed columns, a SQL
front end, vectorized physical operators, scalar and transform UDFs,
stored procedures, transactions, and checkpoint/recovery.

Public entry point: :class:`~repro.engine.database.Database`.
"""

from repro.engine.batch import RecordBatch
from repro.engine.column import Column
from repro.engine.database import Database, Result
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Table
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, VARCHAR, DataType

__all__ = [
    "Database",
    "Result",
    "RecordBatch",
    "Column",
    "Schema",
    "ColumnDef",
    "Table",
    "DataType",
    "INTEGER",
    "FLOAT",
    "VARCHAR",
    "BOOLEAN",
]
