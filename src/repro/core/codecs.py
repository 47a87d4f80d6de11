"""Value codecs: how vertex/message values map to relational columns.

The paper stores "the vertex value" in a relational column.  Every codec
stores fixed-width INTEGER or FLOAT columns: scalar-valued programs
(PageRank, SSSP, connected components) use one column, programs with
structured state one FLOAT column per element.  A codec declares the SQL
storage layout and the encode/decode pair, so the Vertexica storage layer
can create correctly-typed vertex/message tables for any program.

Two storage shapes exist:

* **scalar** codecs (``width == 0``) own one column named ``value`` of
  ``sql_type`` — the paper's layout, unchanged;
* **vector** codecs (``width == k > 0``, built with :func:`vector_codec`)
  own ``k`` typed FLOAT columns ``v0..v{k-1}``.  Decoded form is a dense
  float64 row per vertex/message — ``(n, k)`` arrays on the batch data
  plane, ``list[float]`` on the scalar path — with no serialization on
  either side.  NULL is whole-vector NULL (all k columns at once).

For the vectorized data plane, a codec may also carry *array* hooks
(``decode_array_fn`` / ``encode_array_fn``) that map whole numpy arrays at
once; the builtin FLOAT/INTEGER/vector codecs use dtype casts (effectively
free), while codecs without hooks fall back to a per-item loop over the
scalar pair — correct for any custom codec, just not vectorized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.engine.column import Column
from repro.engine.types import FLOAT, INTEGER, DataType
from repro.errors import ProgramError

__all__ = [
    "ValueCodec",
    "FLOAT_CODEC",
    "INTEGER_CODEC",
    "vector_codec",
    "encoded_storage",
]

#: Signature of the optional vectorized hooks: (values, valid) -> values.
ArrayFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ValueCodec:
    """Bidirectional mapping between Python values and one SQL column.

    Attributes:
        name: codec identifier (used in error messages and metrics).
        sql_type: the column type holding encoded values (the per-column
            type, for vector codecs): INTEGER or FLOAT.
        encode: Python value -> storable value (None passes through as NULL).
        decode: storable value -> Python value (None passes through).
        decode_array_fn: optional vectorized decode over a storage array
            (positions where ``valid`` is False hold filler and must be
            passed through untouched).
        encode_array_fn: optional vectorized encode to a storage array.
        width: 0 for scalar codecs (one ``value`` column); ``k > 0`` for
            vector codecs (``k`` columns ``v0..v{k-1}``, storage arrays
            are 2-D ``(n, k)``).
    """

    name: str
    sql_type: DataType
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    decode_array_fn: ArrayFn | None = None
    encode_array_fn: ArrayFn | None = None
    width: int = 0

    def __post_init__(self) -> None:
        """Every value plane keeps values in fixed-width columns.

        Raises:
            ProgramError: a storage type other than INTEGER or FLOAT.
        """
        if not self.sql_type.is_numeric:
            raise ProgramError(
                f"codec {self.name!r} stores {self.sql_type.name}; value codecs "
                "store INTEGER or FLOAT columns (use vector_codec(k) for "
                "structured state)"
            )

    @property
    def is_vector(self) -> bool:
        """True when values span multiple typed storage columns."""
        return self.width > 0

    def column_names(self) -> tuple[str, ...]:
        """The storage column names this codec owns in a value table."""
        if self.width > 0:
            return tuple(f"v{j}" for j in range(self.width))
        return ("value",)

    def encode_or_none(self, value: Any) -> Any:
        """Encode, mapping ``None`` to SQL NULL."""
        if value is None:
            return None
        return self.encode(value)

    def decode_or_none(self, value: Any) -> Any:
        """Decode, mapping SQL NULL to ``None``."""
        if value is None:
            return None
        return self.decode(value)

    # ------------------------------------------------------------------
    # Vectorized paths (the batch data plane)
    # ------------------------------------------------------------------
    def decode_array(self, values: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Decode a storage array into a dense decoded array.

        NULL positions keep their filler value (callers track validity
        out-of-band, exactly like :class:`~repro.engine.column.Column`).
        """
        if self.decode_array_fn is not None:
            return self.decode_array_fn(values, valid)
        out = np.empty(len(values), dtype=object)
        for i, (item, ok) in enumerate(zip(values, valid)):
            out[i] = self.decode(item) if ok else item
        return out

    def encode_array(self, values: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Encode a decoded array into a storage array (inverse of
        :meth:`decode_array`; NULL positions pass through)."""
        if self.encode_array_fn is not None:
            return self.encode_array_fn(values, valid)
        out = np.empty(len(values), dtype=object)
        for i, (item, ok) in enumerate(zip(values, valid)):
            out[i] = self.encode(item) if ok else item
        return out

    def __reduce__(self):
        """Pickle builtin and vector codecs by *name*, not by value.

        The encode/decode fields of the bundled codecs are closures
        (``vector_codec`` builds them per width), which plain pickling
        cannot carry into a spawned worker process.  Reconstructing from
        the registry keeps programs that hold codec instances picklable
        — the process-parallel shard plane ships the program to its
        workers exactly once, at pool start.  Custom codecs fall back to
        default pickling and must use picklable callables to cross a
        process boundary.
        """
        if self.width > 0 and self.name == f"vector{self.width}":
            return (vector_codec, (self.width,))
        if _BUILTIN_CODECS.get(self.name) is self:
            return (_builtin_codec, (self.name,))
        return super().__reduce__()

    def decode_list(self, values: np.ndarray, valid: np.ndarray) -> list[Any]:
        """Decode a storage array into Python values (``None`` for NULL).

        The scalar compute path uses this to decode a whole partition in
        one pass instead of calling :meth:`decode_or_none` per row.
        """
        decoded = self.decode_array(values, valid).tolist()
        if bool(valid.all()):
            return decoded
        return [item if ok else None for item, ok in zip(decoded, valid)]


def _cast_array(dtype: Any) -> ArrayFn:
    def cast(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
        return values.astype(dtype, copy=False)

    return cast


FLOAT_CODEC = ValueCodec(
    "float",
    FLOAT,
    float,
    float,
    decode_array_fn=_cast_array(np.float64),
    encode_array_fn=_cast_array(np.float64),
)
INTEGER_CODEC = ValueCodec(
    "integer",
    INTEGER,
    int,
    int,
    decode_array_fn=_cast_array(np.int64),
    encode_array_fn=_cast_array(np.int64),
)

#: Name -> instance for the scalar builtins (pickle-by-name support).
_BUILTIN_CODECS = {
    "float": FLOAT_CODEC,
    "integer": INTEGER_CODEC,
}


def _builtin_codec(name: str) -> ValueCodec:
    """Unpickle hook: resolve a builtin scalar codec by name."""
    return _BUILTIN_CODECS[name]


# ---------------------------------------------------------------------------
# Vector codecs: fixed-width float64 state as k typed FLOAT columns
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def vector_codec(width: int) -> ValueCodec:
    """The width-``k`` float64 vector codec (cached per width).

    Storage form is ``k`` FLOAT columns ``v0..v{k-1}`` — no serialization.
    Encoded/storage representation is a float64 array of shape ``(k,)``
    per value (``(n, k)`` for a whole partition); decoded scalar-path form
    is a plain ``list[float]`` (lists in, lists out).

    Raises:
        ProgramError: ``width < 1``.
    """
    if width < 1:
        raise ProgramError(f"vector codec width must be >= 1, got {width}")

    def encode(value: Any) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != (width,):
            raise ProgramError(
                f"vector{width} codec got a value of shape {arr.shape}; "
                f"expected {width} floats"
            )
        return arr

    def decode(stored: Any) -> list[float]:
        return np.asarray(stored, dtype=np.float64).tolist()

    def cast2d(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:  # empty or degenerate inputs normalize to (n, k)
            arr = arr.reshape(len(arr) // width if width else 0, width)
        return arr

    return ValueCodec(
        f"vector{width}",
        FLOAT,
        encode,
        decode,
        decode_array_fn=cast2d,
        encode_array_fn=cast2d,
        width=width,
    )


# ---------------------------------------------------------------------------
# Storage form of encoded items
# ---------------------------------------------------------------------------
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
