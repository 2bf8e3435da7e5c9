"""Vectorized column batches.

The runtime processes data in batches of columns rather than row-by-row,
mirroring Hive's vectorized execution model: a :class:`VectorBatch` holds
one :class:`ColumnVector` (numpy array + null mask) per schema column.
LLAP's I/O elevator produces these batches directly from the columnar file
format so that IO, cache and execution share one representation.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from ..errors import ExecutionError
from .rows import Schema
from .types import DataType

class ColumnVector:
    """One column worth of values plus a null mask.

    ``data`` is a numpy array in the type's storage representation and
    ``nulls`` is a boolean array where True marks NULL.  Values under a
    null position are unspecified.
    """

    __slots__ = ("dtype", "data", "nulls")

    def __init__(self, dtype: DataType, data: np.ndarray,
                 nulls: np.ndarray | None = None):
        self.dtype = dtype
        self.data = data
        if nulls is None:
            nulls = np.zeros(len(data), dtype=bool)
        self.nulls = nulls

    # -- construction ----------------------------------------------------- #
    @classmethod
    def from_values(cls, dtype: DataType, values: Sequence) -> "ColumnVector":
        """Build from Python values (``None`` becomes NULL)."""
        n = len(values)
        nulls = np.fromiter((v is None for v in values), dtype=bool, count=n)
        storage = [dtype.to_storage(v) for v in values]
        np_dtype = dtype.numpy_dtype
        if np_dtype == np.dtype(object):
            data = np.empty(n, dtype=object)
            for i, v in enumerate(storage):
                data[i] = "" if v is None else v
        else:
            fill = 0
            data = np.fromiter(
                (fill if v is None else v for v in storage),
                dtype=np_dtype, count=n)
        return cls(dtype, data, nulls)

    @classmethod
    def empty(cls, dtype: DataType) -> "ColumnVector":
        return cls(dtype, np.empty(0, dtype=dtype.numpy_dtype),
                   np.empty(0, dtype=bool))

    # -- basic ops --------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self.data)

    def take(self, indices: np.ndarray) -> "ColumnVector":
        return ColumnVector(self.dtype, self.data[indices],
                            self.nulls[indices])

    def filter(self, mask: np.ndarray) -> "ColumnVector":
        return ColumnVector(self.dtype, self.data[mask], self.nulls[mask])

    def slice(self, start: int, stop: int) -> "ColumnVector":
        return ColumnVector(self.dtype, self.data[start:stop],
                            self.nulls[start:stop])

    def value(self, i: int):
        """Python value at row ``i`` (``None`` if NULL)."""
        if self.nulls[i]:
            return None
        return self.dtype.from_storage(self.data[i])

    def to_values(self) -> list:
        convert = self.dtype.from_storage
        return [None if self.nulls[i] else convert(self.data[i])
                for i in range(len(self.data))]

    def bounds(self) -> tuple:
        """``(min, max)`` in storage representation over the values that
        are neither NULL nor NaN (a NaN has no place in an order);
        ``(None, None)`` when there are none.  Of equal extremes the
        first wins, so ``0.0`` before ``-0.0`` stays ``0.0``."""
        data = self.data[~self.nulls] if self.nulls.any() else self.data
        if data.dtype.kind == "f":
            data = data[~np.isnan(data)]
        if not len(data):
            return None, None
        if data.dtype == np.dtype(object):
            return min(data), max(data)
        return data[data.argmin()].item(), data[data.argmax()].item()

    @staticmethod
    def concat(vectors: Sequence["ColumnVector"]) -> "ColumnVector":
        if not vectors:
            raise ExecutionError("cannot concat zero vectors")
        dtype = vectors[0].dtype
        data = np.concatenate([v.data for v in vectors])
        nulls = np.concatenate([v.nulls for v in vectors])
        return ColumnVector(dtype, data, nulls)

    def nbytes(self) -> int:
        """Approximate memory footprint, used by the LLAP cache."""
        if self.data.dtype == np.dtype(object):
            payload = sum(len(str(v)) for v in self.data)
        else:
            payload = self.data.nbytes
        return int(payload) + self.nulls.nbytes


class VectorBatch:
    """A horizontal slice of rows stored column-wise."""

    __slots__ = ("schema", "vectors")

    def __init__(self, schema: Schema, vectors: Sequence[ColumnVector]):
        if len(schema) != len(vectors):
            raise ExecutionError(
                f"schema has {len(schema)} columns, got {len(vectors)} vectors")
        lengths = {len(v) for v in vectors}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged vectors in batch: {lengths}")
        self.schema = schema
        self.vectors = list(vectors)

    # -- construction ----------------------------------------------------- #
    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "VectorBatch":
        rows = list(rows)
        columns = []
        for i, col in enumerate(schema):
            columns.append(
                ColumnVector.from_values(col.dtype, [r[i] for r in rows]))
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "VectorBatch":
        return cls(schema, [ColumnVector.empty(c.dtype) for c in schema])

    # -- shape ------------------------------------------------------------- #
    @property
    def num_rows(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    def __len__(self) -> int:
        return self.num_rows

    def nbytes(self) -> int:
        return sum(v.nbytes() for v in self.vectors)

    # -- transforms -------------------------------------------------------- #
    def column(self, name: str) -> ColumnVector:
        return self.vectors[self.schema.index_of(name)]

    def filter(self, mask: np.ndarray) -> "VectorBatch":
        return VectorBatch(self.schema, [v.filter(mask) for v in self.vectors])

    def take(self, indices: np.ndarray) -> "VectorBatch":
        return VectorBatch(self.schema, [v.take(indices) for v in self.vectors])

    def slice(self, start: int, stop: int) -> "VectorBatch":
        return VectorBatch(self.schema,
                           [v.slice(start, stop) for v in self.vectors])

    def project(self, indices: Sequence[int], schema: Schema) -> "VectorBatch":
        return VectorBatch(schema, [self.vectors[i] for i in indices])

    def with_schema(self, schema: Schema) -> "VectorBatch":
        return VectorBatch(schema, self.vectors)

    def to_rows(self) -> list[tuple]:
        columns = [v.to_values() for v in self.vectors]
        return [tuple(col[i] for col in columns) for i in range(self.num_rows)]

    @staticmethod
    def concat(schema: Schema, batches: Sequence["VectorBatch"]) -> "VectorBatch":
        """The rows of ``batches`` in order, under ``schema``.  One
        non-empty batch is returned by reference, not copied: a vector
        is never written in place once built (the LLAP cache enforces
        it on the chunks it hands out)."""
        batches = [b for b in batches if b.num_rows > 0]
        if not batches:
            return VectorBatch.empty(schema)
        if len(batches) == 1:
            return VectorBatch(schema, batches[0].vectors)
        vectors = [ColumnVector.concat([b.vectors[i] for b in batches])
                   for i in range(len(schema))]
        return VectorBatch(schema, vectors)


def dict_codes(items: list) -> tuple[dict, np.ndarray]:
    """Factorize hashable ``items`` without sorting them.

    Returns ``(index, codes)``: each distinct item's code in
    first-occurrence order, and the int64 code of every item.  Items are
    told apart the way a dict does (hash, then ``==``), and the per-item
    work stays inside C loops.
    """
    index = dict(zip(dict.fromkeys(items), itertools.count()))
    codes = np.fromiter(map(index.__getitem__, items), dtype=np.int64,
                        count=len(items))
    return index, codes
