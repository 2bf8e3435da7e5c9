"""Additive table and column statistics.

Section 4.1: "The statistics are stored such that they can be combined in
an additive fashion ... For the number of distinct values, HMS uses a bit
array representation based on HyperLogLog++ which can be combined without
loss of approximation accuracy."

:class:`ColumnStatistics` therefore keeps min/max/null-count (trivially
mergeable) plus a :class:`~repro.common.hll.HyperLogLog` sketch for NDV,
and :meth:`merge` is exact over concatenated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..common.bloom import distinct
from ..common.hll import HyperLogLog
from ..common.vector import ColumnVector, VectorBatch
from ..errors import HiveError

_HLL_PRECISION = 12


@dataclass
class ColumnStatistics:
    """Statistics for one column, mergeable across partitions/inserts."""

    null_count: int = 0
    min_value: object = None
    max_value: object = None
    ndv_sketch: HyperLogLog = field(
        default_factory=lambda: HyperLogLog(_HLL_PRECISION))

    # -- updates ----------------------------------------------------------- #
    def update_vector(self, vector: ColumnVector) -> None:
        """Fold a column in.  Bounds come from :meth:`ColumnVector.bounds`
        (NULL and NaN have none); the sketch sees each *distinct* value
        once — a repeat moves no register — in its user-facing form, the
        one ``update_all`` is given."""
        convert = vector.dtype.from_storage
        self.null_count += int(vector.nulls.sum())
        low, high = vector.bounds()
        self.min_value = _merge_min(self.min_value, convert(low))
        self.max_value = _merge_max(self.max_value, convert(high))
        for value in distinct(vector.data[~vector.nulls])[0]:
            self.ndv_sketch.add(convert(value))

    def update_all(self, values: Iterable) -> None:
        """The same fold over plain Python values (``None`` is NULL)."""
        for value in values:
            if value is None:
                self.null_count += 1
                continue
            self.ndv_sketch.add(value)
            if value == value:          # a NaN counts, but bounds nothing
                self.min_value = _merge_min(self.min_value, value)
                self.max_value = _merge_max(self.max_value, value)

    # -- queries ------------------------------------------------------------ #
    @property
    def ndv(self) -> int:
        return max(1, self.ndv_sketch.cardinality())

    # -- merging ------------------------------------------------------------ #
    def merge(self, other: "ColumnStatistics") -> "ColumnStatistics":
        merged = ColumnStatistics(
            null_count=self.null_count + other.null_count,
            min_value=_merge_min(self.min_value, other.min_value),
            max_value=_merge_max(self.max_value, other.max_value),
            ndv_sketch=HyperLogLog.merge(self.ndv_sketch,
                                         other.ndv_sketch),
        )
        return merged

    def copy(self) -> "ColumnStatistics":
        return ColumnStatistics(self.null_count, self.min_value,
                                self.max_value, self.ndv_sketch.copy())


@dataclass
class TableStatistics:
    """Row count, size and per-column stats for a table or partition."""

    row_count: int = 0
    total_bytes: int = 0
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())

    def merge(self, other: "TableStatistics") -> "TableStatistics":
        merged = TableStatistics(self.row_count + other.row_count,
                                 self.total_bytes + other.total_bytes)
        names = set(self.columns) | set(other.columns)
        for name in names:
            mine, theirs = self.columns.get(name), other.columns.get(name)
            if mine and theirs:
                merged.columns[name] = ColumnStatistics.merge(mine, theirs)
            else:
                merged.columns[name] = (mine or theirs).copy()
        return merged

    def copy(self) -> "TableStatistics":
        clone = TableStatistics(self.row_count, self.total_bytes)
        clone.columns = {k: v.copy() for k, v in self.columns.items()}
        return clone

    @classmethod
    def from_batch(cls, batch: VectorBatch) -> "TableStatistics":
        """Full statistics of the rows a batch holds."""
        stats = cls(batch.num_rows,
                    batch.num_rows * batch.schema.row_width_bytes())
        for col, vector in zip(batch.schema, batch.vectors):
            column = stats.columns[col.name.lower()] = ColumnStatistics()
            column.update_vector(vector)
        return stats

    @classmethod
    def from_rows(cls, schema, rows) -> "TableStatistics":
        """The rows door: values from outside the engine."""
        return cls.from_batch(VectorBatch.from_rows(schema, rows))


def _merge_min(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _merge_max(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)
