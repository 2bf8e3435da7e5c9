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

from ..common.hll import HyperLogLog
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
    def update(self, value) -> None:
        if value is None:
            self.null_count += 1
            return
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        self.ndv_sketch.add(value)

    def update_all(self, values: Iterable) -> None:
        for value in values:
            self.update(value)

    # -- queries ------------------------------------------------------------ #
    @property
    def ndv(self) -> int:
        return max(1, self.ndv_sketch.cardinality())

    def range_width(self) -> Optional[float]:
        """Numeric range, if the column is numeric with known bounds."""
        if isinstance(self.min_value, (int, float)) and isinstance(
                self.max_value, (int, float)):
            return float(self.max_value) - float(self.min_value)
        return None

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
    def from_rows(cls, schema, rows, row_bytes: int = 0) -> "TableStatistics":
        """Compute full statistics from materialized rows."""
        stats = cls(row_count=len(rows), total_bytes=row_bytes)
        for i, col in enumerate(schema):
            column_stats = ColumnStatistics()
            column_stats.update_all(row[i] for row in rows)
            stats.columns[col.name.lower()] = column_stats
        if row_bytes == 0:
            stats.total_bytes = len(rows) * schema.row_width_bytes()
        return stats


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
