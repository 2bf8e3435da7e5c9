"""ORC-like columnar file format.

A faithful miniature of the ORC design the paper relies on (Sections 3.2
and 5.1):

* data is split into **row groups** (default 4096 rows) stored column-wise,
* every column stream is run-length encoded (:mod:`repro.common.rle`),
* the footer records, per row group and column, the byte range of the
  stream plus **min/max statistics** and an optional **Bloom filter**,
* readers evaluate *sargable* predicates against the footer to skip entire
  row groups without touching their bytes — the file-format half of the
  I/O-elevator pushdown and of dynamic semijoin reduction.

Layout::

    [column streams, row group by row group]
    [footer]
    [footer length : i64][magic "PORC"]

The footer is cheap to read relative to the data (LLAP caches it
separately as "metadata"), so ``OrcReader`` can be constructed from the
tail of the file only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..common import rle
from ..common.bloom import BloomFilter
from ..common.rows import Column, Schema
from ..common.types import DataType, type_from_name
from ..common.vector import ColumnVector, VectorBatch
from ..errors import HiveError
from .encoding import ByteReader, ByteWriter, CorruptFileError

MAGIC = b"PORC"
DEFAULT_ROW_GROUP_SIZE = 4096

# canonical literal-stream dtypes per type family
_STREAM_DTYPES = {
    "BOOLEAN": np.dtype(np.uint8),
    "INT": np.dtype(np.int64),
    "BIGINT": np.dtype(np.int64),
    "DOUBLE": np.dtype(np.float64),
    "DECIMAL": np.dtype(np.float64),
    "DATE": np.dtype(np.int32),
    "TIMESTAMP": np.dtype(np.int64),
}


# --------------------------------------------------------------------------- #
# sargable predicates

@dataclass(frozen=True)
class SargPredicate:
    """A pushed-down predicate the reader can evaluate on footer stats.

    ``op`` is one of ``= < <= > >= in between``; ``value`` is the literal
    (a tuple for ``in``/``between``).  Values must already be in storage
    representation (e.g. DATE as days since epoch).
    """

    column: str
    op: str
    value: object

    def matches_range(self, lo, hi, null_count: int, num_rows: int) -> bool:
        """Can any row in a group with stats [lo, hi] satisfy this?"""
        if lo is None or hi is None:
            # all-null group: only IS NULL could match, which is not sargable
            return null_count > 0 and num_rows == null_count and False or (
                lo is not None)
        if self.op == "=":
            return lo <= self.value <= hi
        if self.op == "<":
            return lo < self.value
        if self.op == "<=":
            return lo <= self.value
        if self.op == ">":
            return hi > self.value
        if self.op == ">=":
            return hi >= self.value
        if self.op == "in":
            return any(lo <= v <= hi for v in self.value)
        if self.op == "between":
            low, high = self.value
            return not (hi < low or lo > high)
        raise HiveError(f"unknown sarg op {self.op!r}")


# --------------------------------------------------------------------------- #
# footer metadata

@dataclass
class ColumnStats:
    """Per-column, per-row-group statistics."""

    min_value: object = None
    max_value: object = None
    null_count: int = 0


@dataclass
class ColumnChunkMeta:
    """Location + stats of one column stream within one row group."""

    offset: int
    length: int
    stats: ColumnStats
    bloom: BloomFilter | None = None


@dataclass
class RowGroupMeta:
    num_rows: int
    columns: list[ColumnChunkMeta] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# value stream codecs

def _family(dtype: DataType) -> str:
    return dtype._family()


def _encode_stream(writer: ByteWriter, dtype: DataType,
                   vector: ColumnVector) -> None:
    """RLE-encode nulls and values of one column chunk."""
    family = _family(dtype)
    null_runs = rle.encode(vector.nulls.astype(np.uint8))
    _write_runs(writer, null_runs, "BOOLEAN")
    if family == "STRING":
        # normalize nulls to "" so runs compress
        data = vector.data.copy()
        data[vector.nulls] = ""
        value_runs = rle.encode(data)
    else:
        data = vector.data.astype(_STREAM_DTYPES[family], copy=True)
        if vector.nulls.any():
            data[vector.nulls] = 0
        value_runs = rle.encode(data)
    _write_runs(writer, value_runs, family)


def _decode_stream(reader: ByteReader, dtype: DataType,
                   num_rows: int) -> ColumnVector:
    family = _family(dtype)
    null_runs = _read_runs(reader, "BOOLEAN")
    nulls = rle.decode(null_runs, np.dtype(np.uint8)).astype(bool)
    value_runs = _read_runs(reader, family)
    if family == "STRING":
        data = rle.decode(value_runs, np.dtype(object))
    else:
        data = rle.decode(value_runs, _STREAM_DTYPES[family])
        data = data.astype(dtype.numpy_dtype, copy=False)
    if len(data) != num_rows or len(nulls) != num_rows:
        raise CorruptFileError("column stream length mismatch")
    return ColumnVector(dtype, data, nulls)


def _write_value(writer: ByteWriter, family: str, value) -> None:
    if family == "STRING":
        writer.write_str(str(value))
    elif family in ("DOUBLE", "DECIMAL"):
        writer.write_f64(float(value))
    elif family == "BOOLEAN":
        writer.write_u8(int(value))
    else:
        writer.write_i64(int(value))


def _read_value(reader: ByteReader, family: str):
    if family == "STRING":
        return reader.read_str()
    if family in ("DOUBLE", "DECIMAL"):
        return reader.read_f64()
    if family == "BOOLEAN":
        return reader.read_u8()
    return reader.read_i64()


def _write_runs(writer: ByteWriter, runs: list, family: str) -> None:
    writer.write_i32(len(runs))
    for run in runs:
        if isinstance(run, rle.RepeatRun):
            writer.write_u8(0)
            writer.write_i32(run.count)
            _write_value(writer, family, run.value)
        else:
            writer.write_u8(1)
            writer.write_i32(len(run.values))
            if family == "STRING":
                for v in run.values:
                    writer.write_str(str(v))
            else:
                stream_dtype = (_STREAM_DTYPES["BOOLEAN"] if family == "BOOLEAN"
                                else _STREAM_DTYPES[family])
                writer.write_bytes(
                    np.ascontiguousarray(
                        run.values.astype(stream_dtype)).tobytes())


def _read_runs(reader: ByteReader, family: str) -> list:
    count = reader.read_i32()
    runs = []
    for _ in range(count):
        tag = reader.read_u8()
        if tag == 0:
            run_len = reader.read_i32()
            runs.append(rle.RepeatRun(run_len, _read_value(reader, family)))
        elif tag == 1:
            run_len = reader.read_i32()
            if family == "STRING":
                values = np.empty(run_len, dtype=object)
                for i in range(run_len):
                    values[i] = reader.read_str()
            else:
                stream_dtype = (_STREAM_DTYPES["BOOLEAN"] if family == "BOOLEAN"
                                else _STREAM_DTYPES[family])
                raw = reader.read_bytes(run_len * stream_dtype.itemsize)
                values = np.frombuffer(raw, dtype=stream_dtype).copy()
            runs.append(rle.LiteralRun(values))
        else:
            raise CorruptFileError(f"bad run tag {tag}")
    return runs


def _write_bloom(writer: ByteWriter, bloom: BloomFilter | None) -> None:
    if bloom is None:
        writer.write_u8(0)
        return
    writer.write_u8(1)
    writer.write_i64(bloom.expected_items)
    writer.write_f64(bloom.fpp)
    writer.write_i64(bloom.num_bits)
    writer.write_i32(bloom.num_hashes)
    writer.write_i64(bloom.count)
    writer.write_blob(bloom.bits.tobytes())


def _read_bloom(reader: ByteReader) -> BloomFilter | None:
    if reader.read_u8() == 0:
        return None
    expected = reader.read_i64()
    fpp = reader.read_f64()
    bloom = BloomFilter(expected, fpp)
    bloom.num_bits = reader.read_i64()
    bloom.num_hashes = reader.read_i32()
    bloom.count = reader.read_i64()
    bloom.bits = np.frombuffer(reader.read_blob(), dtype=np.uint8).copy()
    return bloom


def _write_stats(writer: ByteWriter, family: str, stats: ColumnStats) -> None:
    writer.write_i64(stats.null_count)
    if stats.min_value is None:
        writer.write_u8(0)
    else:
        writer.write_u8(1)
        _write_value(writer, family, stats.min_value)
        _write_value(writer, family, stats.max_value)


def _read_stats(reader: ByteReader, family: str) -> ColumnStats:
    stats = ColumnStats()
    stats.null_count = reader.read_i64()
    if reader.read_u8() == 1:
        stats.min_value = _read_value(reader, family)
        stats.max_value = _read_value(reader, family)
    return stats


# --------------------------------------------------------------------------- #
# writer

class OrcWriter:
    """Builds one file; call :meth:`finish` to obtain the bytes.

    ``bloom_columns`` selects which columns get per-row-group Bloom
    filters (Hive: ``orc.bloom.filter.columns``).
    """

    def __init__(self, schema: Schema,
                 row_group_size: int = DEFAULT_ROW_GROUP_SIZE,
                 bloom_columns: Sequence[str] = (),
                 bloom_fpp: float = 0.05):
        if row_group_size < 1:
            raise HiveError("row_group_size must be positive")
        self.schema = schema
        self.row_group_size = row_group_size
        self.bloom_columns = {c.lower() for c in bloom_columns}
        self.bloom_fpp = bloom_fpp
        self._pending: list[VectorBatch] = []
        self._pending_rows = 0
        self._writer = ByteWriter()
        self._row_groups: list[RowGroupMeta] = []
        self._num_rows = 0
        self._finished = False

    # -- ingestion --------------------------------------------------------- #
    def write_rows(self, rows: Iterable[Sequence]) -> None:
        rows = list(rows)
        if rows:
            self.write_batch(VectorBatch.from_rows(self.schema, rows))

    def write_batch(self, batch: VectorBatch) -> None:
        if self._finished:
            raise HiveError("writer already finished")
        if batch.num_rows == 0:
            return
        self._pending.append(batch)
        self._pending_rows += batch.num_rows
        while self._pending_rows >= self.row_group_size:
            self._flush_row_group(self.row_group_size)

    def _take_pending(self, n: int) -> VectorBatch:
        merged = VectorBatch.concat(self.schema, self._pending)
        chunk = merged.slice(0, n)
        rest = merged.slice(n, merged.num_rows)
        self._pending = [rest] if rest.num_rows else []
        self._pending_rows = rest.num_rows
        return chunk

    def _flush_row_group(self, n: int) -> None:
        chunk = self._take_pending(n)
        meta = RowGroupMeta(num_rows=chunk.num_rows)
        for col, vector in zip(self.schema, chunk.vectors):
            offset = self._writer.size()
            _encode_stream(self._writer, col.dtype, vector)
            length = self._writer.size() - offset
            stats = ColumnStats(*vector.bounds(),
                                null_count=int(vector.nulls.sum()))
            bloom = None
            if col.name.lower() in self.bloom_columns:
                bloom = BloomFilter(max(chunk.num_rows, 8), self.bloom_fpp)
                bloom.add_all(vector.data[~vector.nulls])
            meta.columns.append(
                ColumnChunkMeta(offset, length, stats, bloom))
        self._row_groups.append(meta)
        self._num_rows += chunk.num_rows

    # -- finalization ------------------------------------------------------- #
    def finish(self) -> bytes:
        if self._finished:
            raise HiveError("writer already finished")
        if self._pending_rows:
            self._flush_row_group(self._pending_rows)
        self._finished = True
        footer = ByteWriter()
        footer.write_i64(self._num_rows)
        footer.write_i32(len(self.schema))
        for col in self.schema:
            footer.write_str(col.name)
            footer.write_str(_family(col.dtype))
            footer.write_u8(1 if col.nullable else 0)
        footer.write_i32(len(self._row_groups))
        for group in self._row_groups:
            footer.write_i64(group.num_rows)
            for col, chunk in zip(self.schema, group.columns):
                footer.write_i64(chunk.offset)
                footer.write_i64(chunk.length)
                _write_stats(footer, _family(col.dtype), chunk.stats)
                _write_bloom(footer, chunk.bloom)
        footer_bytes = footer.getvalue()
        self._writer.write_bytes(footer_bytes)
        self._writer.write_bytes(
            len(footer_bytes).to_bytes(8, "little", signed=True))
        self._writer.write_bytes(MAGIC)
        return self._writer.getvalue()


# --------------------------------------------------------------------------- #
# reader

class OrcReader:
    """Reads a file written by :class:`OrcWriter`.

    The constructor only parses the footer; data bytes are decoded lazily
    per row group so callers (the I/O elevator) can account cache hits and
    ranged reads per ``(row group, column)``.
    """

    def __init__(self, data: bytes):
        if len(data) < 12 or data[-4:] != MAGIC:
            raise CorruptFileError("not a PORC file")
        footer_len = int.from_bytes(data[-12:-4], "little", signed=True)
        footer_start = len(data) - 12 - footer_len
        if footer_start < 0:
            raise CorruptFileError("footer length out of range")
        self._data = data
        self.metadata_bytes = footer_len + 12
        reader = ByteReader(data, footer_start)
        self.num_rows = reader.read_i64()
        num_cols = reader.read_i32()
        columns = []
        for _ in range(num_cols):
            name = reader.read_str()
            family = reader.read_str()
            nullable = reader.read_u8() == 1
            columns.append(Column(name, type_from_name(
                "DECIMAL" if family == "DECIMAL" else family), nullable))
        self.schema = Schema(columns)
        group_count = reader.read_i32()
        self.row_groups: list[RowGroupMeta] = []
        for _ in range(group_count):
            group = RowGroupMeta(num_rows=reader.read_i64())
            for col in self.schema:
                offset = reader.read_i64()
                length = reader.read_i64()
                stats = _read_stats(reader, _family(col.dtype))
                bloom = _read_bloom(reader)
                group.columns.append(
                    ColumnChunkMeta(offset, length, stats, bloom))
            self.row_groups.append(group)

    # -- pruning ----------------------------------------------------------- #
    def select_row_groups(self,
                          sargs: Sequence[SargPredicate] = ()) -> list[int]:
        """Indices of row groups that may contain matching rows.

        Conjunction semantics: a group survives only if every predicate
        can match.  ``=``/``in`` predicates additionally probe the Bloom
        filter when present.
        """
        selected = []
        for gi, group in enumerate(self.row_groups):
            if self._group_matches(group, sargs):
                selected.append(gi)
        return selected

    def _group_matches(self, group: RowGroupMeta,
                       sargs: Sequence[SargPredicate]) -> bool:
        for sarg in sargs:
            if sarg.column not in self.schema:
                continue
            chunk = group.columns[self.schema.index_of(sarg.column)]
            stats = chunk.stats
            if stats.min_value is None and stats.null_count == group.num_rows:
                return False  # all NULL can never satisfy a sarg
            if not sarg.matches_range(stats.min_value, stats.max_value,
                                      stats.null_count, group.num_rows):
                return False
            if chunk.bloom is not None:
                if sarg.op == "=" and not chunk.bloom.might_contain(
                        _plain(sarg.value)):
                    return False
                if sarg.op == "in" and not any(
                        chunk.bloom.might_contain(_plain(v))
                        for v in sarg.value):
                    return False
        return True

    # -- decoding ----------------------------------------------------------- #
    def read_column(self, group_index: int, column: str) -> ColumnVector:
        group = self.row_groups[group_index]
        col_index = self.schema.index_of(column)
        chunk = group.columns[col_index]
        reader = ByteReader(self._data, chunk.offset)
        return _decode_stream(reader, self.schema[col_index].dtype,
                              group.num_rows)

    def read_row_group(self, group_index: int,
                       columns: Sequence[str] | None = None) -> VectorBatch:
        names = list(columns) if columns is not None else self.schema.names()
        schema = self.schema.select(names)
        vectors = [self.read_column(group_index, n) for n in names]
        return VectorBatch(schema, vectors)

    def read_all(self, columns: Sequence[str] | None = None,
                 sargs: Sequence[SargPredicate] = ()) -> VectorBatch:
        names = list(columns) if columns is not None else self.schema.names()
        schema = self.schema.select(names)
        groups = self.select_row_groups(sargs)
        batches = [self.read_row_group(g, names) for g in groups]
        return VectorBatch.concat(schema, batches)

    def column_chunk_bytes(self, group_index: int, column: str) -> int:
        group = self.row_groups[group_index]
        return group.columns[self.schema.index_of(column)].length


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value
