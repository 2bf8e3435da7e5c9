"""The displaced row-at-a-time write path: parity oracle for the batch one.

Until rows became columns once, everything between ``execute`` and
``OrcWriter.write_batch`` spoke ``list[tuple]``: ``AcidWriter`` prepended
the record id one tuple at a time, a record id was a ``RowId`` object per
row, ``OrcWriter._flush_row_group`` walked every value for min / max /
Bloom, ``TableStatistics.from_rows`` walked them again for min / max /
HyperLogLog, ``TableWriter._route_partitions`` filled a dict of row
lists, minor compaction sorted tuples, and ``AcidReader`` checked
validity and tombstones one row at a time.  That is slow and easy to
read, the two things a reference wants to be, so it lives on here,
corrected for the one bug the loops had (a NaN that came first poisoned
min and max; it is now skipped for bounds, as in ``src/``).

tests/test_write_parity.py holds the batch path against these, byte for
byte; tests/dml_oracle.py writes through :class:`RowAcidWriter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.acid.reader import META_NAMES, AcidReader
from repro.acid.writer import (BUCKET_FILE, DELETE_SCHEMA, AcidWriter,
                               acid_schema)
from repro.common.bloom import BloomFilter
from repro.common.rows import Schema
from repro.common.vector import VectorBatch
from repro.errors import AnalysisError, HiveError
from repro.formats.orc import (ColumnChunkMeta, ColumnStats, OrcReader,
                               OrcWriter, RowGroupMeta, _encode_stream)
from repro.metastore.stats import ColumnStatistics, TableStatistics


# --------------------------------------------------------------------------- #
# record ids as objects

@dataclass(frozen=True)
class RowId:
    """Unique record identifier within a table (WriteId, FileId, RowId)."""

    write_id: int
    bucket: int
    row_id: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.write_id, self.bucket, self.row_id)


def row_ids_from_batch(batch: VectorBatch) -> list[RowId]:
    """Extract :class:`RowId` objects from a batch that includes meta cols."""
    wids = batch.column("__writeid__").data
    buckets = batch.column("__bucket__").data
    rids = batch.column("__rowid__").data
    return [RowId(int(wids[i]), int(buckets[i]), int(rids[i]))
            for i in range(batch.num_rows)]


# --------------------------------------------------------------------------- #
# per-value statistics

def _is_nan(value) -> bool:
    return isinstance(value, float) and value != value


def _fold_bounds(stats, value) -> None:
    """``stats.min_value`` / ``max_value`` after one more non-NULL value."""
    if _is_nan(value):
        return
    if stats.min_value is None or value < stats.min_value:
        stats.min_value = value
    if stats.max_value is None or value > stats.max_value:
        stats.max_value = value


class LoopOrcWriter(OrcWriter):
    """``OrcWriter`` with the per-value row-group statistics loop."""

    def _flush_row_group(self, n: int) -> None:
        chunk = self._take_pending(n)
        meta = RowGroupMeta(num_rows=chunk.num_rows)
        for col, vector in zip(self.schema, chunk.vectors):
            offset = self._writer.size()
            _encode_stream(self._writer, col.dtype, vector)
            length = self._writer.size() - offset
            stats = ColumnStats()
            bloom = None
            values = vector.data
            nulls = vector.nulls
            if col.name.lower() in self.bloom_columns:
                bloom = BloomFilter(max(chunk.num_rows, 8), self.bloom_fpp)
            for i in range(chunk.num_rows):
                if nulls[i]:
                    stats.null_count += 1
                    continue
                value = values[i]
                if isinstance(value, np.generic):
                    value = value.item()
                _fold_bounds(stats, value)
                if bloom is not None:
                    bloom.add(value)
            meta.columns.append(
                ColumnChunkMeta(offset, length, stats, bloom))
        self._row_groups.append(meta)
        self._num_rows += chunk.num_rows


def stats_from_rows(schema: Schema, rows: Sequence[tuple]) -> TableStatistics:
    """The per-value fold ``TableStatistics.from_rows`` used to be."""
    stats = TableStatistics(row_count=len(rows),
                            total_bytes=len(rows) * schema.row_width_bytes())
    for i, col in enumerate(schema):
        column_stats = ColumnStatistics()
        for row in rows:
            value = row[i]
            if value is None:
                column_stats.null_count += 1
                continue
            _fold_bounds(column_stats, value)
            column_stats.ndv_sketch.add(value)
        stats.columns[col.name.lower()] = column_stats
    return stats


# --------------------------------------------------------------------------- #
# the writer

class RowAcidWriter(AcidWriter):
    """``AcidWriter`` as it took ``Sequence[tuple]`` and ``RowId``."""

    def write_insert_delta(self, location: str, write_id: int,
                           schema: Schema, rows: Sequence[tuple],
                           bloom_columns: Sequence[str] = ()) -> str:
        if write_id < 1:
            raise HiveError("write_id must be >= 1")
        directory, statement_id = self._statement_dir(
            location, f"delta_{write_id}_{write_id}")
        meta_rows = [(write_id, statement_id, i, *row)
                     for i, row in enumerate(rows)]
        return self._write_rows(directory, acid_schema(schema), meta_rows,
                                bloom_columns)

    def write_delete_delta(self, location: str, write_id: int,
                           row_ids: Sequence[RowId]) -> str:
        directory, _ = self._statement_dir(
            location, f"delete_delta_{write_id}_{write_id}")
        rows = [(write_id, r.write_id, r.bucket, r.row_id)
                # sorted so the reader's merge stays sequential
                for r in sorted(row_ids, key=RowId.as_tuple)]
        return self._write_rows(directory, DELETE_SCHEMA, rows, ())

    def write_merged_delta(self, location: str, min_wid: int, max_wid: int,
                           schema_with_meta: Schema,
                           meta_rows: Sequence[tuple],
                           is_delete: bool = False,
                           bloom_columns: Sequence[str] = ()) -> str:
        prefix = "delete_delta" if is_delete else "delta"
        directory = f"{location}/{prefix}_{min_wid}_{max_wid}"
        return self._write_rows(directory, schema_with_meta, meta_rows,
                                bloom_columns)

    def write_base(self, location: str, write_id: int,
                   schema_with_meta: Schema, meta_rows: Sequence[tuple],
                   bloom_columns: Sequence[str] = ()) -> str:
        directory = f"{location}/base_{write_id}"
        return self._write_rows(directory, schema_with_meta, meta_rows,
                                bloom_columns)

    def write_plain(self, location: str, schema: Schema,
                    rows: Sequence[tuple],
                    bloom_columns: Sequence[str] = (),
                    file_seq: int = 0,
                    file_format: str = "orc") -> str:
        path = f"{location}/part-{file_seq:05d}"
        if file_format == "text":
            from repro.formats.text import TextWriter
            writer = TextWriter(schema)
            writer.write_rows(rows)
        else:
            writer = LoopOrcWriter(schema, self.row_group_size,
                                   bloom_columns=bloom_columns)
            writer.write_rows(rows)
        self.fs.create(path, writer.finish())
        return path

    def _write_rows(self, directory: str, schema: Schema,
                    rows: Sequence[tuple],
                    bloom_columns: Sequence[str]) -> str:
        path = f"{directory}/{BUCKET_FILE}"
        writer = LoopOrcWriter(schema, self.row_group_size,
                               bloom_columns=bloom_columns)
        writer.write_rows(rows)
        self.fs.create(path, writer.finish())
        return path


# --------------------------------------------------------------------------- #
# partition routing

def route_rows(table, rows: Sequence[tuple],
               partition_spec: dict) -> dict[tuple, list]:
    """``TableWriter._route_partitions`` as a dict of row lists."""
    data_width = len(table.schema)
    part_columns = table.partition_columns
    routed: dict[tuple, list] = {}
    static = [partition_spec.get(c.name.lower()) for c in part_columns]
    dynamic_count = sum(1 for v in static if v is None)
    expected = data_width + dynamic_count
    for row in rows:
        if len(row) != expected:
            raise AnalysisError(
                f"insert into {table.qualified_name}: row has "
                f"{len(row)} values, expected {data_width} data + "
                f"{dynamic_count} dynamic partition values")
    if not table.is_partitioned:
        routed[()] = [tuple(r) for r in rows]
        return routed
    for row in rows:
        data = tuple(row[:data_width])
        dynamic = list(row[data_width:])
        values = []
        for v in static:
            if v is not None:
                values.append(v)
            else:
                values.append(dynamic.pop(0))
        routed.setdefault(tuple(values), []).append(data)
    return routed


# --------------------------------------------------------------------------- #
# compaction

def major_compact_rows(fs, writer: RowAcidWriter, location: str, valid,
                       bloom_columns: Sequence[str] = ()) -> str:
    """Major compaction as ``read -> to_rows -> write_base``."""
    batch, _ = LoopAcidReader(fs).read(location, valid, columns=None,
                                       include_row_ids=True)
    return writer.write_base(location, valid.high_watermark, batch.schema,
                             batch.to_rows(), bloom_columns=bloom_columns)


def minor_compact_rows(fs, writer: RowAcidWriter, location: str, state,
                       valid, bloom_columns: Sequence[str] = ()) -> int:
    """The two row loops of minor compaction; returns the rows merged."""
    merged_rows = 0
    if len(state.insert_deltas) > 1:
        batches = []
        schema = None
        for delta in state.insert_deltas:
            reader = OrcReader(fs.read(
                f"{location}/{delta.name}/{BUCKET_FILE}"))
            batch = reader.read_all()
            # drop rows from aborted transactions while merging
            rows = [r for r in batch.to_rows() if valid.is_valid(r[0])]
            schema = reader.schema
            batches.append(rows)
        all_rows = [r for rows in batches for r in rows]
        all_rows.sort(key=lambda r: (r[0], r[1], r[2]))
        lo = min(d.min_write_id for d in state.insert_deltas)
        hi = max(d.max_write_id for d in state.insert_deltas)
        writer.write_merged_delta(location, lo, hi, schema, all_rows,
                                  is_delete=False,
                                  bloom_columns=bloom_columns)
        merged_rows += len(all_rows)
    if len(state.delete_deltas) > 1:
        all_rows = []
        for delta in state.delete_deltas:
            reader = OrcReader(fs.read(
                f"{location}/{delta.name}/{BUCKET_FILE}"))
            all_rows.extend(r for r in reader.read_all().to_rows()
                            if valid.is_valid(r[0]))
        all_rows.sort(key=lambda r: (r[1], r[2], r[3]))
        lo = min(d.min_write_id for d in state.delete_deltas)
        hi = max(d.max_write_id for d in state.delete_deltas)
        writer.write_merged_delta(location, lo, hi, DELETE_SCHEMA, all_rows,
                                  is_delete=True)
        merged_rows += len(all_rows)
    return merged_rows


# --------------------------------------------------------------------------- #
# the reader's three per-row loops

class LoopAcidReader(AcidReader):
    """``AcidReader`` checking validity and tombstones row by row."""

    def _load_delete_set(self, location, delete_deltas, valid, metrics):
        deleted: set[tuple[int, int, int]] = set()
        for delta in delete_deltas:
            path = f"{location}/{delta.name}/{BUCKET_FILE}"
            batch = self.reader_factory.open(path, metrics).read_all()
            wids = batch.column("__writeid__").data
            orig_wids = batch.column("__orig_writeid__").data
            buckets = batch.column("__bucket__").data
            row_ids = batch.column("__rowid__").data
            for i in range(batch.num_rows):
                if valid.is_valid(int(wids[i])):
                    deleted.add((int(orig_wids[i]), int(buckets[i]),
                                 int(row_ids[i])))
        metrics.delete_keys = len(deleted)
        return deleted

    def _read_data_dir(self, directory, valid, columns, sargs,
                       include_row_ids, deleted, metrics,
                       check_row_validity):
        path = f"{directory}/{BUCKET_FILE}"
        reader = self.reader_factory.open(path, metrics)
        data_names = (list(columns) if columns is not None
                      else [c.name for c in reader.schema
                            if c.name not in META_NAMES])
        read_names = META_NAMES + [n for n in data_names
                                   if n not in META_NAMES]
        groups = reader.select_row_groups(sargs)
        metrics.row_groups_total += len(reader.row_groups)
        metrics.row_groups_read += len(groups)
        batches = []
        for g in groups:
            batches.append(reader.read_row_group(g, read_names))
        if not batches:
            return None
        merged = VectorBatch.concat(batches[0].schema, batches)

        wids = merged.column("__writeid__").data
        keep = np.ones(merged.num_rows, dtype=bool)
        if check_row_validity:
            for i in range(merged.num_rows):
                if not valid.is_valid(int(wids[i])):
                    keep[i] = False
        if deleted:
            buckets = merged.column("__bucket__").data
            row_ids = merged.column("__rowid__").data
            for i in range(merged.num_rows):
                if keep[i] and (int(wids[i]), int(buckets[i]),
                                int(row_ids[i])) in deleted:
                    keep[i] = False
                    metrics.rows_deleted += 1
        if not keep.all():
            merged = merged.filter(keep)

        out_names = (META_NAMES + data_names) if include_row_ids \
            else data_names
        indices = [merged.schema.index_of(n) for n in out_names]
        return merged.project(indices, merged.schema.select(out_names))
