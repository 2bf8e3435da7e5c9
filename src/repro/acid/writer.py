"""ACID writers.

Every record written by a transaction carries the triple that identifies
it uniquely (Section 3.2): the **WriteId** of the writing transaction, the
**FileId** (bucket number) and a **RowId** within the file.  Insert
transactions create ``delta_W_W`` directories; deletes create
``delete_delta_W_W`` directories whose rows *point at* the unique id of
the deleted record; updates are split into a delete plus an insert.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..common.rows import Column, Schema
from ..common.types import BIGINT, INT
from ..common.vector import ColumnVector, VectorBatch
from ..errors import HiveError
from ..formats.orc import OrcWriter
from ..fs import SimFileSystem

#: meta columns prepended to every row of an ACID data file.
ACID_META_COLUMNS = (
    Column("__writeid__", BIGINT, nullable=False),
    Column("__bucket__", INT, nullable=False),
    Column("__rowid__", BIGINT, nullable=False),
)

#: schema of delete-delta files: the deleting WriteId plus the pointed-at
#: original record id.
DELETE_SCHEMA = Schema([
    Column("__writeid__", BIGINT, nullable=False),
    Column("__orig_writeid__", BIGINT, nullable=False),
    Column("__bucket__", INT, nullable=False),
    Column("__rowid__", BIGINT, nullable=False),
])

BUCKET_FILE = "bucket_00000"


RECORD_ID_SCHEMA = Schema(ACID_META_COLUMNS)


def acid_schema(data_schema: Schema) -> Schema:
    return Schema(list(ACID_META_COLUMNS) + list(data_schema.columns))


def record_ids(batch: VectorBatch) -> VectorBatch:
    """The record-id columns of a batch that carries them, by name."""
    return batch.project([batch.schema.index_of(c.name)
                          for c in ACID_META_COLUMNS], RECORD_ID_SCHEMA)


def id_tuples(vectors: Sequence[ColumnVector]):
    """Record-id vectors as ``(WriteId, FileId, RowId)`` tuples of Python
    ints, built without a Python-level loop (a set wants hashables)."""
    return zip(*(v.data.tolist() for v in vectors))


def record_id_order(vectors: Sequence[ColumnVector]) -> np.ndarray:
    """Row positions in ``(WriteId, FileId, RowId)`` order; ``np.lexsort``
    takes the least significant key first."""
    return np.lexsort([v.data for v in reversed(vectors)])


def _constant(dtype, value: int, n: int) -> ColumnVector:
    return ColumnVector(dtype, np.full(n, value, dtype=dtype.numpy_dtype))


class AcidWriter:
    """Writes ACID delta/base directories and plain (non-ACID) files."""

    def __init__(self, fs: SimFileSystem, row_group_size: int = 4096):
        self.fs = fs
        self.row_group_size = row_group_size

    # -- transactional writes ------------------------------------------------ #
    def write_insert_delta(self, location: str, write_id: int,
                           batch: VectorBatch,
                           bloom_columns: Sequence[str] = ()) -> str:
        """Create ``delta_W_W[_S]/bucket_00000`` with fresh RowIds.

        A multi-statement transaction writing the same table repeatedly
        gets one directory per statement (Hive's stmtId); the statement
        id is also stored in the bucket field so the
        (WriteId, FileId, RowId) triple stays unique.
        """
        if write_id < 1:
            raise HiveError("write_id must be >= 1")
        directory, statement_id = self._statement_dir(
            location, f"delta_{write_id}_{write_id}")
        n = batch.num_rows
        meta = [_constant(BIGINT, write_id, n),
                _constant(INT, statement_id, n),
                ColumnVector(BIGINT, np.arange(n, dtype=np.int64))]
        return self._write_bucket(
            directory, VectorBatch(acid_schema(batch.schema),
                                   meta + batch.vectors), bloom_columns)

    def write_delete_delta(self, location: str, write_id: int,
                           ids: VectorBatch) -> str:
        """Create ``delete_delta_W_W[_S]`` with tombstones for ``ids``
        (:func:`record_ids` of the rows found)."""
        directory, _ = self._statement_dir(
            location, f"delete_delta_{write_id}_{write_id}")
        # sorted so the reader's merge stays sequential
        ids = ids.take(record_id_order(ids.vectors))
        return self._write_bucket(
            directory, VectorBatch(DELETE_SCHEMA, [
                _constant(BIGINT, write_id, ids.num_rows)] + ids.vectors),
            ())

    def _statement_dir(self, location: str,
                       base_name: str) -> tuple[str, int]:
        """First unused statement suffix for this (location, range)."""
        directory = f"{location}/{base_name}"
        statement_id = 0
        while self.fs.exists(f"{directory}/{BUCKET_FILE}"):
            statement_id += 1
            directory = f"{location}/{base_name}_{statement_id}"
        return directory, statement_id

    # -- compaction products ------------------------------------------------- #
    def write_merged_delta(self, location: str, min_wid: int, max_wid: int,
                           batch: VectorBatch, is_delete: bool = False,
                           bloom_columns: Sequence[str] = ()) -> str:
        prefix = "delete_delta" if is_delete else "delta"
        directory = f"{location}/{prefix}_{min_wid}_{max_wid}"
        return self._write_bucket(directory, batch, bloom_columns)

    def write_base(self, location: str, write_id: int, batch: VectorBatch,
                   bloom_columns: Sequence[str] = ()) -> str:
        return self._write_bucket(f"{location}/base_{write_id}", batch,
                                  bloom_columns)

    # -- non-transactional writes --------------------------------------------- #
    def write_plain(self, location: str, batch: VectorBatch,
                    bloom_columns: Sequence[str] = (),
                    file_seq: int = 0,
                    file_format: str = "orc") -> str:
        """Write a plain data file for a non-ACID table.

        ``file_format`` selects the SerDe: the ORC-like columnar
        container (default) or Hive's delimited text format.
        """
        if file_format == "text":
            from ..formats.text import TextWriter
            writer = TextWriter(batch.schema)
        else:
            writer = OrcWriter(batch.schema, self.row_group_size,
                               bloom_columns=bloom_columns)
        return self._write(f"{location}/part-{file_seq:05d}", writer, batch)

    # -- internals ------------------------------------------------------------ #
    def _write_bucket(self, directory: str, batch: VectorBatch,
                      bloom_columns: Sequence[str]) -> str:
        return self._write(
            f"{directory}/{BUCKET_FILE}",
            OrcWriter(batch.schema, self.row_group_size,
                      bloom_columns=bloom_columns), batch)

    def _write(self, path: str, writer, batch: VectorBatch) -> str:
        writer.write_batch(batch)
        self.fs.create(path, writer.finish())
        return path
