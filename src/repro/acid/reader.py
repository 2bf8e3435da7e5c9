"""Snapshot-isolation reader (merge-on-read).

A scan bound to a :class:`~repro.metastore.txn.ValidWriteIdList` reads the
base plus every relevant insert delta, discards rows whose WriteId is not
valid in the snapshot, and **anti-joins** the survivors against the delete
deltas that apply to their WriteId range (Section 3.2).  Delete deltas
are usually small, so the tombstone set is materialized in memory —
exactly the optimization the paper describes.

Every read returns its :class:`ReadMetrics` — the one IO ledger of that
read: the reader factory and the readers it hands out charge bytes and
opens to it by source, this module adds row groups and merge effort, and
the runtime's cost model and the ACID ablation benchmark consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..common.rows import Schema
from ..common.vector import VectorBatch
from ..formats.orc import SargPredicate
from ..fs import SimFileSystem
from ..llap.elevator import DirectReaderFactory
from ..metastore.txn import ValidWriteIdList
from .layout import select_acid_state
from .writer import ACID_META_COLUMNS, BUCKET_FILE, id_tuples, record_ids

META_NAMES = [c.name for c in ACID_META_COLUMNS]


@dataclass
class ReadMetrics:
    """What one directory read cost, charged by whoever served it."""

    disk_bytes: int = 0
    cache_bytes: int = 0
    metadata_bytes: int = 0
    files_opened: int = 0
    row_groups_total: int = 0
    row_groups_read: int = 0
    delete_keys: int = 0
    rows_deleted: int = 0
    #: injected read errors retried during this read (repro.faults)
    io_retries: int = 0
    #: bytes re-transferred by those retries
    retry_bytes: int = 0
    directories: list[str] = field(default_factory=list)


class AcidReader:
    """Reads ACID (and plain) table/partition directories.

    ``reader_factory`` abstracts how file bytes become an ORC reader: the
    default reads straight from the file system; the LLAP I/O elevator
    supplies a caching factory so the chunk cache sits *under* the
    merge-on-read (the cache is an MVCC view, Section 5.1).
    """

    def __init__(self, fs: SimFileSystem, reader_factory=None):
        self.fs = fs
        self.reader_factory = reader_factory or DirectReaderFactory(fs)

    # -- ACID path ------------------------------------------------------------ #
    def read(self, location: str, valid: ValidWriteIdList,
             columns: Sequence[str] | None = None,
             sargs: Sequence[SargPredicate] = (),
             include_row_ids: bool = False,
             ) -> tuple[VectorBatch, ReadMetrics]:
        """Merge-on-read of one ACID directory under a snapshot."""
        metrics = ReadMetrics()
        dir_names = [d.rsplit("/", 1)[-1]
                     for d in self.fs.list_dirs(location)]
        state = select_acid_state(dir_names, valid)
        metrics.directories = state.all_read_dirs()

        deleted = self._load_delete_set(location, state.delete_deltas,
                                        valid, metrics)

        batches: list[VectorBatch] = []
        out_schema: Schema | None = None
        read_dirs: list[tuple[str, bool]] = []
        if state.base is not None:
            # a base only contains committed data, so per-row checks are
            # only needed for snapshots that restrict rows further (e.g.
            # the delta snapshots used by incremental MV rebuild)
            base_check = not valid.range_fully_valid(
                1, state.base.write_id)
            read_dirs.append((state.base.name, base_check))
        for delta in state.insert_deltas:
            # compacted deltas may mix WriteIds; per-row filtering is only
            # needed when some id in the range is invalid for this snapshot
            needs_check = not valid.range_fully_valid(
                delta.min_write_id, delta.max_write_id)
            read_dirs.append((delta.name, needs_check))
        for name, needs_check in read_dirs:
            batch = self._read_data_dir(
                f"{location}/{name}", valid, columns, sargs,
                include_row_ids, deleted, metrics,
                check_row_validity=needs_check)
            if batch is not None:
                out_schema = batch.schema
                batches.append(batch)

        if out_schema is None:
            out_schema = self._projected_schema(location, columns,
                                                include_row_ids, metrics)
        return VectorBatch.concat(out_schema, batches), metrics

    # -- non-ACID path --------------------------------------------------------- #
    def read_plain(self, location: str, schema: Schema,
                   columns: Sequence[str] | None = None,
                   sargs: Sequence[SargPredicate] = (),
                   file_format: str = "orc",
                   ) -> tuple[VectorBatch, ReadMetrics]:
        metrics = ReadMetrics()
        names = list(columns) if columns is not None else schema.names()
        out_schema = schema.select(names)
        if file_format == "text":
            return self._read_plain_text(location, schema, names,
                                         out_schema, metrics)
        batches = []
        for status in self.fs.list_files(location):
            batches += self._read_groups(self.reader_factory.open(
                status.path, metrics), names, sargs, metrics)
        return VectorBatch.concat(out_schema, batches), metrics

    def _read_plain_text(self, location, schema, names, out_schema,
                         metrics):
        """Text files have no indexes: every byte is read, no pruning —
        the contrast that motivated the columnar format ([39]).  Nor is
        there a reader object to charge the ledger, so this does."""
        from ..formats.text import TextReader
        batches = []
        for status in self.fs.list_files(location):
            data = self.fs.read(status.path, metrics)
            metrics.files_opened += 1
            metrics.disk_bytes += len(data)
            batch = TextReader(schema, data).read_batch()
            indices = [schema.index_of(n) for n in names]
            batches.append(batch.project(indices, out_schema))
        return VectorBatch.concat(out_schema, batches), metrics

    # -- internals ------------------------------------------------------------ #
    def _load_delete_set(self, location: str, delete_deltas, valid,
                         metrics: ReadMetrics) -> set[tuple[int, int, int]]:
        deleted: set[tuple[int, int, int]] = set()
        for delta in delete_deltas:
            path = f"{location}/{delta.name}/{BUCKET_FILE}"
            batch = self.reader_factory.open(path, metrics).read_all()
            # tombstones of aborted or not-yet-visible deletes do not count
            batch = batch.filter(valid_mask(valid, batch.vectors[0].data))
            deleted.update(id_tuples(batch.vectors[1:]))
        metrics.delete_keys = len(deleted)
        return deleted

    def _read_data_dir(self, directory: str, valid, columns, sargs,
                       include_row_ids: bool,
                       deleted: set[tuple[int, int, int]],
                       metrics: ReadMetrics,
                       check_row_validity: bool) -> VectorBatch | None:
        path = f"{directory}/{BUCKET_FILE}"
        reader = self.reader_factory.open(path, metrics)
        data_names = (list(columns) if columns is not None
                      else [c.name for c in reader.schema
                            if c.name not in META_NAMES])
        read_names = META_NAMES + [n for n in data_names
                                   if n not in META_NAMES]
        batches = self._read_groups(reader, read_names, sargs, metrics)
        if not batches:
            return None
        merged = VectorBatch.concat(batches[0].schema, batches)

        if check_row_validity:
            merged = merged.filter(valid_mask(
                valid, merged.column("__writeid__").data))
        if deleted:
            # one C-level membership pass over the surviving record ids
            gone = np.fromiter(
                map(deleted.__contains__,
                    id_tuples(record_ids(merged).vectors)),
                dtype=bool, count=merged.num_rows)
            if gone.any():
                metrics.rows_deleted += int(gone.sum())
                merged = merged.filter(~gone)

        out_names = (META_NAMES + data_names) if include_row_ids else data_names
        indices = [merged.schema.index_of(n) for n in out_names]
        return merged.project(indices, merged.schema.select(out_names))

    @staticmethod
    def _read_groups(reader, names, sargs,
                     metrics: ReadMetrics) -> list[VectorBatch]:
        """The row groups ``sargs`` keep; the reader charges their bytes."""
        groups = reader.select_row_groups(sargs)
        metrics.row_groups_total += len(reader.row_groups)
        metrics.row_groups_read += len(groups)
        return [reader.read_row_group(g, names) for g in groups]

    def _projected_schema(self, location: str, columns,
                          include_row_ids: bool,
                          metrics: ReadMetrics) -> Schema:
        """Schema of an empty result (no readable directories)."""
        # fall back to any file present to learn the table schema
        statuses = self.fs.list_files(location, recursive=True)
        for status in statuses:
            # a delete delta holds record ids only, not the table's columns
            if status.path.endswith(BUCKET_FILE) \
                    and "/delete_delta_" not in status.path:
                reader = self.reader_factory.open(status.path, metrics)
                data_names = (list(columns) if columns is not None
                              else [c.name for c in reader.schema
                                    if c.name not in META_NAMES])
                names = (META_NAMES + data_names if include_row_ids
                         else data_names)
                return reader.schema.select(names)
        # empty table with no files at all: no schema info here
        return Schema([])


def valid_mask(valid: ValidWriteIdList, wids: np.ndarray) -> np.ndarray:
    """Which of ``wids`` the snapshot can see: one ``is_valid`` call per
    distinct WriteId."""
    distinct, inverse = np.unique(wids, return_inverse=True)
    return np.fromiter(map(valid.is_valid, distinct.tolist()), dtype=bool,
                       count=len(distinct))[inverse]
