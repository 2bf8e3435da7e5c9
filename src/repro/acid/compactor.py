"""Compaction: initiator, worker, and cleaner (Section 3.2).

* the **initiator** inspects each table/partition directory and enqueues
  minor/major compaction when thresholds are surpassed (delta-directory
  count; ratio of delta rows to base rows),
* the **worker** merges files: *minor* folds delta directories into a
  single range delta (and delete deltas into a single range delete
  delta); *major* folds everything into a fresh ``base_W``, applying
  tombstones and deleting history,
* the **cleaner** removes obsolete directories only once no open
  transaction could still be reading them — the separation the paper
  calls out so that ongoing queries complete before files disappear.

Compaction takes no locks on the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.vector import VectorBatch
from ..config import HiveConf
from ..formats.orc import OrcReader
from ..fs import SimFileSystem
from ..metastore.compaction import (CompactionQueue, CompactionRequest,
                                    CompactionType, should_compact)
from ..metastore.hms import HiveMetastore
from ..metastore.catalog import TableDescriptor
from ..metastore.txn import TransactionManager
from .layout import parse_acid_dirs, select_acid_state
from .reader import AcidReader, valid_mask
from .writer import AcidWriter, BUCKET_FILE, record_id_order


@dataclass
class CompactionReport:
    """What one worker pass produced (for tests and observability)."""

    request: CompactionRequest
    merged_rows: int
    output_dir: str
    obsolete_dirs: list[str]


def _table_locations(table: TableDescriptor) -> list[tuple[tuple | None, str]]:
    if table.is_partitioned:
        return [(p.values, p.location) for p in table.list_partitions()]
    return [(None, table.location)]


class CompactionInitiator:
    """Scans ACID tables and enqueues compaction requests."""

    def __init__(self, hms: HiveMetastore, conf: HiveConf):
        self.hms = hms
        self.conf = conf

    def check_table(self, table: TableDescriptor) -> list[CompactionRequest]:
        if not table.is_acid:
            return []
        requests = []
        for partition, location in _table_locations(table):
            decision = self._decide(location)
            if decision is not None:
                requests.append(self.hms.compaction_queue.enqueue(
                    table.qualified_name, partition, decision))
        return requests

    def _decide(self, location: str) -> CompactionType | None:
        fs = self.hms.fs
        if not fs.exists(location):
            return None
        names = [d.rsplit("/", 1)[-1] for d in fs.list_dirs(location)]
        bases, deltas = parse_acid_dirs(names)
        insert_deltas = [d for d in deltas if not d.is_delete]
        delete_deltas = [d for d in deltas if d.is_delete]
        base_rows = 0
        if bases:
            base_path = f"{location}/{bases[-1].name}/{BUCKET_FILE}"
            if fs.exists(base_path):
                base_rows = OrcReader(fs.read(base_path)).num_rows
        delta_rows = 0
        for delta in insert_deltas:
            path = f"{location}/{delta.name}/{BUCKET_FILE}"
            if fs.exists(path):
                delta_rows += OrcReader(fs.read(path)).num_rows
        return should_compact(
            len(insert_deltas), len(delete_deltas), delta_rows, base_rows,
            self.conf.compaction_delta_threshold)


class CompactionWorker:
    """Executes queued compactions."""

    def __init__(self, hms: HiveMetastore, row_group_size: int = 4096,
                 registry=None):
        self.hms = hms
        self.reader = AcidReader(hms.fs)
        self.writer = AcidWriter(hms.fs, row_group_size)
        self.registry = registry

    def run_one(self) -> CompactionReport | None:
        """Pop and execute the next queued request, if any."""
        request = self.hms.compaction_queue.next_pending()
        if request is None:
            return None
        table = self.hms.get_table(request.table)
        if request.partition is not None:
            location = table.get_partition(request.partition).location
        else:
            location = table.location
        if request.compaction_type is CompactionType.MAJOR:
            report = self._major(request, table, location)
        else:
            report = self._minor(request, table, location)
        request.merged_rows = report.merged_rows
        request.output_dir = report.output_dir
        barrier = self.hms.txn_manager.get_snapshot().high_watermark
        self.hms.compaction_queue.mark_ready_for_cleaning(
            request.request_id,
            [f"{location}/{d}" for d in report.obsolete_dirs], barrier)
        if self.registry is not None:
            kind = request.compaction_type.value
            self.registry.counter("compaction.runs", type=kind).inc()
            self.registry.counter("compaction.merged_rows",
                                  type=kind).inc(report.merged_rows)
        return report

    def _major(self, request, table: TableDescriptor,
               location: str) -> CompactionReport:
        """Fold base + deltas - deletes into a new base (deletes history)."""
        txn = self.hms.txn_manager
        snapshot = txn.get_snapshot()
        valid = txn.valid_write_ids(snapshot, table.qualified_name)
        if valid.high_watermark == 0:
            return CompactionReport(request, 0, "", [])
        batch, _ = self.reader.read(location, valid, columns=None,
                                    include_row_ids=True)
        names = [d.rsplit("/", 1)[-1]
                 for d in self.hms.fs.list_dirs(location)]
        state = select_acid_state(names, valid)
        obsolete = state.all_read_dirs() + state.obsolete
        out_dir = self.writer.write_base(
            location, valid.high_watermark, batch,
            bloom_columns=table.bloom_filter_columns)
        return CompactionReport(request, batch.num_rows,
                                out_dir.rsplit("/", 1)[0], obsolete)

    def _minor(self, request, table: TableDescriptor,
               location: str) -> CompactionReport:
        """Merge delta dirs into one range delta (base untouched)."""
        txn = self.hms.txn_manager
        snapshot = txn.get_snapshot()
        valid = txn.valid_write_ids(snapshot, table.qualified_name)
        names = [d.rsplit("/", 1)[-1]
                 for d in self.hms.fs.list_dirs(location)]
        state = select_acid_state(names, valid)
        obsolete: list[str] = list(state.obsolete)
        merged_rows = 0
        output_dir = ""

        for deltas, is_delete, bloom_columns in (
                (state.insert_deltas, False, table.bloom_filter_columns),
                (state.delete_deltas, True, ())):
            if len(deltas) < 2:
                continue
            batches = [OrcReader(self.hms.fs.read(
                f"{location}/{d.name}/{BUCKET_FILE}")).read_all()
                for d in deltas]
            merged = VectorBatch.concat(batches[-1].schema, batches)
            # drop rows from aborted transactions while merging
            merged = merged.filter(valid_mask(valid, merged.vectors[0].data))
            # sorted by record id; a tombstone's comes after the
            # deleting WriteId
            first = 1 if is_delete else 0
            merged = merged.take(record_id_order(
                merged.vectors[first:first + 3]))
            path = self.writer.write_merged_delta(
                location, min(d.min_write_id for d in deltas),
                max(d.max_write_id for d in deltas), merged,
                is_delete=is_delete, bloom_columns=bloom_columns)
            obsolete.extend(d.name for d in deltas)
            output_dir = output_dir or path.rsplit("/", 1)[0]
            merged_rows += merged.num_rows

        return CompactionReport(request, merged_rows, output_dir, obsolete)


class CompactionCleaner:
    """Deletes obsolete directories once no open reader can need them."""

    def __init__(self, hms: HiveMetastore, on_removed=None):
        self.hms = hms
        #: told the directories one run removed (caches let go of them)
        self.on_removed = on_removed

    def run(self) -> int:
        """Clean every request that is past its barrier; returns number of

        directories removed."""
        txn: TransactionManager = self.hms.txn_manager
        fs: SimFileSystem = self.hms.fs
        removed: list[str] = []
        for request in self.hms.compaction_queue.ready_for_cleaning():
            min_open = txn.min_open_txn()
            if (request.cleaner_barrier_txn is not None
                    and min_open is not None
                    and min_open <= request.cleaner_barrier_txn):
                continue  # a reader opened before compaction may still run
            for path in request.obsolete_paths:
                if fs.exists(path):
                    fs.delete(path, recursive=True)
                    removed.append(path)
            self.hms.compaction_queue.mark_done(request.request_id)
        if removed and self.on_removed is not None:
            self.on_removed(removed)
        return len(removed)
