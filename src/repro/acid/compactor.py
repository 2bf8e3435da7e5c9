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

from ..config import HiveConf
from ..formats.orc import OrcReader
from ..fs import SimFileSystem
from ..metastore.compaction import (CompactionQueue, CompactionRequest,
                                    CompactionType, should_compact)
from ..metastore.hms import HiveMetastore
from ..metastore.catalog import TableDescriptor
from ..metastore.txn import TransactionManager
from .layout import parse_acid_dirs, select_acid_state
from .reader import AcidReader
from .writer import AcidWriter, BUCKET_FILE, DELETE_SCHEMA


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

    def _current_state(self, location: str):
        txn = self.hms.txn_manager
        snapshot = txn.get_snapshot()
        names = [d.rsplit("/", 1)[-1]
                 for d in self.hms.fs.list_dirs(location)]
        return names, snapshot

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
            location, valid.high_watermark, batch.schema, batch.to_rows(),
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

        if len(state.insert_deltas) > 1:
            batches = []
            schema = None
            for delta in state.insert_deltas:
                reader = OrcReader(self.hms.fs.read(
                    f"{location}/{delta.name}/{BUCKET_FILE}"))
                batch = reader.read_all()
                # drop rows from aborted transactions while merging
                rows = [r for r in batch.to_rows()
                        if valid.is_valid(r[0])]
                schema = reader.schema
                batches.append(rows)
                obsolete.append(delta.name)
            all_rows = [r for rows in batches for r in rows]
            all_rows.sort(key=lambda r: (r[0], r[1], r[2]))
            lo = min(d.min_write_id for d in state.insert_deltas)
            hi = max(d.max_write_id for d in state.insert_deltas)
            path = self.writer.write_merged_delta(
                location, lo, hi, schema, all_rows, is_delete=False,
                bloom_columns=table.bloom_filter_columns)
            output_dir = path.rsplit("/", 1)[0]
            merged_rows += len(all_rows)

        if len(state.delete_deltas) > 1:
            all_rows = []
            for delta in state.delete_deltas:
                reader = OrcReader(self.hms.fs.read(
                    f"{location}/{delta.name}/{BUCKET_FILE}"))
                all_rows.extend(r for r in reader.read_all().to_rows()
                                if valid.is_valid(r[0]))
                obsolete.append(delta.name)
            all_rows.sort(key=lambda r: (r[1], r[2], r[3]))
            lo = min(d.min_write_id for d in state.delete_deltas)
            hi = max(d.max_write_id for d in state.delete_deltas)
            path = self.writer.write_merged_delta(
                location, lo, hi, DELETE_SCHEMA, all_rows, is_delete=True)
            output_dir = output_dir or path.rsplit("/", 1)[0]
            merged_rows += len(all_rows)

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
