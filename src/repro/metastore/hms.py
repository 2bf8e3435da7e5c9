"""The Hive Metastore service facade.

HMS is "a catalog for all data queryable by Hive" (Section 2).  This class
owns:

* databases, tables, partitions and their locations on the simulated FS,
* additive table/partition statistics (Section 4.1),
* the transaction and lock managers (Section 3.2),
* the materialized-view registry with freshness metadata (Section 4.4),
* workload-management resource plans (Section 5.2),
* the compaction queue (Section 3.2),
* a notification-event log consumed by storage-handler metastore hooks
  (Section 6.1).
"""

from __future__ import annotations

import itertools
import threading

from ..common import sync
from dataclasses import dataclass
from typing import Optional, Sequence

from ..common.rows import Column, Schema
from ..errors import CatalogError
from ..fs import SimFileSystem
from .catalog import (Constraints, Database, MaterializedViewInfo,
                      PartitionDescriptor, TableDescriptor, TableKind,
                      partition_spec)
from .compaction import CompactionQueue
from .locks import LockManager
from .stats import TableStatistics
from .txn import TransactionManager

WAREHOUSE_ROOT = "/warehouse"


@dataclass
class NotificationEvent:
    event_id: int
    event_type: str           # CREATE_TABLE, DROP_TABLE, ADD_PARTITION, INSERT...
    table: str
    payload: dict


@dataclass
class ProvenanceRecord:
    """One table→table data-flow edge (the Atlas side of HMS).

    Registered by the built-in provenance hook for CTAS / INSERT / MV
    statements; ``kind`` is ``ctas`` | ``insert`` | ``mv``.  Records
    follow tables through RENAME and are tombstoned (not deleted) on
    DROP, so impact analysis keeps its history.
    """

    dst_table: str
    src_table: str
    kind: str
    first_at_s: float = 0.0
    last_at_s: float = 0.0
    statements: int = 1
    tombstoned: bool = False


class HiveMetastore:
    """One metastore instance shared by all sessions of a warehouse."""

    def __init__(self, fs: SimFileSystem):
        self.fs = fs
        self._lock = sync.new_rlock('HiveMetastore._lock')
        self._databases: dict[str, Database] = {}
        self._stats: dict[tuple[str, tuple | None], TableStatistics] = {}
        self.txn_manager = TransactionManager()
        self.lock_manager = LockManager()
        self.compaction_queue = CompactionQueue()
        self._resource_plans: dict[str, object] = {}
        self._active_resource_plan: Optional[str] = None
        self._events: list[NotificationEvent] = []
        self._event_counter = itertools.count(1)
        #: per-table metadata generation: bumped on every DDL event and
        #: on every statistics change, so a compiled plan (which bakes
        #: in partition pruning and stats-driven decisions) can be
        #: validated cheaply by the serving layer's plan cache
        self._plan_versions: dict[str, int] = {}
        #: runtime statistics captured during execution, persisted here
        #: so the optimizer can feed them back (§4.2 / §9 roadmap):
        #: plan-node digest -> last observed output cardinality
        self._runtime_stats: dict[str, int] = {}
        #: table→table provenance, keyed (dst, src, kind); the store
        #: behind sys.lineage_tables
        self._provenance: dict[tuple[str, str, str],
                               ProvenanceRecord] = {}
        self.create_database("default", if_not_exists=True)
        fs.mkdirs(WAREHOUSE_ROOT)

    # ------------------------------------------------------------------ #
    # databases
    def create_database(self, name: str, if_not_exists: bool = False) -> Database:
        name = name.lower()
        with self._lock:
            if name in self._databases:
                if if_not_exists:
                    return self._databases[name]
                raise CatalogError(f"database {name} already exists")
            db = Database(name)
            self._databases[name] = db
            self.fs.mkdirs(f"{WAREHOUSE_ROOT}/{name}")
            return db

    def get_database(self, name: str) -> Database:
        with self._lock:
            try:
                return self._databases[name.lower()]
            except KeyError:
                raise CatalogError(f"no such database: {name}") from None

    def list_databases(self) -> list[str]:
        with self._lock:
            return sorted(self._databases)

    # ------------------------------------------------------------------ #
    # tables
    def create_table(self, database: str, name: str, schema: Schema,
                     partition_columns: Sequence[Column] = (),
                     kind: TableKind = TableKind.MANAGED,
                     file_format: str = "orc",
                     is_acid: bool = False,
                     storage_handler: Optional[str] = None,
                     properties: Optional[dict] = None,
                     constraints: Optional[Constraints] = None,
                     mv_info: Optional[MaterializedViewInfo] = None,
                     bloom_filter_columns: Sequence[str] = (),
                     ) -> TableDescriptor:
        database = database.lower()
        name = name.lower()
        with self._lock:
            db = self.get_database(database)
            if name in db.tables:
                raise CatalogError(
                    f"table {database}.{name} already exists")
            location = f"{WAREHOUSE_ROOT}/{database}/{name}"
            table = TableDescriptor(
                database=database, name=name, schema=schema,
                partition_columns=tuple(partition_columns), kind=kind,
                file_format=file_format, is_acid=is_acid,
                location=location, storage_handler=storage_handler,
                properties=dict(properties or {}),
                constraints=constraints or Constraints(),
                mv_info=mv_info,
                bloom_filter_columns=tuple(bloom_filter_columns))
            db.tables[name] = table
            if storage_handler is None:
                self.fs.mkdirs(location)
            self._stats[(table.qualified_name, None)] = TableStatistics()
            self._emit("CREATE_TABLE", table.qualified_name, {})
            if mv_info is not None:
                # a new rewrite candidate changes how queries over its
                # SOURCE tables should compile: invalidate their plans
                for source in mv_info.source_tables:
                    self._bump_plan_version(source)
            return table

    def get_table(self, name: str, database: str = "default") -> TableDescriptor:
        """Resolve ``db.table`` or bare ``table`` in ``database``."""
        if "." in name:
            database, name = name.split(".", 1)
        db = self.get_database(database)
        try:
            return db.tables[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no such table: {database}.{name}") from None

    def table_exists(self, name: str, database: str = "default") -> bool:
        try:
            self.get_table(name, database)
            return True
        except CatalogError:
            return False

    def drop_table(self, name: str, database: str = "default",
                   purge: bool = True) -> None:
        with self._lock:
            table = self.get_table(name, database)
            del self._databases[table.database].tables[table.name]
            self._stats.pop((table.qualified_name, None), None)
            for values in list(table.partitions):
                self._stats.pop((table.qualified_name, values), None)
            if purge and table.storage_handler is None and self.fs.exists(
                    table.location):
                self.fs.delete(table.location, recursive=True)
            # provenance outlives the table, marked as historical
            dropped = table.qualified_name
            for record in self._provenance.values():
                if dropped in (record.dst_table, record.src_table):
                    record.tombstoned = True
            self._emit("DROP_TABLE", table.qualified_name, {})

    def rename_table(self, name: str, new_name: str,
                     database: str = "default") -> TableDescriptor:
        """Metadata-only rename within the table's database.

        The catalog entry, statistics keys, plan versions and
        provenance records all follow the new name; file locations are
        left in place (Hive's rename is a metadata operation for
        external tables, and our simulated FS paths are opaque).
        """
        new_name = new_name.lower()
        if "." in new_name:
            raise CatalogError(
                "RENAME target must be a bare table name")
        with self._lock:
            table = self.get_table(name, database)
            db = self._databases[table.database]
            if new_name in db.tables:
                raise CatalogError(
                    f"table {table.database}.{new_name} already exists")
            old_qualified = table.qualified_name
            del db.tables[table.name]
            table.name = new_name
            db.tables[new_name] = table
            new_qualified = table.qualified_name
            for key in [k for k in self._stats
                        if k[0] == old_qualified]:
                self._stats[(new_qualified, key[1])] = \
                    self._stats.pop(key)
            for key in [k for k in self._provenance
                        if old_qualified in (k[0], k[1])]:
                record = self._provenance.pop(key)
                if record.dst_table == old_qualified:
                    record.dst_table = new_qualified
                if record.src_table == old_qualified:
                    record.src_table = new_qualified
                self._provenance[(record.dst_table, record.src_table,
                                  record.kind)] = record
            # ACID write-id history follows the name, or readers would
            # see an empty watermark and hide every committed row
            self.txn_manager.rename_table(old_qualified, new_qualified)
            # both names' compiled plans are stale now
            self._bump_plan_version(new_qualified)
            self._emit("ALTER_TABLE_RENAME", old_qualified,
                       {"new_name": new_qualified})
            return table

    def list_tables(self, database: str = "default") -> list[str]:
        return sorted(self.get_database(database).tables)

    # ------------------------------------------------------------------ #
    # table provenance (the Atlas integration point, Section 6)
    def record_provenance(self, dst_table: str, src_table: str,
                          kind: str, at_s: float) -> None:
        """Upsert one dst←src data-flow edge (virtual-clock stamped)."""
        key = (dst_table.lower(), src_table.lower(), kind)
        with self._lock:
            record = self._provenance.get(key)
            if record is None:
                self._provenance[key] = ProvenanceRecord(
                    dst_table=key[0], src_table=key[1], kind=kind,
                    first_at_s=at_s, last_at_s=at_s)
                return
            record.last_at_s = max(record.last_at_s, at_s)
            record.statements += 1
            # a fresh write into a previously-dropped name revives it
            record.tombstoned = False

    def provenance_rows(self) -> list[ProvenanceRecord]:
        """Every provenance record (tombstones included), stable order."""
        with self._lock:
            return sorted(
                (ProvenanceRecord(**vars(r))
                 for r in self._provenance.values()),
                key=lambda r: (r.dst_table, r.src_table, r.kind))

    # ------------------------------------------------------------------ #
    # partitions
    def add_partition(self, table: TableDescriptor,
                      values: tuple) -> PartitionDescriptor:
        with self._lock:
            location = (f"{table.location}/"
                        f"{partition_spec(table.partition_columns, values)}")
            descriptor = table.add_partition(values, location)
            self.fs.mkdirs(location)
            self._emit("ADD_PARTITION", table.qualified_name,
                       {"values": values})
            return descriptor

    def get_or_add_partition(self, table: TableDescriptor,
                             values: tuple) -> PartitionDescriptor:
        if values in table.partitions:
            return table.partitions[values]
        return self.add_partition(table, values)

    def drop_partition(self, table: TableDescriptor, values: tuple,
                       purge: bool = True) -> None:
        with self._lock:
            descriptor = table.drop_partition(values)
            self._stats.pop((table.qualified_name, values), None)
            if purge and self.fs.exists(descriptor.location):
                self.fs.delete(descriptor.location, recursive=True)
            self._emit("DROP_PARTITION", table.qualified_name,
                       {"values": values})

    # ------------------------------------------------------------------ #
    # statistics (additive, Section 4.1)
    def update_statistics(self, table: TableDescriptor,
                          delta: TableStatistics,
                          partition: tuple | None = None) -> None:
        """Merge ``delta`` into existing stats (inserts add on)."""
        with self._lock:
            key = (table.qualified_name, partition)
            existing = self._stats.get(key)
            self._stats[key] = (TableStatistics.merge(existing, delta)
                                if existing else delta)
            if partition is not None:
                # roll partition deltas into the table-level aggregate too
                table_key = (table.qualified_name, None)
                table_stats = self._stats.get(table_key)
                self._stats[table_key] = (
                    TableStatistics.merge(table_stats, delta)
                    if table_stats else delta.copy())
            self._bump_plan_version(table.qualified_name)

    def set_statistics(self, table: TableDescriptor, stats: TableStatistics,
                       partition: tuple | None = None) -> None:
        """Replace stats wholesale (ANALYZE TABLE / full rebuild)."""
        with self._lock:
            self._stats[(table.qualified_name, partition)] = stats
            self._bump_plan_version(table.qualified_name)

    def get_statistics(self, table: TableDescriptor,
                       partition: tuple | None = None) -> TableStatistics:
        with self._lock:
            stats = self._stats.get((table.qualified_name, partition))
            return stats.copy() if stats else TableStatistics()

    # ------------------------------------------------------------------ #
    # materialized views (Section 4.4)
    def list_materialized_views(self) -> list[TableDescriptor]:
        with self._lock:
            out = []
            for db in self._databases.values():
                for table in db.tables.values():
                    if table.is_materialized_view:
                        out.append(table)
            return sorted(out, key=lambda t: t.qualified_name)

    def views_enabled_for_rewrite(self) -> list[TableDescriptor]:
        return [v for v in self.list_materialized_views()
                if v.mv_info is not None and v.mv_info.enabled_for_rewrite]

    def is_view_fresh(self, view: TableDescriptor,
                      now_s: float = 0.0) -> bool:
        """Fresh if no source table advanced past the snapshot the view was

        built from, or staleness is within the allowed window."""
        info = view.mv_info
        if info is None:
            return False
        stale = False
        for source in info.source_tables:
            current = self.txn_manager.current_write_id(source)
            if current > info.snapshot_write_ids.get(source, 0):
                stale = True
                break
        if not stale:
            return True
        if info.allowed_staleness_s > 0:
            return (now_s - info.rebuild_time) <= info.allowed_staleness_s
        return False

    # ------------------------------------------------------------------ #
    # resource plans (Section 5.2) — persisted by HMS
    def save_resource_plan(self, name: str, plan: object) -> None:
        with self._lock:
            self._resource_plans[name.lower()] = plan

    def get_resource_plan(self, name: str) -> object:
        with self._lock:
            try:
                return self._resource_plans[name.lower()]
            except KeyError:
                raise CatalogError(
                    f"no such resource plan: {name}") from None

    def activate_resource_plan(self, name: str) -> None:
        with self._lock:
            if name.lower() not in self._resource_plans:
                raise CatalogError(f"no such resource plan: {name}")
            self._active_resource_plan = name.lower()

    def active_resource_plan(self) -> object | None:
        with self._lock:
            if self._active_resource_plan is None:
                return None
            return self._resource_plans[self._active_resource_plan]

    # ------------------------------------------------------------------ #
    # runtime statistics (Section 4.2; §9: "feedback that information
    # into the optimizer")
    def record_runtime_stats(self, stats: dict[str, int]) -> None:
        with self._lock:
            self._runtime_stats.update(stats)

    def runtime_stats(self) -> dict[str, int]:
        with self._lock:
            return dict(self._runtime_stats)

    def clear_runtime_stats(self) -> None:
        with self._lock:
            self._runtime_stats.clear()

    # ------------------------------------------------------------------ #
    # notification events (Section 6.1, metastore hooks)
    def _emit(self, event_type: str, table: str, payload: dict) -> None:
        # caller holds self._lock (see emit_event and the DDL methods)
        self._events.append(NotificationEvent(  # reprolint: disable=RL001
            next(self._event_counter), event_type, table, payload))
        self._bump_plan_version(table)

    def _bump_plan_version(self, table: str) -> None:
        # caller holds self._lock (every DDL/stats path takes it)
        key = table.lower()
        versions = self._plan_versions
        versions[key] = versions.get(key, 0) + 1

    def plan_versions(self, tables) -> dict[str, int]:
        """Current plan-relevant metadata generation per table.

        The serving layer's compiled plan cache snapshots these at store
        time; any mismatch at lookup time invalidates the cached plan
        (DDL, new partitions, or statistics changes may all have shifted
        pruning and join decisions baked into it).
        """
        with self._lock:
            return {t: self._plan_versions.get(t.lower(), 0)
                    for t in tables}

    def emit_event(self, event_type: str, table: str, payload: dict) -> None:
        with self._lock:
            self._emit(event_type, table, payload)

    def events_since(self, event_id: int) -> list[NotificationEvent]:
        with self._lock:
            return [e for e in self._events if e.event_id > event_id]
