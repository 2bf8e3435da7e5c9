"""SQL-queryable system tables: the ``sys`` catalog.

Hive 3 ships a ``sys`` database whose tables expose server state to
plain SQL.  Here the tables are virtual: each is a handler-backed table
(``storage_handler="sys"``) whose rows are generated from live server
state at scan time — no metastore write path, no files, always current.
Because they ride the federated-scan path, the full SQL surface works on
them: ``SELECT status, COUNT(*) FROM sys.query_log GROUP BY status``.

Tables:

* ``sys.query_log``    — one row per statement (latency breakdown), for
  the same statements ``sys.audit_log`` has,
* ``sys.vertex_log``   — one row per DAG vertex per query (task
  distribution, skew factor, straggler flag); joins ``sys.query_log``
  on ``query_id``,
* ``sys.operator_log`` — one row per plan operator per vertex per query
  (rows in/out, wall + attributed virtual time),
* ``sys.wm_events``    — workload-management trigger firings (MOVE/KILL),
* ``sys.cache_stats``  — LLAP cache + results cache counters,
* ``sys.compactions``  — the compaction queue history,
* ``sys.pools``        — active resource-plan pools,
* ``sys.metrics``      — every series in the metrics registry,
* ``sys.fault_log``    — every injected fault and recovery action
  (``repro.faults``): IO re-reads, task retries, speculation, node
  death, reaped transactions,
* ``sys.live_queries`` — statements in flight *right now* (phase,
  progress, ETA, kill flag); targets for ``KILL QUERY <id>``,
* ``sys.sessions``     — pooled serving-layer sessions (tenant,
  application, TTL state, statement counts),
* ``sys.plan_cache``   — compiled-plan cache entries (statement,
  tables, per-entry hit counts),
* ``sys.timeseries``   — the cluster-state sample rings (virtual +
  wall timestamps, interval and scrape sources),
* ``sys.cluster_nodes`` / ``sys.llap_daemons`` — per-daemon executor
  occupancy and cache heatmap (the paper's LLAP monitor view),
* ``sys.lint_findings`` — runtime lock-sanitizer findings (order
  inversions, waits holding foreign locks, long holds) when the
  process runs under ``HIVE_SANITIZE=1``; empty otherwise,
* ``sys.query_store`` / ``sys.query_store_plans`` /
  ``sys.query_store_events`` — fingerprint-level workload history,
  per-plan-hash stats and deduplicated plan-change/regression
  findings; join ``sys.query_log`` on ``fingerprint``,
* ``sys.audit_log``     — one row per statement with tenant
  attribution, the resolved tables/columns it touched and its outcome
  (incl. ``killed`` / ``denied``); join ``sys.query_store`` on
  ``fingerprint``,
* ``sys.lineage_edges`` — column-level dependency edges from the
  lineage graph (``dst_column = '*'`` marks JOIN-KEY/FILTER predicate
  edges),
* ``sys.lineage_tables`` — table→table provenance from CTAS/INSERT/MV
  statements, with each source table's current plan version — what a
  DDL on the source will invalidate downstream.
"""

from __future__ import annotations

from typing import Sequence

from ..common.rows import Column, Schema
from ..common.types import BIGINT, BOOLEAN, DOUBLE, STRING
from ..errors import ExecutionError
from ..federation.handler import StorageHandler
from ..metastore.catalog import TableDescriptor, TableKind

SYS_DATABASE = "sys"

QUERY_LOG_SCHEMA = Schema([
    Column("query_id", BIGINT), Column("statement", STRING),
    Column("db", STRING), Column("application", STRING),
    Column("operation", STRING), Column("status", STRING),
    Column("error", STRING), Column("pool", STRING),
    Column("from_cache", BOOLEAN), Column("reexecuted", BOOLEAN),
    Column("rows_produced", BIGINT), Column("rows_affected", BIGINT),
    Column("started_s", DOUBLE), Column("total_s", DOUBLE),
    Column("queue_s", DOUBLE), Column("compile_s", DOUBLE),
    Column("startup_s", DOUBLE), Column("io_s", DOUBLE),
    Column("cpu_s", DOUBLE), Column("shuffle_s", DOUBLE),
    Column("external_s", DOUBLE), Column("disk_bytes", BIGINT),
    Column("cache_bytes", BIGINT), Column("cache_hit_fraction", DOUBLE),
    Column("wall_ms", DOUBLE), Column("fingerprint", STRING)])

VERTEX_LOG_SCHEMA = Schema([
    Column("query_id", BIGINT), Column("vertex_id", BIGINT),
    Column("name", STRING), Column("tasks", BIGINT),
    Column("rows", BIGINT), Column("startup_s", DOUBLE),
    Column("io_s", DOUBLE), Column("cpu_s", DOUBLE),
    Column("shuffle_s", DOUBLE), Column("external_s", DOUBLE),
    Column("duration_s", DOUBLE), Column("start_s", DOUBLE),
    Column("finish_s", DOUBLE), Column("shuffle_bytes", BIGINT),
    Column("max_task_s", DOUBLE), Column("median_task_s", DOUBLE),
    Column("skew_factor", DOUBLE), Column("straggler", BOOLEAN),
    Column("attempts", BIGINT), Column("failed_attempts", BIGINT),
    Column("speculative_tasks", BIGINT), Column("retry_s", DOUBLE)])

OPERATOR_LOG_SCHEMA = Schema([
    Column("query_id", BIGINT), Column("vertex", STRING),
    Column("operator", STRING), Column("digest", STRING),
    Column("rows_in", BIGINT), Column("rows_out", BIGINT),
    Column("calls", BIGINT), Column("wall_ms", DOUBLE),
    Column("virtual_s", DOUBLE)])

WM_EVENTS_SCHEMA = Schema([
    Column("event_id", BIGINT), Column("query_id", BIGINT),
    Column("pool", STRING), Column("trigger_name", STRING),
    Column("metric", STRING), Column("value", DOUBLE),
    Column("threshold", DOUBLE), Column("action", STRING),
    Column("target_pool", STRING)])

CACHE_STATS_SCHEMA = Schema([
    Column("component", STRING), Column("metric", STRING),
    Column("value", DOUBLE)])

COMPACTIONS_SCHEMA = Schema([
    Column("request_id", BIGINT), Column("table_name", STRING),
    Column("partition", STRING), Column("type", STRING),
    Column("state", STRING), Column("merged_rows", BIGINT),
    Column("output_dir", STRING)])

POOLS_SCHEMA = Schema([
    Column("plan", STRING), Column("pool", STRING),
    Column("alloc_fraction", DOUBLE), Column("query_parallelism", BIGINT),
    Column("trigger_count", BIGINT), Column("is_default", BOOLEAN)])

METRICS_SCHEMA = Schema([
    Column("name", STRING), Column("labels", STRING),
    Column("kind", STRING), Column("help", STRING),
    Column("value", DOUBLE)])

LIVE_QUERIES_SCHEMA = Schema([
    Column("query_id", BIGINT), Column("statement", STRING),
    Column("db", STRING), Column("application", STRING),
    Column("phase", STRING), Column("pool", STRING),
    Column("started_s", DOUBLE), Column("elapsed_s", DOUBLE),
    Column("vertices_total", BIGINT), Column("vertices_done", BIGINT),
    Column("tasks_total", BIGINT), Column("tasks_done", BIGINT),
    Column("progress", DOUBLE), Column("eta_s", DOUBLE),
    Column("kill_requested", BOOLEAN)])

TIMESERIES_SCHEMA = Schema([
    Column("ts_s", DOUBLE), Column("wall_s", DOUBLE),
    Column("name", STRING), Column("labels", STRING),
    Column("value", DOUBLE), Column("source", STRING)])

CLUSTER_NODES_SCHEMA = Schema([
    Column("node", BIGINT), Column("state", STRING),
    Column("executors_total", BIGINT), Column("executors_busy", BIGINT),
    Column("queue_depth", BIGINT)])

LLAP_DAEMONS_SCHEMA = Schema([
    Column("node", BIGINT), Column("cache_bytes", BIGINT),
    Column("cache_chunks", BIGINT), Column("occupancy", DOUBLE)])

SESSIONS_SCHEMA = Schema([
    Column("session_id", STRING), Column("tenant", STRING),
    Column("application", STRING), Column("db", STRING),
    Column("state", STRING), Column("created_s", DOUBLE),
    Column("last_used_s", DOUBLE), Column("statements", BIGINT)])

PLAN_CACHE_SCHEMA = Schema([
    Column("db", STRING), Column("statement", STRING),
    Column("tables", STRING), Column("conf_digest", STRING),
    Column("hits", BIGINT), Column("last_used", BIGINT)])

FAULT_LOG_SCHEMA = Schema([
    Column("event_id", BIGINT), Column("query_id", BIGINT),
    Column("site", STRING), Column("target", STRING),
    Column("attempts", BIGINT), Column("delay_s", DOUBLE),
    Column("detail", STRING)])

QUERY_STORE_SCHEMA = Schema([
    Column("fingerprint", STRING), Column("statement", STRING),
    Column("plans", BIGINT), Column("executions", BIGINT),
    Column("errors", BIGINT), Column("retries", BIGINT),
    Column("results_cache_hits", BIGINT),
    Column("plan_cache_hits", BIGINT),
    Column("plan_cache_misses", BIGINT),
    Column("rows_produced", BIGINT), Column("queue_s", DOUBLE),
    Column("p50_s", DOUBLE), Column("p95_s", DOUBLE),
    Column("p99_s", DOUBLE), Column("baseline_p95_s", DOUBLE),
    Column("mean_wall_ms", DOUBLE), Column("last_plan_hash", STRING),
    Column("first_seen_s", DOUBLE), Column("last_seen_s", DOUBLE)])

QUERY_STORE_PLANS_SCHEMA = Schema([
    Column("fingerprint", STRING), Column("plan_hash", STRING),
    Column("executions", BIGINT), Column("errors", BIGINT),
    Column("retries", BIGINT), Column("rows_produced", BIGINT),
    Column("disk_bytes", BIGINT), Column("cache_bytes", BIGINT),
    Column("p50_s", DOUBLE), Column("p95_s", DOUBLE),
    Column("p99_s", DOUBLE), Column("mean_s", DOUBLE),
    Column("mean_wall_ms", DOUBLE), Column("first_seen_s", DOUBLE),
    Column("last_seen_s", DOUBLE)])

QUERY_STORE_EVENTS_SCHEMA = Schema([
    Column("event_id", BIGINT), Column("kind", STRING),
    Column("fingerprint", STRING), Column("statement", STRING),
    Column("old_plan_hash", STRING), Column("new_plan_hash", STRING),
    Column("before_p95_s", DOUBLE), Column("after_p95_s", DOUBLE),
    Column("factor", DOUBLE), Column("detail", STRING),
    Column("at_s", DOUBLE), Column("count", BIGINT)])

AUDIT_LOG_SCHEMA = Schema([
    Column("query_id", BIGINT), Column("tenant", STRING),
    Column("session", STRING), Column("db", STRING),
    Column("application", STRING), Column("statement", STRING),
    Column("operation", STRING), Column("status", STRING),
    Column("error", STRING), Column("input_tables", STRING),
    Column("output_tables", STRING), Column("columns", STRING),
    Column("rows_returned", BIGINT), Column("rows_affected", BIGINT),
    Column("admission_wait_s", DOUBLE), Column("total_s", DOUBLE),
    Column("at_s", DOUBLE), Column("fingerprint", STRING)])

LINEAGE_EDGES_SCHEMA = Schema([
    Column("fingerprint", STRING), Column("dst_table", STRING),
    Column("dst_column", STRING), Column("src_table", STRING),
    Column("src_column", STRING), Column("kind", STRING),
    Column("query_id", BIGINT), Column("at_s", DOUBLE),
    Column("executions", BIGINT)])

LINEAGE_TABLES_SCHEMA = Schema([
    Column("dst_table", STRING), Column("src_table", STRING),
    Column("kind", STRING), Column("statements", BIGINT),
    Column("first_at_s", DOUBLE), Column("last_at_s", DOUBLE),
    Column("tombstoned", BOOLEAN),
    Column("src_plan_version", BIGINT)])

LINT_FINDINGS_SCHEMA = Schema([
    Column("finding_id", BIGINT), Column("source", STRING),
    Column("kind", STRING), Column("locks", STRING),
    Column("thread", STRING), Column("site", STRING),
    Column("detail", STRING), Column("wall_s", DOUBLE),
    Column("count", BIGINT)])

SYS_TABLES: dict[str, Schema] = {
    "query_log": QUERY_LOG_SCHEMA,
    "vertex_log": VERTEX_LOG_SCHEMA,
    "operator_log": OPERATOR_LOG_SCHEMA,
    "wm_events": WM_EVENTS_SCHEMA,
    "cache_stats": CACHE_STATS_SCHEMA,
    "compactions": COMPACTIONS_SCHEMA,
    "pools": POOLS_SCHEMA,
    "metrics": METRICS_SCHEMA,
    "fault_log": FAULT_LOG_SCHEMA,
    "live_queries": LIVE_QUERIES_SCHEMA,
    "sessions": SESSIONS_SCHEMA,
    "plan_cache": PLAN_CACHE_SCHEMA,
    "timeseries": TIMESERIES_SCHEMA,
    "cluster_nodes": CLUSTER_NODES_SCHEMA,
    "llap_daemons": LLAP_DAEMONS_SCHEMA,
    "lint_findings": LINT_FINDINGS_SCHEMA,
    "query_store": QUERY_STORE_SCHEMA,
    "query_store_plans": QUERY_STORE_PLANS_SCHEMA,
    "query_store_events": QUERY_STORE_EVENTS_SCHEMA,
    "audit_log": AUDIT_LOG_SCHEMA,
    "lineage_edges": LINEAGE_EDGES_SCHEMA,
    "lineage_tables": LINEAGE_TABLES_SCHEMA,
}


class SysTableHandler(StorageHandler):
    """Serves the virtual ``sys`` tables from live server state."""

    name = "sys"

    def __init__(self, obs):
        self.obs = obs        # the owning Observability facade

    # -- catalog -------------------------------------------------------- #
    def ensure_tables(self, hms) -> None:
        """Create the ``sys`` database and table descriptors lazily."""
        hms.create_database(SYS_DATABASE, if_not_exists=True)
        db = hms.get_database(SYS_DATABASE)
        for table_name, schema in SYS_TABLES.items():
            if table_name not in db.tables:
                hms.create_table(SYS_DATABASE, table_name, schema,
                                 kind=TableKind.EXTERNAL,
                                 is_acid=False, storage_handler=self.name)

    # -- input format --------------------------------------------------- #
    def scan_table(self, table: TableDescriptor,
                   columns: Sequence[str]) -> tuple[list[tuple], float]:
        builder = getattr(self, f"_rows_{table.name}", None)
        if builder is None:
            raise ExecutionError(f"unknown sys table {table.name!r}")
        # handlers return rows projected to the requested columns
        indexes = [table.schema.index_of(c) for c in columns]
        rows = [tuple(row[i] for i in indexes) for row in builder()]
        return rows, 0.0

    def insert_rows(self, table: TableDescriptor,
                    rows: Sequence[tuple]) -> None:
        raise ExecutionError("sys tables are read-only")

    def execute_pushed(self, table: TableDescriptor,
                       query: object) -> tuple[list[tuple], float]:
        raise ExecutionError("sys tables do not support pushdown")

    # -- row builders --------------------------------------------------- #
    def _rows_query_log(self) -> list[tuple]:
        # all_entries: ring + spilled overflow, so long workloads stay
        # fully queryable (retention, not truncation)
        return [e.as_query_log_row()
                for e in self.obs.query_log.all_entries()]

    def _rows_vertex_log(self) -> list[tuple]:
        return [row for e in self.obs.query_log.all_entries()
                for row in e.vertex_rows()]

    def _rows_operator_log(self) -> list[tuple]:
        return [row for e in self.obs.query_log.all_entries()
                for row in e.operator_rows()]

    def _rows_wm_events(self) -> list[tuple]:
        return [event.as_row() for event in self.obs.wm_events.entries()]

    def _rows_cache_stats(self) -> list[tuple]:
        rows: list[tuple] = []
        for component, stats in self.obs.cache_components():
            for metric, value in sorted(vars(stats).items()):
                if isinstance(value, (int, float)) \
                        and not metric.startswith("_"):
                    rows.append((component, metric, float(value)))
        return rows

    def _rows_compactions(self) -> list[tuple]:
        hms = self.obs.hms
        if hms is None:
            return []
        rows = []
        for request in hms.compaction_queue.history():
            partition = ("" if request.partition is None
                         else "/".join(str(v) for v in request.partition))
            rows.append((request.request_id, request.table, partition,
                         request.compaction_type.value,
                         request.state.value,
                         getattr(request, "merged_rows", 0),
                         getattr(request, "output_dir", "")))
        return rows

    def _rows_pools(self) -> list[tuple]:
        wm = self.obs.workload_manager
        if wm is None or wm.plan is None:
            return []
        plan = wm.plan
        return [(plan.name, pool.name, pool.alloc_fraction,
                 pool.query_parallelism, len(pool.triggers),
                 pool.name == plan.default_pool)
                for pool in plan.pools.values()]

    def _rows_fault_log(self) -> list[tuple]:
        faults = self.obs.faults
        if faults is None:
            return []
        return [event.as_row() for event in faults.events()]

    def _rows_metrics(self) -> list[tuple]:
        rows = []
        for name, series in sorted(self.obs.registry.snapshot().items()):
            for entry in series:
                labels = ",".join(f"{k}={v}" for k, v in
                                  sorted(entry["labels"].items()))
                value = entry.get("value")
                if value is None:           # histogram: expose the count
                    value = entry.get("count", 0)
                rows.append((name, labels, entry["kind"],
                             entry.get("help", ""), float(value)))
        return rows

    def _rows_live_queries(self) -> list[tuple]:
        return self.obs.live_queries.rows()

    def _rows_sessions(self) -> list[tuple]:
        source = self.obs.session_source
        return [] if source is None else source.rows()

    def _rows_plan_cache(self) -> list[tuple]:
        source = self.obs.plan_cache_source
        return [] if source is None else source.rows()

    def _rows_timeseries(self) -> list[tuple]:
        # rows() already renders labels as "k=v,k=v"
        return list(self.obs.timeseries.rows())

    def _rows_cluster_nodes(self) -> list[tuple]:
        return self.obs.cluster.cluster_node_rows()

    def _rows_llap_daemons(self) -> list[tuple]:
        return self.obs.cluster.llap_daemon_rows()

    def _rows_query_store(self) -> list[tuple]:
        return self.obs.query_store.rows_store()

    def _rows_query_store_plans(self) -> list[tuple]:
        return self.obs.query_store.rows_plans()

    def _rows_query_store_events(self) -> list[tuple]:
        return self.obs.query_store.rows_events()

    def _rows_audit_log(self) -> list[tuple]:
        # ring + spilled overflow, like sys.query_log
        return [r.as_audit_row() for r in self.obs.audit_log.all_entries()]

    def _rows_lineage_edges(self) -> list[tuple]:
        rows: list[tuple] = []
        for record in self.obs.lineage_graph.records():
            for edge in record.edges:
                rows.append((record.fingerprint, record.dst_table,
                             edge.dst_column, edge.src_table,
                             edge.src_column, edge.kind,
                             record.query_id, record.at_s,
                             record.executions))
        return rows

    def _rows_lineage_tables(self) -> list[tuple]:
        hms = self.obs.hms
        if hms is None:
            return []
        records = hms.provenance_rows()
        versions = hms.plan_versions([r.src_table for r in records])
        return [(r.dst_table, r.src_table, r.kind, r.statements,
                 r.first_at_s, r.last_at_s, r.tombstoned,
                 versions.get(r.src_table, 0)) for r in records]

    def _rows_lint_findings(self) -> list[tuple]:
        """Runtime lock-sanitizer findings; empty when the process
        does not run under ``HIVE_SANITIZE=1``."""
        from ..lint import sanitizer
        active = sanitizer.current()
        if active is None:
            return []
        return [finding.as_row() for finding in active.findings()]
