"""HiveServer2 and the query driver (Figure 2).

``HiveServer2`` owns cluster-lifetime state: the simulated file system,
HMS, the LLAP cache + I/O elevator, storage handlers, the query results
cache and the workload manager.  ``Session`` executes SQL through the
full pipeline: parse → analyze → optimize (Calcite-style stages) →
physical DAG → vectorized execution — with result caching (Section 4.3)
and failure-driven re-execution (Section 4.2) wrapped around it.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from ..common.rows import Column, Schema
from ..common.types import type_from_name
from ..common.vector import ColumnVector, VectorBatch
from ..config import KNOBS, SET_NAMES, HiveConf
from ..errors import (AnalysisError, CatalogError, HiveError,
                      PlanInvariantError, QueryKilledError,
                      TransactionError, VertexFailureError)
from ..exec.compile import EvalContext
from ..exec.operators import ExecutionContext, execute
from ..faults import FaultRegistry
from ..fs import SimFileSystem
from ..llap.cache import LlapCache
from ..llap.elevator import LlapReaderFactory
from ..llap.workload import (Pool, ResourcePlan, Trigger, TriggerAction,
                             WorkloadManager)
from ..metastore.catalog import (Constraints, ForeignKey,
                                 MaterializedViewInfo, TableDescriptor,
                                 TableKind)
from ..metastore.hms import HiveMetastore
from ..metastore.stats import TableStatistics
from ..metastore.txn import (AcidHouseKeeper, DeltaWriteIdList,
                             ValidWriteIdList)
from ..obs import Observability
from ..obs import fingerprint as fingerprints
from ..obs.hooks import PHASES, PRE_EXEC, register_builtin_hooks
from ..obs.query_log import StatementRecord
from ..optimizer import OptimizedPlan, Optimizer
from ..optimizer.mv_rewrite import (ViewDefinition, build_view_definition,
                                    extract_spja)
from ..optimizer.rules_basic import fold_constants, push_down_predicates
from ..plan import relnodes as rel
from ..plan.rexnodes import AggregateCall, RexInputRef, RexLiteral
from ..runtime.scan import ScanExecutor
from ..runtime.tez import SLOTS_PER_NODE, QueryMetrics, TezRunner
from ..sql import ast_nodes as ast
from ..sql.analyzer import Analyzer, Scope, ScopeEntry, _ExprConverter
from ..sql.functions import NON_CACHEABLE_FUNCTIONS
from ..sql.parser import parse_statement
from .dml import DmlResult, TableWriter, project_rows
from .mv import (RebuildReport, changed_sources, classify_changes,
                 snapshot_write_ids, source_tables_of)
from .results_cache import QueryResultsCache
# plan_cache imports nothing above repro.config — no cycle back into
# the driver; the rest of repro.service imports this module lazily
from ..service.plan_cache import CompiledPlanCache, plan_conf_digest

#: virtual time of a query answered straight from the results cache: a
#: single task fetching from the cached location (Section 4.3)
CACHED_FETCH_S = 0.05


@dataclass
class QueryResult:
    """What a statement returned."""

    rows: list = field(default_factory=list)
    column_names: list = field(default_factory=list)
    rows_affected: int = 0
    operation: str = "select"
    metrics: Optional[QueryMetrics] = None
    from_cache: bool = False
    plan_cached: bool = False    # compiled via the plan cache
    reexecuted: bool = False
    views_used: list = field(default_factory=list)
    optimized: Optional[OptimizedPlan] = None
    message: str = ""
    query_id: int = 0
    #: span tree for this statement (repro.obs.QueryTrace)
    trace: Optional[object] = None

    @property
    def virtual_time_s(self) -> float:
        return self.metrics.total_s if self.metrics else 0.0


class HiveServer2:
    """One warehouse deployment (cluster-lifetime state)."""

    def __init__(self, conf: Optional[HiveConf] = None):
        self.conf = conf or HiveConf.v3_profile()
        self.conf.validate()
        self.obs = Observability(self.conf)
        self.faults = FaultRegistry.from_conf(
            self.conf, metrics=self.obs.registry)
        self.fs = SimFileSystem()
        self.fs.fault_registry = self.faults
        self.hms = HiveMetastore(self.fs)
        self.housekeeper = AcidHouseKeeper(
            self.hms.txn_manager, self.hms.lock_manager,
            timeout_s=self.conf.txn_timeout_s, faults=self.faults)
        self.llap_cache = LlapCache(self.conf.llap_cache_capacity_bytes)
        self.llap_factory = LlapReaderFactory(self.fs, self.llap_cache)
        self.storage_handlers: dict[str, object] = {}
        self.results_cache = QueryResultsCache()
        self.workload_manager = WorkloadManager(
            registry=self.obs.registry,
            event_log=self.obs.wm_events,
            timeseries=self.obs.timeseries,
            query_store=self.obs.query_store)
        self.plan_cache = CompiledPlanCache(
            self.conf.plan_cache_max_entries,
            on_lookup=self.obs.query_store.note_plan_cache)
        #: serving-layer hooks (fn(now_s)) run on every session's
        #: housekeeper tick — HiveService reaps expired sessions here
        self.housekeeping_hooks: list = []
        self._view_plans: dict[tuple[str, str], rel.RelNode] = {}
        self._mv_scan_ids = itertools.count(100_000)
        # absorb the pre-existing stats fragments into the registry
        self.obs.bind_server(self.hms, self.workload_manager)
        self.obs.bind_faults(self.faults)
        # every per-statement sink is an ordinary hook registration
        register_builtin_hooks(self.obs.hooks, self.obs, self.hms)
        self.obs.bind_cache(
            "llap", self.llap_cache.stats,
            extra={"used_bytes": lambda: self.llap_cache.used_bytes,
                   "entries": lambda: len(self.llap_cache)})
        self.obs.bind_cache(
            "results", self.results_cache.stats,
            extra={"entries": lambda: len(self.results_cache)})
        self.obs.bind_cache(
            "plan", self.plan_cache.stats,
            extra={"entries": lambda: len(self.plan_cache),
                   "hit_rate": lambda: self.plan_cache.stats.hit_rate})
        self.obs.bind_plan_cache(self.plan_cache)
        self.obs.bind_cluster(
            self.llap_cache, self.hms, self.workload_manager,
            num_nodes=self.conf.num_nodes,
            executors_per_node=SLOTS_PER_NODE,
            cache_capacity_bytes=self.conf.llap_cache_capacity_bytes,
            interval_s=self.conf.monitor_sample_interval_s)
        self._start_monitor_http(self.conf.monitor_http_port)
        #: SET of a server-scoped knob pushes the new value into the
        #: live object that read the same field at construction (see
        #: apply_knob); server2_* have no entry — their readers
        #: consult self.conf
        self._live_pushes = {
            "obs_query_log_capacity": self.obs.query_log.set_capacity,
            "audit_capacity": self.obs.audit_log.set_capacity,
            "lineage_capacity": self.obs.lineage_graph.set_capacity,
            "lineage_enabled": partial(
                setattr, self.obs.lineage_graph, "enabled"),
            "hook_timeout_s": self.obs.hooks.set_timeout,
            "faults_seed": partial(setattr, self.faults, "seed"),
            "faults_io_error_rate": partial(
                setattr, self.faults, "io_error_rate"),
            "txn_timeout_s": partial(
                setattr, self.housekeeper, "timeout_s"),
            "monitor_sample_interval_s": self.obs.cluster.set_interval,
            "monitor_http_port": self._start_monitor_http,
            "lint_sanitize_longhold_s": _set_sanitizer_longhold,
            "plan_cache_max_entries": partial(
                setattr, self.plan_cache, "max_entries"),
            **{k.attr: lambda _value: self.obs.query_store.configure(
                self.conf) for k in KNOBS if k.attr.startswith("qstore_")},
        }

    def _start_monitor_http(self, port: int) -> None:
        if port > 0:
            self.obs.start_http(port=port)

    def apply_knob(self, attr: str, value) -> None:
        """``SET`` of a server-scoped knob, from any session: keep the
        server conf in step with the live object, then push.  Open
        sessions' conf snapshots are not touched."""
        setattr(self.conf, attr, value)
        push = self._live_pushes.get(attr)
        if push is not None:
            push(value)

    # -- public API -------------------------------------------------------------- #
    def connect(self, database: str = "default",
                application: Optional[str] = None) -> "Session":
        return Session(self, database, application)

    def register_hook(self, name: str, fn, phases=PHASES):
        """Install a user execution hook (Section 6 ecosystem point).

        ``fn`` is called as ``fn(phase, record)`` with the statement's
        :class:`repro.obs.query_log.StatementRecord`; errors and over-budget
        runtimes are isolated by the registry and can never change a
        statement's result.  This is the sanctioned registration path
        (reprolint RL013 flags registrations made anywhere else).
        """
        return self.obs.hooks.register(name, fn, phases=phases)

    def register_storage_handler(self, name: str, handler) -> None:
        """Plug in an external engine (Section 6.1)."""
        handler.obs_registry = self.obs.registry
        self.storage_handlers[name.lower()] = handler

    def run_compaction(self) -> int:
        """Drain the compaction queue and clean (returns jobs run)."""
        from ..acid.compactor import CompactionCleaner, CompactionWorker
        worker = CompactionWorker(self.hms, registry=self.obs.registry)
        count = 0
        while worker.run_one() is not None:
            count += 1
        CompactionCleaner(self.hms, self.llap_factory.forget).run()
        return count

    # -- internals shared by sessions ------------------------------------------------ #
    def view_definitions(self, now_s: float) -> list[ViewDefinition]:
        views = []
        for view in self.hms.views_enabled_for_rewrite():
            if not self.hms.is_view_fresh(view, now_s):
                continue
            plan = self._view_plan(view)
            if plan is None:
                continue
            definition = build_view_definition(view, plan)
            if definition is not None:
                views.append(definition)
        return views

    def _view_plan(self, view: TableDescriptor) -> Optional[rel.RelNode]:
        info = view.mv_info
        if info is None:
            return None
        key = (view.qualified_name, info.definition_sql)
        plan = self._view_plans.get(key)
        if plan is None:
            try:
                statement = parse_statement(info.definition_sql, self.conf)
                analyzer = Analyzer(self.hms, self.conf, view.database)
                plan = analyzer.analyze_query(statement.query)
                plan = push_down_predicates(fold_constants(plan))
            except HiveError:
                return None
            self._view_plans[key] = plan
        return plan

    def federation_rule(self):
        if not self.storage_handlers:
            return None
        from ..federation.pushdown import make_pushdown_rule
        return make_pushdown_rule(self.hms, self.storage_handlers)


class Session:
    """One client connection; carries its own mutable configuration."""

    def __init__(self, server: HiveServer2, database: str,
                 application: Optional[str]):
        self.server = server
        self.database = database
        self.application = application
        # *snapshot* semantics, like a HS2 connection: the session conf
        # is copied at open time, so a later server-wide SET does not
        # retro-apply to open sessions; a session changes its own
        # behaviour with its own SET.  Anything keyed by session conf
        # (e.g. the plan-cache digest) must read THIS copy.
        self.conf = server.conf.copy()
        self.now_s = 0.0           # virtual clock across this session
        self._trace = None         # QueryTrace of the statement in flight
        # audit attribution — the serving layer stamps these at open
        # time; a bare connect() runs as the anonymous tenant
        self.tenant = "anonymous"
        self.session_name = ""
        #: StatementRecord of the statement in flight
        self._record: Optional[StatementRecord] = None
        # multi-statement transaction state (§9 roadmap)
        self._active_txn: Optional[int] = None
        self._txn_snapshot = None
        self._txn_pending_stats: list = []
        self._txn_tables: set[str] = set()

    # ------------------------------------------------------------------ #
    def execute(self, sql: str, query_id: Optional[int] = None,
                admission_wait_s: float = 0.0) -> QueryResult:
        """Execute one SQL statement and return its result.

        ``query_id`` lets the serving layer reuse the id it allocated
        at submit time (the operation handle), so the queued phase,
        kill flags and the statement record all share one id;
        ``admission_wait_s`` is the queue wait it charged beforehand.
        """
        obs = self.server.obs
        if "sys." in sql.lower():
            obs.ensure_sys_tables(self.hms)
        trace = obs.start_trace(sql, query_id=query_id)
        self._trace = trace
        trace.root.attrs["tenant"] = self.tenant
        record = StatementRecord(
            query_id=trace.query_id, statement=sql, tenant=self.tenant,
            session=self.session_name, database=self.database,
            application=self.application, started_s=self.now_s,
            admission_wait_s=admission_wait_s)
        self._record = record
        obs.live_queries.register(
            trace.query_id, sql, database=self.database,
            application=self.application, started_s=self.now_s)
        result = None
        try:
            self._tick_txn_clock()
            # byte-identical repeat of a cached select: skip even parse
            cached_plan = self._cached_plan_for(sql)
            if cached_plan is not None:
                record.operation = "select"
                canonical = cached_plan.canonical
            else:
                with trace.span("parse"):
                    statement = parse_statement(sql, self.conf)
                record.operation = _operation_of(statement)
                canonical = statement.unparse()
            # one identity space whichever way the text was obtained;
            # visible to WM regression(...) triggers while running
            record.fingerprint = obs.query_store.fingerprint_of(canonical)
            obs.query_store.register_live(trace.query_id,
                                          record.fingerprint)
            obs.hooks.fire(PRE_EXEC, record)
            result = (self._run_cached_plan(cached_plan)
                      if cached_plan is not None
                      else self._dispatch(statement))
            result.operation = record.operation
            return result
        except BaseException as error:
            # even an interrupt: the finally below completes the record,
            # and an aborted statement must not read "ok"
            record.status = ("killed" if isinstance(error, QueryKilledError)
                             else "error")
            record.error = str(error)
            if not record.fingerprint:
                # died before (or in) parse: raw-text identity
                record.fingerprint = obs.query_store.fingerprint_of(sql)
            raise
        finally:
            self._complete(record, trace, result)

    def _complete(self, record: StatementRecord, trace,
                  result: Optional[QueryResult]) -> None:
        """The statement is over, whatever its outcome: copy the result's
        outcome into the record and give it the run's metrics, close the
        live entry and the trace, and hand the record to the one
        completion path."""
        obs = self.server.obs
        self._trace = None
        self._record = None
        obs.query_store.forget_live(record.query_id)
        if result is not None:
            result.query_id = record.query_id
            result.trace = trace
            record.from_cache = result.from_cache
            record.reexecuted = result.reexecuted
            record.rows_produced = len(result.rows)
            record.rows_affected = result.rows_affected
            record.plan_explain = fingerprints.plan_text(result.optimized)
            record.plan_hash = fingerprints.hash_plan_text(
                record.plan_explain)
            if record.optimized is None:
                # EXPLAIN compiles outside _run_plan
                self._note_plan_inputs(result.optimized, record)
            record.metrics = result.metrics
            if result.metrics is not None:
                self.now_s += result.metrics.total_s
        obs.live_queries.finish(record.query_id, status=record.status)
        trace.finish(error=None if record.status == "ok" else record.error)
        record.wall_ms = trace.root.wall_s * 1000.0
        trace.root.attrs["fingerprint"] = record.fingerprint
        obs.record_query(record)

    def _tick_txn_clock(self) -> None:
        """Per-statement liveness: advance the warehouse virtual clock,

        heartbeat this session's open transaction, and let the
        housekeeper reap transactions whose owners went silent.  A
        fault-stalled transaction skips its heartbeat — that is exactly
        the dead-client scenario the reaper exists for."""
        manager = self.hms.txn_manager
        clock = manager.advance_clock(self.now_s)
        # interval timeseries sampling rides the same per-statement tick
        self.server.obs.monitor_tick(clock)
        txn = self._active_txn
        if txn is not None and not self.server.faults.is_stalled(txn):
            try:
                manager.heartbeat(txn, self.now_s)
            except TransactionError:
                # reaped under us: drop session state so the statement
                # fails cleanly instead of writing into a dead txn
                self._clear_transaction()
                raise
        reaped = self.server.housekeeper.run(self.now_s)
        # serving-layer housekeeping (session TTL reaping) rides the
        # same per-statement tick as the transaction reaper
        for hook in list(self.server.housekeeping_hooks):
            hook(clock)
        if txn is not None and txn in reaped:
            self._clear_transaction()
            raise TransactionError(
                f"txn {txn} heartbeat expired and was aborted by the "
                "housekeeper")

    def _span(self, name: str, **attrs):
        """A trace span if a trace is open, else a no-op context."""
        if self._trace is not None:
            return self._trace.span(name, **attrs)
        return contextlib.nullcontext()

    def _publish_phase(self, phase: str) -> None:
        """Mirror the pipeline stage into ``sys.live_queries``."""
        if self._trace is not None:
            self.server.obs.live_queries.update(
                self._trace.query_id, phase=phase)

    def _note_plan_inputs(self, optimized: Optional[OptimizedPlan],
                          record: Optional[StatementRecord] = None) -> None:
        """Resolve the statement's inputs from its optimized plan.

        Every scan surviving optimization contributes its table and the
        post-pruning column set; EXPLAIN ANALYZE, the audit log and the
        lineage hook all read this one resolution so they cannot drift.
        """
        record = record or self._record
        if record is None or optimized is None:
            return
        record.optimized = optimized
        for scan in rel.find_scans(optimized.root):
            record.add_input(scan.table_name, scan.schema.names())

    def _note_output(self, table_name: str) -> None:
        """Record a table this statement writes (CTAS/INSERT/MV/...)."""
        if self._record is not None:
            self._record.output_tables.add(table_name)

    def _dispatch(self, statement: ast.Statement) -> QueryResult:
        if isinstance(statement, ast.SelectStatement):
            return self._run_select(statement.query)
        if isinstance(statement, ast.Explain):
            if statement.analyze:
                return self._explain_analyze(statement.statement)
            if statement.validate:
                return self._explain_validate(statement.statement)
            if statement.history:
                return self._explain_history(statement.statement)
            if statement.lineage:
                return self._explain_lineage(statement.statement)
            return self._explain(statement.statement)
        kind = _STATEMENTS.get(type(statement))
        if kind is not None:
            return kind[1](self, statement)
        if isinstance(statement, ast.ShowTables):
            rows = [(t,) for t in self.hms.list_tables(self.database)]
            return QueryResult(rows=rows, column_names=["tab_name"])
        if isinstance(statement, ast.ShowDatabases):
            rows = [(d,) for d in self.hms.list_databases()]
            return QueryResult(rows=rows, column_names=["database_name"])
        if isinstance(statement, ast.ShowMaterializedViews):
            rows = []
            for view in self.hms.list_materialized_views():
                info = view.mv_info
                rows.append((view.qualified_name,
                             "yes" if info and info.enabled_for_rewrite
                             else "no",
                             "fresh" if self.hms.is_view_fresh(
                                 view, self.now_s) else "stale"))
            return QueryResult(rows=rows,
                               column_names=["mv_name",
                                             "rewrite_enabled",
                                             "freshness"])
        if isinstance(statement, ast.ShowPartitions):
            table = self.hms.get_table(statement.table, self.database)
            rows = [(descriptor.spec_string(table.partition_columns),)
                    for descriptor in table.list_partitions()]
            return QueryResult(rows=rows, column_names=["partition"])
        if isinstance(statement, ast.DescribeTable):
            table = self.hms.get_table(statement.table, self.database)
            rows = [(c.name, str(c.dtype).lower(), c.comment)
                    for c in table.full_schema()]
            return QueryResult(rows=rows,
                               column_names=["col_name", "data_type",
                                             "comment"])
        raise AnalysisError(
            f"unsupported statement {type(statement).__name__}")

    # -- shortcuts --------------------------------------------------------------- #
    @property
    def hms(self) -> HiveMetastore:
        return self.server.hms

    @property
    def fs(self) -> SimFileSystem:
        return self.server.fs

    def _analyzer(self) -> Analyzer:
        return Analyzer(self.hms, self.conf, self.database)

    def _writer(self) -> TableWriter:
        return TableWriter(self.hms, self.conf,
                           eval_ctx=self._eval_context())

    def _eval_context(self) -> EvalContext:
        """Per-statement expression context: the session's virtual clock
        anchors CURRENT_DATE/CURRENT_TIMESTAMP, the query id salts
        unseeded RAND() (deterministic per statement, distinct across
        statements)."""
        return EvalContext(
            now_s=self.now_s,
            query_id=self._trace.query_id if self._trace else 0)

    def _reader_factory(self):
        """The LLAP elevator, or None: ``AcidReader`` then reads direct."""
        if self.conf.llap_enabled and self.conf.llap_cache_enabled:
            return self.server.llap_factory
        return None

    # ------------------------------------------------------------------ #
    # SELECT path
    def _plan_cache_usable(self) -> bool:
        """May this statement use the compiled plan cache at all?

        Transactions pin snapshots the cache key does not capture, and
        runtime-stats feedback makes compilation workload-dependent —
        both disable lookup *and* store.
        """
        return (self.conf.plan_cache_enabled
                and self._active_txn is None
                and not self.conf.runtime_stats_feedback)

    def _plan_conf_digest(self) -> str:
        # the SESSION's effective conf, never the server's: two
        # sessions differing on a plan-relevant knob must not share
        # plans.  Registered storage handlers ride along because
        # federation pushdown plans differ when a handler appears.
        return plan_conf_digest(
            self.conf,
            extra=",".join(sorted(self.server.storage_handlers)))

    def _cached_plan_for(self, sql: str):
        """Raw-text plan-cache fast path (skips the parser)."""
        if not self._plan_cache_usable():
            return None
        return self.server.plan_cache.lookup_raw(
            self.database, sql, self._plan_conf_digest(),
            self.hms.plan_versions)

    def _run_select(self, query: ast.Query) -> QueryResult:
        plan_key = None
        if self._plan_cache_usable():
            digest = self._plan_conf_digest()
            canonical = query.unparse()
            plan_key = (canonical, digest)
            cached = self.server.plan_cache.lookup(
                self.database, canonical, digest,
                self.hms.plan_versions)
            if cached is not None:
                # a differently-spelled repeat: teach the raw fast
                # path this spelling too
                if self._trace is not None:
                    self.server.plan_cache.link_raw(
                        cached, self.database, self._trace.sql, digest)
                return self._run_cached_plan(cached)
        plan = self._analyze(query)
        tables = sorted({s.table_name for s in rel.find_scans(plan)})
        # captured BEFORE optimization: a concurrent DDL *during*
        # compilation leaves the stored versions behind the table's,
        # invalidating the entry on its next lookup (never stale)
        plan_versions = self.hms.plan_versions(tables)
        current_wids = {t: self.hms.txn_manager.current_write_id(t)
                        for t in tables}

        # sys.* contents are generated from live server state; caching
        # them by write-id would pin permanently stale snapshots
        reads_sys = any(t.split(".", 1)[0] == "sys" for t in tables)
        deterministic = _is_cacheable(query)
        cacheable = (self.conf.results_cache_enabled
                     and self._active_txn is None and not reads_sys
                     and deterministic)
        result = self._through_results_cache(
            query.unparse() if cacheable else None, current_wids,
            lambda: self._compile_and_run(plan))
        if (plan_key is not None and not reads_sys
                and not result.reexecuted
                and result.optimized is not None
                and not result.optimized.views_used
                and not self._mv_rewrite_candidate(tables)):
            # MV-rewritten plans are excluded — and so are plans a
            # rewrite COULD apply to: the decision depends on view
            # freshness, which is time-dependent
            self.server.plan_cache.store(
                self.database, plan_key[0], plan_key[1],
                analyzed=plan, optimized=result.optimized,
                tables=tables, versions=plan_versions,
                cacheable=deterministic,
                raw_sql=(self._trace.sql if self._trace is not None
                         else None))
        return result

    def _analyze(self, query: ast.Query) -> rel.RelNode:
        self._publish_phase("analyze")
        with self._span("analyze"):
            return self._analyzer().analyze_query(query)

    def _run_query(self, query: ast.Query) -> tuple[VectorBatch, QueryResult]:
        """Run ``query`` for the engine's own use (INSERT ... SELECT,
        CTAS, view contents, ANALYZE, EXPLAIN ANALYZE): neither cache is
        consulted or fed, and what comes back is the batch, labelled with
        the result's column names and the analyzed columns."""
        plan = self._analyze(query)
        batch, result = self._run_plan(plan)
        return batch.with_schema(Schema(
            column.renamed(name) for column, name in
            zip(plan.schema, result.column_names))), result

    def _mv_rewrite_candidate(self, tables: list) -> bool:
        """Could an enabled materialized view rewrite this query?

        Whether a rewrite *applies* depends on view freshness at the
        session clock — not capturable in a version key — so plans
        over any rewrite-enabled view's source tables are never
        cached.
        """
        if not self.conf.mv_rewriting:
            return False
        reads = {t.lower() for t in tables}
        for view in self.hms.views_enabled_for_rewrite():
            info = view.mv_info
            if info is not None and reads.intersection(
                    s.lower() for s in info.source_tables):
                return True
        return False

    def _run_cached_plan(self, cached) -> QueryResult:
        """Execute a plan-cache hit.

        Compilation is charged at the reduced
        ``cost.plan_cache_hit_compile_s``; the results cache still
        applies on top (a hit there skips execution as well).
        """
        self._publish_phase("plan cache hit")
        current_wids = {t: self.hms.txn_manager.current_write_id(t)
                        for t in cached.tables}
        cacheable = (self.conf.results_cache_enabled
                     and self._active_txn is None and cached.cacheable)
        result = self._through_results_cache(
            cached.canonical if cacheable else None, current_wids,
            lambda: self._compile_and_run(cached.analyzed, cached=cached))
        result.plan_cached = True
        return result

    def _through_results_cache(self, canonical: Optional[str],
                               current_wids: dict, compute) -> QueryResult:
        """Serve ``canonical`` from the results cache, or ``compute()``
        it and publish; ``None`` marks a query that may not be cached."""
        if canonical is None:
            return compute()
        cache, record = self.server.results_cache, self._record
        entry, must_compute = cache.lookup(
            f"{self.database}::{canonical}", current_wids)
        if not must_compute:
            # no plan ran, but the rows were read from these tables
            if record is not None:
                for table, columns in entry.inputs.items():
                    record.add_input(table, columns)
            metrics = QueryMetrics(total_s=CACHED_FETCH_S,
                                   compile_s=CACHED_FETCH_S)
            return QueryResult(rows=list(entry.rows),
                               column_names=list(entry.column_names),
                               metrics=metrics, from_cache=True)
        try:
            result = compute()
        except Exception:
            cache.abandon(entry)
            raise
        cache.publish(entry, result.rows, result.column_names, current_wids,
                      record.input_columns if record is not None else None)
        return result

    def _compile_and_run(self, plan: rel.RelNode,
                         cached=None) -> QueryResult:
        """:meth:`_run_plan` for a client: the batch becomes rows."""
        batch, result = self._run_plan(plan, cached=cached)
        result.rows = batch.to_rows()
        return result

    def _run_plan(self, plan: rel.RelNode,
                  cached=None) -> tuple[VectorBatch, QueryResult]:
        """Optimize (or take the cached plan) and execute.  The batch is
        a second value, not a ``QueryResult`` field: completed results
        are retained, the batch dies with the statement."""
        conf = self.conf
        stats_overrides = (self.hms.runtime_stats()
                           if conf.runtime_stats_feedback else None)
        compile_cost = None
        if cached is not None:
            # plan-cache hit: reuse the compiled plan and charge the
            # reduced compile cost; a reoptimize below compiles anew
            optimized = cached.optimized
            compile_cost = conf.cost.plan_cache_hit_compile_s
        else:
            optimizer = self._optimizer(conf, stats_overrides)
            self._publish_phase("optimize")
            with self._span("optimize"):
                optimized = optimizer.optimize(plan)
        # resolve the statement's inputs (post column pruning) before
        # the plan runs: a failed or killed statement read them too
        self._note_plan_inputs(optimized)
        attempts = 0
        reexecuted = False
        while True:
            try:
                with self._span("execute") as span:
                    batch, metrics, ctx = self._run_optimized(
                        optimized, conf, compile_overhead_s=compile_cost,
                        kernels=(cached.kernels if cached is not None
                                 else None))
                    if span is not None:
                        span.virtual_s = metrics.total_s
                break
            except VertexFailureError as failure:
                attempts += 1
                if (conf.reexecution_strategy == "off"
                        or attempts > 1   # one re-execution (§4.2)
                        or not failure.retriable):
                    raise
                reexecuted = True
                if conf.reexecution_strategy == "overlay":
                    conf = conf.copy(**conf.reexecution_overlay)
                else:  # reoptimize using captured runtime statistics
                    # a real recompilation: full compile cost again
                    compile_cost = None
                    runtime_stats = getattr(failure, "runtime_stats", {})
                    with self._span("reoptimize"):
                        optimized = self._optimizer(
                            conf, runtime_stats).optimize(plan)
                    self._note_plan_inputs(optimized)
        if conf.runtime_stats_feedback:
            self.hms.record_runtime_stats(ctx.row_counts())
        return batch, QueryResult(
            column_names=[c.name for c in batch.schema],
            metrics=metrics, reexecuted=reexecuted,
            views_used=list(optimized.views_used), optimized=optimized)

    def _optimizer(self, conf: Optional[HiveConf] = None,
                   stats_overrides: Optional[dict] = None) -> Optimizer:
        return Optimizer(
            self.hms, conf or self.conf, stats_overrides=stats_overrides,
            view_provider=lambda: self.server.view_definitions(self.now_s),
            federation_rule=self.server.federation_rule(),
            trace=self._trace)

    def _run_optimized(self, optimized: OptimizedPlan, conf: HiveConf,
                       compile_overhead_s: Optional[float] = None,
                       kernels=None):
        in_txn = self._active_txn is not None
        snapshot = (self._txn_snapshot if in_txn
                    else self.hms.txn_manager.get_snapshot())
        valid: dict[str, ValidWriteIdList] = {}
        for scan in rel.find_scans(optimized.root):
            try:
                table = self.hms.get_table(scan.table_name)
            except CatalogError:
                continue
            if table.is_acid:
                if in_txn:
                    valid[table.qualified_name] = self._txn_valid_list(
                        table.qualified_name)
                else:
                    valid[table.qualified_name] = \
                        self.hms.txn_manager.valid_write_ids(
                            snapshot, table.qualified_name)
        # the sys virtual catalog rides along as a storage handler, but
        # only at scan time — it never participates in pushdown planning
        handlers = dict(self.server.storage_handlers)
        handlers["sys"] = self.server.obs.sys_handler
        scan_executor = ScanExecutor(
            self.hms, self.fs, self._reader_factory(), valid, {},
            handlers, conf.semijoin_bloom_fpp,
            registry=self.server.obs.registry, trace=self._trace)
        runner = TezRunner(conf, self.server.workload_manager,
                           registry=self.server.obs.registry,
                           faults=self.server.faults,
                           live=self.server.obs.live_queries)
        return runner.run(
            optimized, scan_executor, self.application,
            arrival_s=self.now_s,
            hash_join_memory_rows=conf.hash_join_memory_rows,
            trace=self._trace,
            query_id=self._trace.query_id if self._trace else 0,
            compile_overhead_s=compile_overhead_s,
            eval_ctx=self._eval_context(), kernels=kernels)

    # ------------------------------------------------------------------ #
    # EXPLAIN
    def _explain(self, statement: ast.Statement) -> QueryResult:
        if not isinstance(statement, ast.SelectStatement):
            raise AnalysisError("EXPLAIN supports queries only")
        plan = self._analyzer().analyze_query(statement.query)
        optimized = self._optimizer().optimize(plan)
        lines = optimized.root.explain().splitlines()
        lines.append(f"-- stages: {', '.join(optimized.stages_applied)}")
        # the Tez DAG the task compiler would submit (Figure 2)
        from ..runtime.tez import build_dag, merge_shared_vertices
        dag = build_dag(optimized.root)
        if self.conf.shared_work_optimization:
            dag = merge_shared_vertices(dag, optimized.shared_digests)
        lines.append("-- DAG:")
        by_id = {v.vertex_id: v for v in dag.vertices}
        for vertex in dag.topological():
            inputs = ", ".join(by_id[i].name for i in vertex.inputs)
            arrow = f" <- {inputs}" if inputs else ""
            top = vertex.root._explain_label()
            lines.append(f"--   {vertex.name}{arrow}: {top}")
        if optimized.views_used:
            lines.append(
                f"-- materialized views: "
                f"{', '.join(optimized.views_used)}")
        for reducer in optimized.semijoin_reducers:
            lines.append(
                f"-- semijoin reducer {reducer.reducer_id} -> "
                f"{reducer.target_table}.{reducer.target_column}")
        return QueryResult(rows=[(line,) for line in lines],
                           column_names=["plan"], optimized=optimized)

    def _explain_history(self, statement: ast.Statement) -> QueryResult:
        """EXPLAIN HISTORY: the query store's aggregate view of this
        statement — per-plan-hash stats, the last plan diff and any
        regression findings for its fingerprint.  The driver
        fingerprints executed statements by their ``unparse()`` text,
        so unparsing here looks up the same identity."""
        lines = self.server.obs.query_store.history_lines(
            statement.unparse())
        return QueryResult(rows=[(line,) for line in lines],
                           column_names=["history"])

    def _explain_validate(self, statement: ast.Statement) -> QueryResult:
        """EXPLAIN VALIDATE: compile with the plan-invariant checker

        forced on (at least "on"; the session's paranoid setting is
        honoured) and report a per-stage verdict instead of the plan.
        Nothing executes."""
        if not isinstance(statement, ast.SelectStatement):
            raise AnalysisError("EXPLAIN VALIDATE supports queries only")
        plan = self._analyzer().analyze_query(statement.query)
        conf = self.conf
        if conf.plan_check_mode == "off":
            conf = conf.copy(check_plan="on")
        optimizer = self._optimizer(conf)
        lines: list[str] = []
        error: Optional[PlanInvariantError] = None
        try:
            optimizer.optimize(plan)
        except PlanInvariantError as exc:
            error = exc
        for stage in optimizer._checked:
            lines.append(f"check: OK   stage={stage}")
        if error is None:
            lines.append(
                f"result: OK ({len(optimizer._checked)} stages validated, "
                f"mode={conf.plan_check_mode})")
        else:
            lines.append(f"check: FAIL stage={error.stage}")
            for violation in error.violations:
                lines.append(f"  - {violation}")
            if error.diff:
                lines.extend(f"  {line}"
                             for line in error.diff.splitlines())
            lines.append(f"result: FAIL (stage={error.stage})")
        return QueryResult(rows=[(line,) for line in lines],
                           column_names=["check"])

    def _explain_analyze(self, statement: ast.Statement) -> QueryResult:
        """EXPLAIN ANALYZE: run the query, annotate the plan with its

        operator runs (the results cache is bypassed so the plan
        actually executes)."""
        if not isinstance(statement, ast.SelectStatement):
            raise AnalysisError("EXPLAIN ANALYZE supports queries only")
        _, result = self._run_query(statement.query)
        from ..obs.explain_analyze import render_explain_analyze
        # the inputs/outputs footer reads the statement record, the SAME
        # resolution the audit log gets — the two surfaces cannot drift
        record = self._record
        lines = render_explain_analyze(
            result.optimized, result.metrics,
            reexecuted=result.reexecuted, views_used=result.views_used,
            inputs=record.inputs() if record is not None else None,
            outputs=record.outputs() if record is not None else None)
        return QueryResult(rows=[(line,) for line in lines],
                           column_names=["plan"],
                           metrics=result.metrics,
                           optimized=result.optimized)

    def _explain_lineage(self, statement: ast.Statement) -> QueryResult:
        """EXPLAIN LINEAGE: per-output-column dependency edges.

        Compiles (never executes) the query and walks the optimized
        plan with the same extractor the lineage hook uses, so the
        rendered tree matches what ``sys.lineage_edges`` would record.
        """
        if not isinstance(statement, ast.SelectStatement):
            raise AnalysisError("EXPLAIN LINEAGE supports queries only")
        plan = self._analyzer().analyze_query(statement.query)
        optimized = self._optimizer().optimize(plan)
        from ..obs.lineage import render_lineage
        lines = render_lineage(optimized.root)
        return QueryResult(rows=[(line,) for line in lines],
                           column_names=["lineage"],
                           optimized=optimized)

    # ------------------------------------------------------------------ #
    # DDL
    def _create_database(self, statement: ast.CreateDatabase) -> QueryResult:
        self.hms.create_database(statement.name, statement.if_not_exists)
        return QueryResult()

    def _create_table(self, statement: ast.CreateTable) -> QueryResult:
        if statement.if_not_exists and self.hms.table_exists(
                statement.name, self.database):
            return QueryResult(message="table exists, skipped")
        if statement.as_query is not None and not statement.columns:
            # CTAS: derive schema from the query
            batch, select = self._run_query(statement.as_query)
            table = self._register_table(statement, batch.schema)
        else:
            table = self._register_table(statement, Schema(
                [_column_from_def(c) for c in statement.columns]))
            if statement.as_query is None:
                return QueryResult()
            batch, select = self._run_query(statement.as_query)
        self._writer().insert_batch(table, batch)
        return QueryResult(rows_affected=batch.num_rows,
                           metrics=select.metrics)

    def _register_table(self, statement: ast.CreateTable,
                        schema: Schema) -> TableDescriptor:
        properties = dict(statement.properties)
        handler_name = _normalize_handler(statement.storage_handler)
        transactional = properties.get("transactional", "").lower()
        if transactional == "true":
            is_acid = True
        elif transactional == "false":
            is_acid = False
        else:
            is_acid = (self.conf.acid_enabled and not statement.external
                       and handler_name is None
                       and statement.file_format == "orc")
        if is_acid and statement.file_format != "orc":
            raise AnalysisError(
                "transactional tables require the ORC format "
                "(Section 3.2's delta layout lives in ORC files)")
        constraints = Constraints(
            primary_key=tuple(c.lower() for c in statement.primary_key),
            foreign_keys=[ForeignKey(tuple(c.lower() for c in fk.columns),
                                     fk.ref_table.lower(),
                                     tuple(c.lower()
                                           for c in fk.ref_columns))
                          for fk in statement.foreign_keys],
            unique_keys=[tuple(c.lower() for c in uk)
                         for uk in statement.unique_keys],
            not_null=frozenset(c.name.lower() for c in statement.columns
                               if c.not_null))
        bloom_columns = tuple(
            c.strip() for c in properties.get(
                "orc.bloom.filter.columns", "").split(",") if c.strip())
        database, name = _split_table_name(statement.name, self.database)
        table = self.hms.create_table(
            database, name, schema,
            partition_columns=[_column_from_def(c)
                               for c in statement.partition_columns],
            kind=(TableKind.EXTERNAL if statement.external
                  else TableKind.MANAGED),
            file_format=statement.file_format,
            is_acid=is_acid, storage_handler=handler_name,
            properties=properties, constraints=constraints,
            bloom_filter_columns=bloom_columns)
        if handler_name is not None:
            handler = self.server.storage_handlers.get(handler_name)
            if handler is None:
                raise CatalogError(
                    f"storage handler {handler_name!r} is not registered")
            handler.on_create_table(table)
            # external sources may define their own schema
            inferred = handler.infer_schema(table)
            if inferred is not None and not len(schema):
                table.schema = inferred
        self._note_output(table.qualified_name)
        return table

    def _drop_table(self, statement: ast.DropTable) -> QueryResult:
        try:
            table = self.hms.get_table(statement.name, self.database)
        except CatalogError:
            if statement.if_exists:
                return QueryResult(message="no such table, skipped")
            raise
        if statement.is_materialized_view and not \
                table.is_materialized_view:
            raise CatalogError(f"{statement.name} is not a "
                               "materialized view")
        if table.storage_handler is not None:
            handler = self.server.storage_handlers.get(
                table.storage_handler)
            if handler is not None:
                handler.on_drop_table(table)
        # DROP takes an exclusive lock (Section 3.2)
        txn = self.hms.txn_manager.open_transaction()
        try:
            from ..metastore.locks import LockType
            self.hms.lock_manager.acquire(
                txn, table.qualified_name, None, LockType.EXCLUSIVE)
            self.hms.drop_table(statement.name, self.database)
            self.hms.txn_manager.commit(txn)
        finally:
            self.hms.lock_manager.release_all(txn)
        return QueryResult()

    def _alter_table_rename(
            self, statement: ast.AlterTableRename) -> QueryResult:
        """ALTER TABLE t RENAME TO u — provenance follows the rename.

        The metastore rewrites its table→table lineage records and
        bumps plan versions on both names, so cached plans over the old
        name invalidate instead of reading a ghost.
        """
        table = self.hms.rename_table(statement.name, statement.new_name,
                                      self.database)
        self._note_output(table.qualified_name)
        return QueryResult(message=f"renamed to {table.qualified_name}")

    # ------------------------------------------------------------------ #
    # materialized views
    def _create_materialized_view(
            self, statement: ast.CreateMaterializedView) -> QueryResult:
        batch, select = self._run_query(statement.query)
        sources = source_tables_of(
            self._analyzer().analyze_query(statement.query))
        properties = dict(statement.properties)
        staleness = float(properties.get("rewriting.time.window", "0"))
        info = MaterializedViewInfo(
            definition_sql=statement.query.unparse(),
            source_tables=sources,
            snapshot_write_ids=snapshot_write_ids(self.hms, sources),
            rebuild_time=self.now_s,
            allowed_staleness_s=staleness,
            enabled_for_rewrite=not statement.disable_rewrite)
        handler_name = _normalize_handler(statement.stored_by)
        database, name = _split_table_name(statement.name,
                                          self.database)
        view = self.hms.create_table(
            database, name, batch.schema,
            kind=TableKind.MATERIALIZED_VIEW,
            is_acid=False, storage_handler=handler_name,
            properties=properties, mv_info=info)
        self._note_output(view.qualified_name)
        self._store_view_contents(view, batch)
        return QueryResult(rows_affected=batch.num_rows,
                           metrics=select.metrics)

    def _store_view_contents(self, view: TableDescriptor,
                             batch: VectorBatch) -> None:
        if view.storage_handler is not None:
            handler = self.server.storage_handlers.get(
                view.storage_handler)
            if handler is None:
                raise CatalogError(
                    f"storage handler {view.storage_handler!r} is not "
                    "registered")
            handler.on_create_table(view)
            handler.insert_rows(view, batch.to_rows())
        else:
            location = view.location
            if self.fs.exists(location):
                self.fs.delete(location, recursive=True)
            self.fs.mkdirs(location)
            self._writer().insert_batch(view, batch)
        self.hms.set_statistics(view, TableStatistics.from_batch(
            batch.with_schema(view.schema)))

    def _rebuild_materialized_view(
            self, statement: ast.AlterMaterializedViewRebuild
            ) -> QueryResult:
        view = self.hms.get_table(statement.name, self.database)
        if not view.is_materialized_view or view.mv_info is None:
            raise CatalogError(f"{statement.name} is not a materialized "
                               "view")
        info = view.mv_info
        self._note_output(view.qualified_name)
        if self._record is not None:
            # the incremental path executes outside _run_plan,
            # so resolve rebuild inputs from the view's source list
            for source in info.source_tables:
                self._record.add_input(source)
        change = classify_changes(self.hms, info)
        if change is None:
            return QueryResult(message="view is fresh, nothing to do")
        changed = changed_sources(self.hms, info)
        definition = parse_statement(info.definition_sql, self.conf)
        report = None
        if change == "inserts-only" and len(changed) == 1:
            report = self._incremental_rebuild(view, definition.query,
                                               changed[0])
        if report is None:
            batch, _ = self._run_query(definition.query)
            self._store_view_contents(view, batch)
            report = RebuildReport(view.qualified_name, "full",
                                   batch.num_rows)
        info.snapshot_write_ids = snapshot_write_ids(
            self.hms, info.source_tables)
        info.rebuild_time = self.now_s
        return QueryResult(rows_affected=report.rows,
                           message=f"{report.mode} rebuild "
                                   f"({report.delta_rows} delta rows)")

    def _incremental_rebuild(self, view: TableDescriptor,
                             query: ast.Query,
                             changed_table: str
                             ) -> Optional[RebuildReport]:
        """Insert-only incremental maintenance via the rewrite machinery.

        Computes the definition over the *delta* of the changed source
        (rows above the snapshot WriteId) and merges it into the view.
        """
        info = view.mv_info
        plan = self._analyzer().analyze_query(query)
        plan = push_down_predicates(fold_constants(plan))
        spja = extract_spja(plan)
        if spja is None or not all(
                func in _ROLL_UP for func, _, _, _ in spja.agg_calls or ()):
            return None
        table = self.hms.get_table(changed_table)
        if not table.is_acid:
            return None
        snapshot = self.hms.txn_manager.get_snapshot()
        base_valid = self.hms.txn_manager.valid_write_ids(
            snapshot, changed_table)
        delta_valid = DeltaWriteIdList(
            base_valid.table, base_valid.high_watermark,
            base_valid.invalid_ids,
            min_write_id=info.snapshot_write_ids.get(changed_table, 0))
        valid = {changed_table: delta_valid}
        for source in info.source_tables:
            if source == changed_table:
                continue
            source_table = self.hms.get_table(source)
            if source_table.is_acid:
                valid[source] = self.hms.txn_manager.valid_write_ids(
                    snapshot, source)
        scan_executor = ScanExecutor(
            self.hms, self.fs, self._reader_factory(), valid, {},
            self.server.storage_handlers)
        # the old contents and the definition over the delta, rolled up
        # by the view's keys: the engine's one aggregation path, groups
        # in first-occurrence order (the view's rows first)
        merged: rel.RelNode = rel.Union(
            (rel.TableScan(view.qualified_name, view.schema), plan))
        if spja.is_aggregated:
            keys = len(spja.group_exprs)
            merged = rel.Aggregate(merged, tuple(range(keys)), tuple(
                AggregateCall(_ROLL_UP[func], keys + i, column.dtype,
                              column.name)
                for i, ((func, _, _, _), column) in enumerate(zip(
                    spja.agg_calls, view.schema.columns[keys:]))))
        ctx = ExecutionContext(scan_executor=scan_executor)
        batch = execute(merged, ctx)
        self._store_view_contents(view, batch)
        return RebuildReport(view.qualified_name, "incremental",
                             batch.num_rows,
                             delta_rows=ctx.rows_of(plan.digest))

    # ------------------------------------------------------------------ #
    # DML
    def _insert(self, statement: ast.Insert) -> QueryResult:
        table = self.hms.get_table(statement.table, self.database)
        self._note_output(table.qualified_name)
        partition_spec = dict(statement.partition_spec)
        if table.storage_handler is not None:
            if table.storage_handler == "sys":
                self.server.obs.sys_handler.insert_rows(table, ())
            # the federation boundary: a handler is handed rows
            rows = (self._insert_values(statement, table)
                    if statement.query is None
                    else self._insert_query(statement, table).to_rows())
            handler = self.server.storage_handlers[table.storage_handler]
            handler.insert_rows(table, rows)
            self.hms.emit_event("INSERT", table.qualified_name,
                                {"rows": len(rows)})
            # handlers may expose extra metadata columns (e.g. Kafka's
            # __offset); compute stats over the columns actually written
            width = len(rows[0]) if rows else len(table.schema)
            stats_schema = Schema(table.schema.columns[:width])
            stats = TableStatistics.from_rows(stats_schema, rows)
            self.hms.update_statistics(table, stats)
            return QueryResult(rows_affected=len(rows))
        # literals come in through the door, a query's batch goes on
        writer = self._writer()
        if statement.query is None:
            insert = writer.insert_rows
            source = self._insert_values(statement, table)
        else:
            insert = writer.insert_batch
            source = self._insert_query(statement, table)
        if self._active_txn is not None and statement.overwrite:
            raise TransactionError(
                "INSERT OVERWRITE is not allowed inside a "
                "multi-statement transaction")
        result = insert(
            table, source, partition_spec, overwrite=statement.overwrite,
            txn=self._active_txn,
            stats_sink=(self._txn_pending_stats
                        if self._active_txn is not None else None))
        if self._active_txn is not None:
            self._txn_tables.add(table.qualified_name)
        return QueryResult(rows_affected=result.rows_affected)

    def _insert_query(self, statement: ast.Insert,
                      table: TableDescriptor) -> VectorBatch:
        """What INSERT ... SELECT brings; with a column list, laid out
        as the table's data columns (columns not named are NULL)."""
        batch, _ = self._run_query(statement.query)
        if not statement.columns:
            return batch
        if len(batch.vectors) != len(statement.columns):
            raise _column_list_error(table, len(batch.vectors), statement)
        vectors = [ColumnVector.from_values(c.dtype, [None] * batch.num_rows)
                   for c in table.schema]
        for name, vector in zip(statement.columns, batch.vectors):
            vectors[table.schema.index_of(name)] = vector
        return VectorBatch(table.schema, vectors)

    def _insert_values(self, statement: ast.Insert,
                       table: TableDescriptor) -> list[tuple]:
        """The literal rows of INSERT ... VALUES; with a column list,
        laid out as the table's data columns."""
        rows = []
        empty = Schema([])
        converter = _ExprConverter(
            self._analyzer(), Scope([ScopeEntry(None, empty, 0)]),
            None, {})
        from ..optimizer.rules_basic import fold_rex
        for value_row in statement.values:
            row = []
            for expr in value_row:
                folded = fold_rex(converter.convert(expr))
                if not isinstance(folded, RexLiteral):
                    raise AnalysisError(
                        "INSERT VALUES must be constant expressions")
                row.append(folded.value)
            rows.append(tuple(row))
        if statement.columns:
            # reorder/missing columns default to NULL
            names = [c.lower() for c in statement.columns]
            width = len(table.schema)
            reordered = []
            for row in rows:
                if len(row) != len(names):
                    raise _column_list_error(table, len(row), statement)
                full = [None] * width
                for name, value in zip(names, row):
                    full[table.schema.index_of(name)] = value
                reordered.append(tuple(full))
            rows = reordered
        return rows

    def _multi_insert(self, statement: ast.MultiInsert) -> QueryResult:
        """FROM src INSERT ... INSERT ... — the source is evaluated once

        and every branch writes within a single transaction (§3.2)."""
        # evaluate the shared source exactly once
        if isinstance(statement.source, ast.NamedTable):
            source_sql = f"SELECT * FROM {statement.source.name}"
            alias = (statement.source.alias
                     or statement.source.name.split(".")[-1])
        elif isinstance(statement.source, ast.SubqueryRef):
            source_sql = statement.source.query.unparse()
            alias = statement.source.alias
        else:
            raise AnalysisError("unsupported multi-insert source")
        from ..sql.parser import parse_query
        analyzer = self._analyzer()
        source_plan = analyzer.analyze_query(
            parse_query(source_sql, self.conf))
        source_result = self._compile_and_run(source_plan)
        source_schema = Schema([
            Column(name, dtype) for name, dtype in
            zip(source_result.column_names, source_plan.schema.types())])
        scope = Scope([ScopeEntry(alias.lower(), source_schema, 0)])
        star = [RexInputRef(i, column.dtype)
                for i, column in enumerate(source_schema)]

        # branch evaluation + single-transaction writes
        writer = self._writer()
        own_txn = self._active_txn is None
        txn = (self.hms.txn_manager.open_transaction() if own_txn
               else self._active_txn)
        pending_stats: list = ([] if own_txn
                               else self._txn_pending_stats)
        total = 0
        touched: list = []
        try:
            for branch in statement.branches:
                if branch.overwrite:
                    raise TransactionError(
                        "INSERT OVERWRITE is not supported in "
                        "multi-insert statements")
                table = self.hms.get_table(branch.table, self.database)
                if table.storage_handler is not None:
                    raise AnalysisError(
                        "multi-insert into handler-backed tables is not "
                        "supported")
                spec = branch.query.body
                converter = _ExprConverter(analyzer, scope, None, {})
                exprs = []
                for item in spec.select_items:
                    if isinstance(item.expr, ast.Star):
                        exprs.extend(star)
                    else:
                        exprs.append(converter.convert(item.expr))
                # each branch is Project(Filter(Values(source rows)))
                result = writer.insert_batch(
                    table, project_rows(
                        source_schema, source_result.rows,
                        None if spec.where is None
                        else converter.convert(spec.where),
                        exprs, writer.eval_ctx),
                    dict(branch.partition_spec),
                    txn=txn, stats_sink=pending_stats)
                total += result.rows_affected
                self._note_output(table.qualified_name)
                touched.append(table)
                if not own_txn:
                    self._txn_tables.add(table.qualified_name)
            if own_txn:
                self.hms.txn_manager.commit(txn)
        except Exception:
            if own_txn:
                # abort is idempotent on already-aborted transactions
                # (the reaper may have beaten us to it), so no blanket
                # exception swallowing here
                self.hms.txn_manager.abort(txn)
            raise
        finally:
            if own_txn:
                self.hms.lock_manager.release_all(txn)
        if own_txn:
            for pending in pending_stats:
                writer._merge_stats(*pending)
            for table in touched:
                writer.initiator.check_table(table)
        return QueryResult(rows_affected=total, metrics=source_result.metrics)

    def _update(self, statement: ast.Update) -> QueryResult:
        table = self.hms.get_table(statement.table, self.database)
        self._note_output(table.qualified_name)
        analyzer = self._analyzer()
        schema = table.full_schema()
        predicate = (analyzer.convert_predicate(statement.where, schema)
                     if statement.where is not None else None)
        assignments = {}
        for column, expr in statement.assignments:
            ordinal = table.schema.index_of(column)
            assignments[ordinal] = analyzer.convert_scalar(expr, schema)
        result = self._writer().update_where(
            table, predicate, assignments, txn=self._active_txn,
            valid=(self._txn_valid_list(table.qualified_name)
                   if self._active_txn is not None else None))
        if self._active_txn is not None:
            self._txn_tables.add(table.qualified_name)
        return QueryResult(rows_affected=result.rows_affected)

    def _delete(self, statement: ast.Delete) -> QueryResult:
        table = self.hms.get_table(statement.table, self.database)
        self._note_output(table.qualified_name)
        analyzer = self._analyzer()
        predicate = (analyzer.convert_predicate(
            statement.where, table.full_schema())
            if statement.where is not None else None)
        result = self._writer().delete_where(
            table, predicate, txn=self._active_txn,
            valid=(self._txn_valid_list(table.qualified_name)
                   if self._active_txn is not None else None))
        if self._active_txn is not None:
            self._txn_tables.add(table.qualified_name)
        return QueryResult(rows_affected=result.rows_affected)

    def _merge(self, statement: ast.Merge) -> QueryResult:
        if self._active_txn is not None:
            raise TransactionError(
                "MERGE is not supported inside a multi-statement "
                "transaction yet")
        table = self.hms.get_table(statement.target, self.database)
        self._note_output(table.qualified_name)
        analyzer = self._analyzer()
        # source rows
        if isinstance(statement.source, ast.NamedTable):
            source_sql = f"SELECT * FROM {statement.source.name}"
            source_alias = (statement.source.alias
                            or statement.source.name.split(".")[-1])
        elif isinstance(statement.source, ast.SubqueryRef):
            source_sql = statement.source.query.unparse()
            source_alias = statement.source.alias
        else:
            raise AnalysisError("unsupported MERGE source")
        from ..sql.parser import parse_query
        source_plan = analyzer.analyze_query(
            parse_query(source_sql, self.conf))
        source_batch, source_result = self._run_plan(source_plan)
        source_schema = Schema([
            Column(name, dtype) for name, dtype in
            zip(source_result.column_names, source_plan.schema.types())])

        target_alias = (statement.target_alias
                        or statement.target.split(".")[-1]).lower()
        scope = Scope([
            ScopeEntry(target_alias, table.full_schema(), 0),
            ScopeEntry(source_alias.lower(), source_schema,
                       len(table.full_schema()))])
        converter = _ExprConverter(analyzer, scope, None, {})
        condition = converter.convert(statement.condition)

        source_scope = Scope([ScopeEntry(source_alias.lower(),
                                         source_schema, 0)])
        source_converter = _ExprConverter(analyzer, source_scope, None, {})

        clauses = []
        for clause in statement.when_clauses:
            executable = _ExecutableMergeClause(
                matched=clause.matched, action=clause.action)
            if clause.condition is not None:
                ctx_converter = (converter if clause.matched
                                 else source_converter)
                executable.condition = ctx_converter.convert(
                    clause.condition)
            if clause.action == "update":
                executable.assignments = {
                    table.schema.index_of(col):
                        converter.convert(expr)
                    for col, expr in clause.assignments}
            if clause.action == "insert":
                executable.insert_values = [
                    source_converter.convert(e)
                    for e in clause.insert_values]
            clauses.append(executable)

        result = self._writer().merge(table, source_batch, target_alias,
                                      source_schema, condition, clauses)
        return QueryResult(rows_affected=result.rows_affected,
                           metrics=source_result.metrics)

    # ------------------------------------------------------------------ #
    # multi-statement transactions (§9 roadmap: "we plan to implement
    # multi-statement transactions")
    def _begin_transaction(self, statement=None) -> QueryResult:
        if self._active_txn is not None:
            raise TransactionError("a transaction is already open")
        self._active_txn = self.hms.txn_manager.open_transaction()
        self._txn_snapshot = self.hms.txn_manager.get_snapshot()
        self._txn_pending_stats = []
        self._txn_tables = set()
        # fault injection: this client may be elected to "die" holding
        # its locks — it stops heartbeating and the reaper cleans up
        faults = self.server.faults
        rate = self.conf.faults_lock_stall_rate
        if rate > 0.0 and faults.decide("lock.stall",
                                        self._active_txn, rate):
            faults.stall_txn(self._active_txn)
            faults.record("lock.stall", f"txn {self._active_txn}",
                          detail="client stops heartbeating")
        return QueryResult(message=f"txn {self._active_txn} open")

    def _commit_transaction(self, statement=None) -> QueryResult:
        if self._active_txn is None:
            raise TransactionError("no open transaction to commit")
        txn = self._active_txn
        writer = self._writer()
        try:
            self.hms.txn_manager.commit(txn)
        except Exception:
            self._clear_transaction()
            raise
        # apply the deferred statistics only once the commit stuck
        for pending in self._txn_pending_stats:
            writer._merge_stats(*pending)
        touched = set(self._txn_tables)
        self._clear_transaction()
        for table_name in touched:
            writer.initiator.check_table(self.hms.get_table(table_name))
        return QueryResult(message=f"txn {txn} committed")

    def _rollback_transaction(self, statement=None) -> QueryResult:
        if self._active_txn is None:
            raise TransactionError("no open transaction to roll back")
        txn = self._active_txn
        self.hms.txn_manager.abort(txn)
        self._clear_transaction()
        return QueryResult(message=f"txn {txn} rolled back")

    def _clear_transaction(self) -> None:
        if self._active_txn is not None:
            self.hms.lock_manager.release_all(self._active_txn)
        self._active_txn = None
        self._txn_snapshot = None
        self._txn_pending_stats = []
        self._txn_tables = set()

    def _txn_valid_list(self, table_name: str):
        """ValidWriteIdList for reads inside the open transaction:

        the BEGIN snapshot plus this transaction's own writes."""
        from ..metastore.txn import OwnWriteIdList
        base = self.hms.txn_manager.valid_write_ids(
            self._txn_snapshot, table_name)
        own = self.hms.txn_manager.write_ids_of(self._active_txn)
        return OwnWriteIdList(base.table, base.high_watermark,
                              base.invalid_ids,
                              own_write_id=own.get(table_name.lower(), 0))

    # ------------------------------------------------------------------ #
    # ANALYZE / SET / workload DDL
    def _analyze_table(self, statement: ast.AnalyzeTable) -> QueryResult:
        table = self.hms.get_table(statement.table, self.database)
        batch, result = self._run_query(_select_star(table))
        stats = TableStatistics.from_batch(
            batch.with_schema(table.full_schema()))
        # keep only data-column stats at table level
        self.hms.set_statistics(table, stats)
        return QueryResult(rows_affected=stats.row_count,
                           metrics=result.metrics)

    def _set_config(self, statement: ast.SetConfig) -> QueryResult:
        key = statement.key.lower()
        knob = SET_NAMES.get(key)
        if knob is None:
            raise AnalysisError(f"unknown configuration key {key!r}")
        value = knob.parse(key, statement.value)
        current = getattr(self.conf, knob.attr)
        setattr(self.conf, knob.attr, value)
        try:
            self.conf.validate()
        except HiveError:
            setattr(self.conf, knob.attr, current)  # keep the session usable
            raise
        if knob.scope == "server":
            self.server.apply_knob(knob.attr, value)
        return QueryResult(message=f"{knob.attr}={value}")

    def _kill_query(self, statement: ast.KillQuery) -> QueryResult:
        """KILL QUERY <id> — flag a live query for termination.

        The runner observes the flag at its next inter-vertex
        checkpoint and aborts through the WM KILL path, so the victim
        lands in ``sys.query_log`` with status ``killed``.
        """
        live = self.server.obs.live_queries
        if not live.request_kill(statement.query_id,
                                 reason="KILL QUERY"):
            raise AnalysisError(
                f"no live query with id {statement.query_id} "
                "(see sys.live_queries)")
        return QueryResult(
            message=f"kill requested for query {statement.query_id}")

    def _workload_ddl(self, statement: ast.Statement) -> QueryResult:
        hms = self.hms
        if isinstance(statement, ast.CreateResourcePlan):
            hms.save_resource_plan(statement.name,
                                   ResourcePlan(statement.name.lower()))
            self._active_plan_name = statement.name
            return QueryResult()
        if isinstance(statement, ast.CreatePool):
            plan = hms.get_resource_plan(statement.plan)
            plan.add_pool(Pool(statement.pool.lower(),
                               statement.alloc_fraction,
                               statement.query_parallelism))
            return QueryResult()
        if isinstance(statement, ast.CreateTriggerRule):
            plan = hms.get_resource_plan(statement.plan)
            trigger = Trigger(
                statement.name.lower(), statement.metric,
                statement.threshold,
                TriggerAction(statement.action.lower()),
                statement.action_arg.lower()
                if statement.action_arg else None)
            if statement.over_s > 0.0:
                trigger.over_s = statement.over_s
            plan.unattached_triggers[statement.name.lower()] = trigger
            return QueryResult()
        if isinstance(statement, ast.AddRuleToPool):
            plan = self._find_plan_with_rule(statement.rule)
            plan.attach_rule(statement.rule.lower(), statement.pool.lower())
            return QueryResult()
        if isinstance(statement, ast.CreateApplicationMapping):
            plan = hms.get_resource_plan(statement.plan)
            plan.mappings[statement.application.lower()] = \
                statement.pool.lower()
            return QueryResult()
        if isinstance(statement, ast.AlterPlan):
            plan = hms.get_resource_plan(statement.plan)
            if statement.default_pool is not None:
                if statement.default_pool.lower() not in plan.pools:
                    raise CatalogError(
                        f"no such pool: {statement.default_pool}")
                plan.default_pool = statement.default_pool.lower()
            if statement.enable_activate:
                plan.enabled = True
                hms.activate_resource_plan(statement.plan)
                self.server.workload_manager.plan = plan
            return QueryResult()
        raise AnalysisError("unhandled workload statement")

    def _find_plan_with_rule(self, rule: str) -> ResourcePlan:
        for plan_name, plan in self.hms._resource_plans.items():
            if rule.lower() in plan.unattached_triggers:
                return plan
        raise CatalogError(f"no resource plan defines rule {rule!r}")


# --------------------------------------------------------------------------- #
# helpers

@dataclass
class _ExecutableMergeClause:
    matched: bool
    action: str
    condition: Optional[object] = None
    assignments: dict = field(default_factory=dict)
    insert_values: list = field(default_factory=list)


def _split_table_name(name: str, default_db: str) -> tuple[str, str]:
    """Resolve an optionally db-qualified table name."""
    if "." in name:
        database, bare = name.split(".", 1)
        return database, bare
    return default_db, name


#: how a stored aggregate absorbs a partial one over new rows; a view
#: holding any other (AVG, ...) is rebuilt in full
_ROLL_UP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _column_list_error(table: TableDescriptor, got: int,
                       statement: ast.Insert) -> AnalysisError:
    return AnalysisError(
        f"insert into {table.qualified_name}: row has {got} values, the "
        f"column list names {len(statement.columns)}")


def _column_from_def(definition: ast.ColumnDef) -> Column:
    dtype = type_from_name(definition.type_name, *definition.type_params)
    return Column(definition.name.lower(), dtype,
                  nullable=not definition.not_null)


def _normalize_handler(name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    lowered = name.lower()
    if "druid" in lowered:
        return "druid"
    if "jdbc" in lowered:
        return "jdbc"
    if "kafka" in lowered:
        return "kafka"
    return lowered


def _is_cacheable(query: ast.Query) -> bool:
    """Deterministic queries only (Section 4.3)."""
    return not _query_calls(query, NON_CACHEABLE_FUNCTIONS)


def _query_calls(query: ast.Query, names: frozenset) -> bool:
    def expr_has(expr: ast.Expr) -> bool:
        return any(isinstance(e, ast.FuncCall) and e.name in names
                   for e in ast.walk_expr(expr))

    def spec_has(spec) -> bool:
        if isinstance(spec, ast.SetOperation):
            return spec_has(spec.left) or spec_has(spec.right)
        for item in spec.select_items:
            if not isinstance(item.expr, ast.Star) and expr_has(item.expr):
                return True
        if spec.where is not None and expr_has(spec.where):
            return True
        if spec.having is not None and expr_has(spec.having):
            return True
        for ref in spec.from_refs:
            if _ref_has(ref):
                return True
        return False

    def _ref_has(ref) -> bool:
        if isinstance(ref, ast.SubqueryRef):
            return _query_calls(ref.query, names)
        if isinstance(ref, ast.JoinRef):
            return _ref_has(ref.left) or _ref_has(ref.right)
        return False

    for cte in query.ctes:
        if _query_calls(cte.query, names):
            return True
    return spec_has(query.body)


#: statement kind -> (``operation`` label, handler).  The label is
#: stamped on the QueryResult, the sys.query_log / sys.audit_log rows,
#: hook contexts and the ``queries.total`` counter — one spelling whether
#: the statement succeeds or fails.  SELECT and EXPLAIN are dispatched by
#: hand; the remaining kinds (SHOW ..., DESCRIBE) answer with rows like a
#: query and are labelled "select".
_STATEMENTS = {
    ast.CreateDatabase: ("create_database", Session._create_database),
    ast.CreateTable: ("create_table", Session._create_table),
    ast.CreateMaterializedView: ("create_materialized_view",
                                 Session._create_materialized_view),
    ast.AlterMaterializedViewRebuild: (
        "rebuild", Session._rebuild_materialized_view),
    ast.AlterTableRename: ("alter_table_rename",
                           Session._alter_table_rename),
    ast.DropTable: ("drop_table", Session._drop_table),
    ast.Insert: ("insert", Session._insert),
    ast.MultiInsert: ("multi_insert", Session._multi_insert),
    ast.Update: ("update", Session._update),
    ast.Delete: ("delete", Session._delete),
    ast.Merge: ("merge", Session._merge),
    ast.AnalyzeTable: ("analyze", Session._analyze_table),
    ast.SetConfig: ("set", Session._set_config),
    ast.StartTransaction: ("start_transaction", Session._begin_transaction),
    ast.Commit: ("commit", Session._commit_transaction),
    ast.Rollback: ("rollback", Session._rollback_transaction),
    ast.KillQuery: ("kill_query", Session._kill_query),
    ast.CreateResourcePlan: ("create_resource_plan", Session._workload_ddl),
    ast.CreatePool: ("create_pool", Session._workload_ddl),
    ast.CreateTriggerRule: ("create_rule", Session._workload_ddl),
    ast.AddRuleToPool: ("add_rule", Session._workload_ddl),
    ast.CreateApplicationMapping: ("create_mapping", Session._workload_ddl),
    ast.AlterPlan: ("alter_plan", Session._workload_ddl),
}


def _operation_of(statement: ast.Statement) -> str:
    if isinstance(statement, ast.Explain):
        for flavour in ("analyze", "validate", "lineage"):
            if getattr(statement, flavour):
                return f"explain_{flavour}"
        return "explain"
    kind = _STATEMENTS.get(type(statement))
    return kind[0] if kind is not None else "select"


def _set_sanitizer_longhold(seconds: float) -> None:
    """Push to the live lock sanitizer, if this process runs one."""
    from ..lint import sanitizer
    active = sanitizer.current()
    if active is not None:
        active.longhold_s = seconds


def _select_star(table: TableDescriptor) -> ast.Query:
    from ..sql.parser import parse_query
    return parse_query(f"SELECT * FROM {table.qualified_name}")
