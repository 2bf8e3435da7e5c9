"""The per-server observability facade.

``HiveServer2`` owns one :class:`Observability`; it wires the metrics
registry, tracer and query log to the rest of the warehouse:

* the pre-existing stats fragments (``LlapCache.stats``,
  ``QueryResultsCache.stats``) are *absorbed* as callback gauges — the
  fragments keep their types and call sites, the registry mirrors them,
* each ``Session.execute`` opens a :class:`~repro.obs.tracing.QueryTrace`
  here, and every finished statement's
  :class:`~repro.obs.query_log.StatementRecord` ends in
  :meth:`Observability.record_query`, which hands it to the hook sinks,
* the ``sys`` virtual catalog is served from this facade's references,
* :meth:`snapshot` / :meth:`to_json` export everything for the bench
  harness (``BENCH_obs.json``).
"""

from __future__ import annotations

import itertools
import json
import threading

from ..common import sync
from collections import deque
from typing import Optional

from ..config import HiveConf
from ..llap.workload import WmEventLog
from .cluster import ClusterMonitor
from .hooks import ON_FAILURE, POST_EXEC, HookRegistry
from .lineage import LineageGraph
from .live import LiveQueryRegistry
from .query_log import RingLog, StatementRecord
from .query_store import QueryStore
from .registry import MetricsRegistry
from .timeseries import TimeseriesStore
from .tracing import QueryTrace


class Observability:
    """Registry + tracer + query log + sys catalog for one server."""

    def __init__(self, conf: Optional[HiveConf] = None,
                 trace_capacity: int = 64,
                 overflow_path: Optional[str] = None,
                 audit_overflow_path: Optional[str] = None):
        conf = conf or HiveConf()
        # the server registry refuses undocumented metric names
        self.registry = MetricsRegistry(require_help=True)
        self.query_log = RingLog(conf.obs_query_log_capacity,
                                 overflow_path)
        self.query_store = QueryStore()
        self.query_store.configure(conf)
        self.audit_log = RingLog(conf.audit_capacity, audit_overflow_path)
        self.lineage_graph = LineageGraph(
            capacity=conf.lineage_capacity, enabled=conf.lineage_enabled)
        self.hooks = HookRegistry(metrics=self.registry,
                                  timeout_s=conf.hook_timeout_s)
        self.wm_events = WmEventLog()
        self.timeseries = TimeseriesStore()
        self.live_queries = LiveQueryRegistry(
            registry=self.registry, wm_events=self.wm_events)
        self.cluster = ClusterMonitor(self.registry, self.timeseries,
                                      self.live_queries)
        self.traces: deque[QueryTrace] = deque(maxlen=trace_capacity)
        self._query_ids = itertools.count(1)
        self._lock = sync.new_lock('Observability._lock')
        # server components the sys tables read (bound by HiveServer2)
        self.hms = None
        self.workload_manager = None
        self.faults = None
        #: serving-layer sources for sys.sessions / sys.plan_cache
        #: (bound by HiveService / HiveServer2; anything with .rows())
        self.session_source = None
        self.plan_cache_source = None
        self._caches: list[tuple[str, object]] = []
        self.http_server = None
        from .systables import SysTableHandler
        self.sys_handler = SysTableHandler(self)
        self._sys_ready = False
        self._register_lint_gauges()
        self._register_qstore_gauges()
        self._register_audit_lineage_gauges()

    def _register_lint_gauges(self) -> None:
        """Lock-sanitizer visibility (``lint.*``).  Registered
        unconditionally: the callbacks read the live sanitizer lazily
        and report zeros when the process runs without one, so
        dashboards keep a stable series either way."""
        from ..lint import sanitizer

        def totals(key):
            active = sanitizer.current()
            return float(active.totals()[key]) if active else 0.0

        reg = self.registry
        reg.register_callback(
            "lint.sanitizer.enabled",
            lambda: 1.0 if sanitizer.current() else 0.0)
        reg.register_callback("lint.sanitizer.sites",
                              lambda: totals("sites"))
        reg.register_callback("lint.sanitizer.acquisitions",
                              lambda: totals("acquisitions"))
        reg.register_callback("lint.sanitizer.contended",
                              lambda: totals("contended"))
        reg.register_callback("lint.sanitizer.longest_hold_s",
                              lambda: totals("longest_hold_s"))
        reg.register_callback(
            "lint.findings",
            lambda: float(len(sanitizer.current().findings()))
            if sanitizer.current() else 0.0)

    def _register_qstore_gauges(self) -> None:
        """Query-store visibility (``qstore.*``)."""
        store = self.query_store
        reg = self.registry
        reg.register_callback("qstore.fingerprints",
                              lambda: float(store.fingerprints_tracked()))
        reg.register_callback("qstore.plans",
                              lambda: float(store.plans_tracked()))
        reg.register_callback("qstore.events",
                              lambda: float(store.events_retained()))
        reg.register_callback("qstore.recorded",
                              lambda: float(store.recorded))
        reg.register_callback("qstore.plan_changes",
                              lambda: float(store.plan_changes))
        reg.register_callback("qstore.regressions",
                              lambda: float(store.regressions))
        reg.register_callback("qstore.evictions",
                              lambda: float(store.evictions))

    def _register_audit_lineage_gauges(self) -> None:
        """Audit/lineage visibility (``audit.*`` / ``lineage.*``).

        ``lineage.table_edges`` is registered lazily by
        ``bind_server`` — the metastore isn't known at construction."""
        audit, graph = self.audit_log, self.lineage_graph
        reg = self.registry
        reg.register_callback("audit.records",
                              lambda: float(audit.recorded))
        reg.register_callback("audit.ring", lambda: float(len(audit)))
        reg.register_callback("audit.spilled",
                              lambda: float(audit.overflow.spilled))
        reg.register_callback("lineage.fingerprints",
                              lambda: float(len(graph)))
        reg.register_callback("lineage.edges",
                              lambda: float(graph.edge_count()))
        reg.register_callback("lineage.recorded",
                              lambda: float(graph.recorded))
        reg.register_callback("lineage.evictions",
                              lambda: float(graph.evictions))

    # -- wiring --------------------------------------------------------- #
    def bind_server(self, hms, workload_manager) -> None:
        with self._lock:
            self.hms = hms
            self.workload_manager = workload_manager
        self.registry.register_callback(
            "lineage.table_edges",
            lambda: float(len(hms.provenance_rows())))

    def bind_faults(self, faults) -> None:
        """Attach the fault registry so ``sys.fault_log`` can serve it."""
        with self._lock:
            self.faults = faults

    def bind_sessions(self, source) -> None:
        """Attach the service session manager (``sys.sessions``)."""
        with self._lock:
            self.session_source = source

    def bind_plan_cache(self, source) -> None:
        """Attach the compiled plan cache (``sys.plan_cache``)."""
        with self._lock:
            self.plan_cache_source = source

    def bind_cache(self, component: str, stats, *,
                   extra: Optional[dict] = None) -> None:
        """Absorb an ad-hoc stats object as callback gauges.

        Every numeric public field of ``stats`` becomes a registry
        series ``cache.<field>{component=...}``; ``extra`` adds computed
        values (e.g. ``used_bytes``) the stats object doesn't carry.
        """
        with self._lock:
            self._caches.append((component, stats))
        for metric, value in vars(stats).items():
            if metric.startswith("_") \
                    or not isinstance(value, (int, float)):
                continue
            self.registry.register_callback(
                f"cache.{metric}",
                (lambda s=stats, m=metric: getattr(s, m)),
                help=f"live '{metric}' stat of a cache component",
                component=component)
        for metric, fn in (extra or {}).items():
            self.registry.register_callback(
                f"cache.{metric}", fn,
                help=f"live '{metric}' stat of a cache component",
                component=component)

    def bind_cluster(self, llap_cache, hms, workload_manager, *,
                     num_nodes: int, executors_per_node: int,
                     cache_capacity_bytes: int,
                     interval_s: float) -> None:
        """Wire the cluster monitor to the warehouse components."""
        self.cluster.bind(llap_cache, hms, workload_manager,
                          num_nodes=num_nodes,
                          executors_per_node=executors_per_node,
                          cache_capacity_bytes=cache_capacity_bytes,
                          interval_s=interval_s)

    def cache_components(self) -> list[tuple[str, object]]:
        with self._lock:
            return list(self._caches)

    # -- monitor -------------------------------------------------------- #
    def monitor_tick(self, now_s: float) -> None:
        """Virtual-clock tick from the driver; interval sampling."""
        self.cluster.maybe_sample(now_s)

    def scrape(self) -> None:
        """Scrape-time sample, taken on every ``/metrics`` GET."""
        self.cluster.scrape_sample()

    def start_http(self, host: str = "127.0.0.1",
                   port: int = 0):
        """Start the monitor endpoint; returns the running server."""
        with self._lock:
            if self.http_server is None:
                from .exposition import MonitorHttpServer
                self.http_server = MonitorHttpServer(
                    self, host=host, port=port).start()
            return self.http_server

    def stop_http(self) -> None:
        with self._lock:
            server = self.http_server
            self.http_server = None
        if server is not None:
            # join outside the lock: handler threads may still be in a
            # scrape that reads this facade
            server.stop()

    def ensure_sys_tables(self, hms=None) -> None:
        """Lazily create the ``sys`` database + virtual tables."""
        with self._lock:
            target = hms or self.hms
            if target is None:
                return
            if not self._sys_ready:
                self.sys_handler.ensure_tables(target)
                self._sys_ready = True

    # -- per-query recording -------------------------------------------- #
    def next_query_id(self) -> int:
        return next(self._query_ids)

    def start_trace(self, sql: str,
                    query_id: Optional[int] = None) -> QueryTrace:
        """Open a trace; ``query_id`` reuses an id the serving layer
        pre-allocated at submit time (the operation handle), so queued
        phase, kill flags and the final log entry share one id."""
        trace = QueryTrace(query_id or self.next_query_id(), sql)
        with self._lock:
            self.traces.append(trace)
        return trace

    def record_query(self, record: StatementRecord) -> None:
        """A statement is over — executed, killed in the queue or denied:
        fire its terminal hook phase.  Every sink is a hook (see
        ``register_builtin_hooks``); nothing else is written here."""
        self.hooks.fire(
            POST_EXEC if record.status == "ok" else ON_FAILURE, record)
        # the rings (and their in-memory spill) retain the record; the
        # plan was for the sinks only and must not stay alive with it
        record.optimized = None
        record.plan_explain = ""

    # -- export --------------------------------------------------------- #
    def snapshot(self) -> dict:
        return {
            "metrics": self.registry.snapshot(),
            "queries": {
                "logged": len(self.query_log),
                "spilled": self.query_log.overflow.spilled,
                "last_query_id": (self.query_log.last().query_id
                                  if len(self.query_log) else 0),
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True,
                          default=str)

    def to_chrome_trace(self, indent: Optional[int] = None) -> str:
        """Export every retained query trace as Chrome trace-event JSON.

        Load the result in ``chrome://tracing`` / Perfetto: one track
        (tid) per query, complete events (``ph="X"``) per span, wall
        durations in microseconds; the cost model's virtual seconds ride
        along in each event's ``args``.  Traces are laid out on a common
        timeline using their real start offsets, so concurrent sessions
        interleave the way they actually ran.
        """
        with self._lock:
            traces = list(self.traces)
        events: list[dict] = []
        if not traces:
            return json.dumps({"traceEvents": [],
                               "displayTimeUnit": "ms"}, indent=indent)
        base = min(trace._started for trace in traces)
        for trace in traces:
            tid = trace.query_id
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": f"query {tid}: {trace.sql[:80]}"}})
            offset_us = (trace._started - base) * 1e6
            self._span_events(trace.root, offset_us, tid, events)
        return json.dumps({"traceEvents": events,
                           "displayTimeUnit": "ms"}, indent=indent)

    @staticmethod
    def _span_events(span, offset_us: float, tid: int,
                     events: list) -> None:
        args = {"virtual_ms": round(span.virtual_s * 1000.0, 3)}
        args.update({k: str(v) for k, v in sorted(span.attrs.items())})
        events.append({
            "name": span.name, "ph": "X", "cat": "query",
            "pid": 1, "tid": tid,
            "ts": round(offset_us + span.start_s * 1e6, 3),
            "dur": round(span.wall_s * 1e6, 3),
            "args": args})
        for child in span.children:
            Observability._span_events(child, offset_us, tid, events)
