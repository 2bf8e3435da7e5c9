"""repro.obs — the unified observability subsystem.

The paper's workload manager acts on *runtime counters* (Section 5.2)
and its whole evaluation rests on fine-grained latency breakdowns
(Figures 7/8, Table 1).  This package turns the repo's scattered stats
fragments into one layer:

* :class:`MetricsRegistry` — thread-safe counters, gauges and histograms
  with labeled series, plus callback gauges that mirror pre-existing
  stats objects (``CacheStats``, ``ResultsCacheStats``) without changing
  them,
* :class:`QueryTrace` — per-query span trees covering
  parse → analyze → optimize → admission → DAG vertices → scans, with
  both wall-clock and virtual-time durations,
* :class:`StatementRecord` — the one record of a finished statement,
  and :class:`RingLog`, the ring buffer behind ``sys.query_log`` and
  ``sys.audit_log``,
* :class:`SysTableHandler` — SQL-queryable system tables
  (``sys.query_log``, ``sys.cache_stats``, ``sys.compactions``,
  ``sys.pools``, ``sys.metrics``) served straight from server state,
* :class:`Observability` — the per-server facade wiring it all together
  and exporting JSON snapshots for the bench harness.

The legacy stats classes remain importable from their home modules *and*
from here, so code written against the fragments keeps working.
"""

from .live import LiveQuery, LiveQueryRegistry
from .query_log import RingLog, StatementRecord
from .registry import (METRIC_HELP, Counter, Gauge, Histogram,
                       MetricsRegistry)
from .service import Observability
from .timeseries import Sample, TimeseriesStore
from .tracing import QueryTrace, Span

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "METRIC_HELP",
    "QueryTrace", "Span",
    "RingLog", "StatementRecord", "Observability",
    "TimeseriesStore", "Sample", "LiveQuery", "LiveQueryRegistry",
    "ClusterMonitor", "MonitorHttpServer", "render_prometheus",
    "parse_prometheus_text",
    "SysTableHandler", "render_explain_analyze",
    "HookRegistry",
    "LineageGraph", "LineageEdge", "extract_lineage", "render_lineage",
    # adapted legacy stats objects (lazy re-exports)
    "CacheStats", "ResultsCacheStats", "QueryMetrics", "VertexMetrics",
    "ScanMetrics",
]

_LAZY = {
    "CacheStats": ("repro.llap.cache", "CacheStats"),
    "ResultsCacheStats": ("repro.server.results_cache",
                          "ResultsCacheStats"),
    "QueryMetrics": ("repro.runtime.tez", "QueryMetrics"),
    "VertexMetrics": ("repro.runtime.tez", "VertexMetrics"),
    "ScanMetrics": ("repro.runtime.scan", "ScanMetrics"),
    "SysTableHandler": ("repro.obs.systables", "SysTableHandler"),
    "ClusterMonitor": ("repro.obs.cluster", "ClusterMonitor"),
    "MonitorHttpServer": ("repro.obs.exposition", "MonitorHttpServer"),
    "render_prometheus": ("repro.obs.exposition", "render_prometheus"),
    "parse_prometheus_text": ("repro.obs.promparse",
                              "parse_prometheus_text"),
    "render_explain_analyze": ("repro.obs.explain_analyze",
                               "render_explain_analyze"),
    "HookRegistry": ("repro.obs.hooks", "HookRegistry"),
    "LineageGraph": ("repro.obs.lineage", "LineageGraph"),
    "LineageEdge": ("repro.obs.lineage", "LineageEdge"),
    "extract_lineage": ("repro.obs.lineage", "extract_lineage"),
    "render_lineage": ("repro.obs.lineage", "render_lineage"),
}


def __getattr__(name: str):
    # lazy so importing repro.obs never drags in the runtime stack
    # (runtime.tez imports exec.operators, which may import obs helpers)
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib
    module = importlib.import_module(target[0])
    return getattr(module, target[1])
