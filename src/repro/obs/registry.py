"""Thread-safe metrics registry: counters, gauges, histograms.

Metric instances are addressed by ``(name, labels)``; asking for the
same address twice returns the same instance, so instrumented code can
call ``registry.counter("scan.rows", table=t).inc(n)`` on every scan
without holding references.  Histograms use fixed exponential bucket
boundaries (Prometheus style) so memory stays bounded no matter how many
observations arrive; percentiles are estimated from the cumulative
bucket counts.

Callback gauges (:meth:`MetricsRegistry.register_callback`) read their
value lazily at snapshot time — this is how pre-existing stats objects
(``CacheStats``, ``ResultsCacheStats``) are absorbed without rewriting
the code that mutates them.
"""

from __future__ import annotations

import json
import threading

from ..common import sync
from typing import Callable, Optional, Sequence

from ..errors import HiveError

LabelKey = tuple[tuple[str, str], ...]

#: default histogram boundaries: ~1 ms to ~17 min of (virtual) seconds
DEFAULT_BUCKETS = tuple(0.001 * (4 ** i) for i in range(11))

#: HELP text for every metric the warehouse registers.  A registry
#: created with ``require_help=True`` (the server's) rejects any
#: registration that neither passes ``help=`` nor appears here, so a
#: new instrumentation site cannot ship an undocumented series —
#: ``sys.metrics`` and the Prometheus ``/metrics`` exposition render
#: these as HELP lines.
METRIC_HELP: dict[str, str] = {
    "queries.total":
        "statements ended (executed, killed in the queue or denied), "
        "by operation and status",
    "queries.results_cache_hits":
        "statements answered from the query results cache",
    "query.latency_s":
        "end-to-end virtual latency of successful queries, per pool",
    "runtime.queries": "queries executed by the Tez runner",
    "runtime.rows_produced": "rows returned by query root operators",
    "runtime.disk_bytes": "bytes read from simulated disk",
    "runtime.cache_bytes": "bytes served from the LLAP cache",
    "runtime.startup_s": "virtual seconds of container/fragment startup",
    "runtime.io_s": "virtual seconds of scan IO",
    "runtime.cpu_s": "virtual seconds of operator CPU",
    "runtime.shuffle_s": "virtual seconds of network shuffle",
    "runtime.external_s": "virtual seconds in external (federated) scans",
    "runtime.queue_s": "virtual seconds queued for a WM pool slot",
    "runtime.retry_s": "virtual seconds lost to injected task retries",
    "runtime.failover_s":
        "virtual seconds re-charged for LLAP daemon failover",
    "runtime.failed_task_attempts": "injected task attempts that failed",
    "runtime.speculative_tasks": "backup attempts launched by speculation",
    "scan.rows": "raw rows decoded per table scan",
    "scan.disk_bytes": "scan bytes read from disk, per table",
    "scan.cache_bytes": "scan bytes served from LLAP cache, per table",
    "scan.row_groups_pruned": "row groups skipped by sargable predicates",
    "scan.partitions_pruned": "partitions eliminated at compile time",
    "scan.semijoin_filtered_rows":
        "rows dropped by dynamic semijoin bloom filters",
    "scan.io_retries": "injected IO errors recovered by re-reads",
    "federation.calls": "pushdown calls issued to external handlers",
    "federation.rows": "rows returned by external handlers",
    "federation.external_s": "virtual seconds spent in external systems",
    "compaction.runs": "compaction jobs executed, by type",
    "compaction.merged_rows": "rows merged by compaction jobs",
    "wm.pool.admissions": "queries admitted per WM pool",
    "wm.pool.queue_delay_s": "admission queue delay distribution per pool",
    "wm.pool.running": "queries currently holding a pool slot",
    "wm.trigger.kills": "queries killed by WM triggers, per pool",
    "wm.trigger.moves": "queries moved between pools by WM triggers",
    "wm.query.total_runtime":
        "per-query scratch gauge read by WM triggers (virtual seconds)",
    "wm.query.elapsed":
        "per-query scratch gauge read by WM triggers (virtual seconds)",
    "wm.query.rows_produced":
        "per-query scratch gauge read by WM triggers (rows)",
    "faults.injected": "faults injected, by site",
    "faults.delay_s": "virtual seconds of injected delay, by site",
    "monitor.kill_requests": "KILL QUERY statements accepted",
    "monitor.kills": "queries terminated via KILL QUERY",
    "service.sessions.opened": "service sessions opened, per tenant",
    "service.sessions.closed": "service sessions closed, per tenant",
    "service.sessions.expired":
        "idle service sessions reaped by the TTL housekeeper",
    "service.sessions.rejected":
        "session opens refused (bad token or tenant quota), per reason",
    "service.statements.submitted":
        "statements accepted by the serving layer, per tenant",
    "service.statements.finished":
        "service operations reaching a terminal state, per status",
    "service.admission.wait_s":
        "virtual seconds queued at the service admission gate, per pool",
    "service.admission.timeouts":
        "submissions rejected by the admission queue timeout, per pool",
    "service.admission.cancelled":
        "queued operations cancelled by KILL QUERY, per pool",
    "service.admission.queued":
        "operations currently waiting for a run slot, per pool",
    "service.admission.running":
        "operations currently holding a service run slot, per pool",
    "service.admission.wait_s.p99":
        "p99 of the service admission wait distribution, per pool",
    "service.admission.wait_s.p95":
        "p95 of the service admission wait distribution, per pool",
    "llap.cache.used_bytes": "LLAP cache bytes resident per daemon",
    "llap.cache.chunks": "LLAP cache chunks resident per daemon",
    "llap.cache.occupancy":
        "fraction of a daemon's cache capacity in use",
    "llap.executors.busy": "executor slots busy per daemon (modeled)",
    "llap.executors.total": "executor slots per daemon",
    "llap.queue_depth": "fragments waiting for an executor per daemon",
    "cluster.nodes_total": "configured LLAP daemon count",
    "txn.open": "transactions currently open",
    "txn.min_open": "oldest open transaction id (0 when none)",
    "locks.held": "locks currently held in the lock manager",
    "locks.waiters": "lock requests currently waiting",
    "lint.sanitizer.enabled":
        "1 when the process runs with the lock sanitizer installed "
        "(HIVE_SANITIZE=1), else 0",
    "lint.sanitizer.sites":
        "distinct lock sites the sanitizer has instrumented",
    "lint.sanitizer.acquisitions":
        "lock acquisitions observed by the sanitizer",
    "lint.sanitizer.contended":
        "sanitized acquisitions that had to block on a held lock",
    "lint.sanitizer.longest_hold_s":
        "longest wall-clock hold of any sanitized lock, in seconds",
    "lint.findings":
        "runtime sanitizer findings so far (rows of sys.lint_findings)",
    "qstore.fingerprints":
        "distinct statement fingerprints tracked by the query store",
    "qstore.plans":
        "distinct (fingerprint, plan hash) pairs tracked by the "
        "query store",
    "qstore.events":
        "deduplicated findings retained in sys.query_store_events",
    "qstore.recorded": "executions aggregated into the query store",
    "qstore.plan_changes":
        "plan-change events detected (fingerprint switched plan hash)",
    "qstore.regressions":
        "latency-regression events detected (window p95 vs. baseline)",
    "qstore.evictions":
        "fingerprints evicted from the query store at capacity",
    "hooks.fired": "execution-hook invocations, by hook and phase",
    "hooks.errors":
        "execution-hook exceptions absorbed (statement unaffected), "
        "by hook and phase",
    "hooks.timeouts":
        "execution hooks quarantined for exceeding hive.hook.timeout.s, "
        "by hook and phase",
    "audit.records": "audit records written (ring + spilled)",
    "audit.ring": "audit records currently resident in the ring",
    "audit.spilled": "audit records spilled to the overflow store",
    "lineage.fingerprints":
        "statement fingerprints with recorded column lineage",
    "lineage.edges":
        "column-level dependency edges resident in the lineage graph",
    "lineage.recorded": "lineage extractions recorded (incl. refreshes)",
    "lineage.evictions":
        "fingerprints evicted from the lineage graph at capacity",
    "lineage.table_edges":
        "table-to-table provenance records in the metastore "
        "(incl. tombstones)",
}


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (float increments allowed)."""

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise HiveError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        # single GIL-atomic float read on the scrape hot path
        return self._value  # concheck: disable=CC002


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        # single GIL-atomic float read on the scrape hot path
        return self._value  # concheck: disable=CC002


class Histogram:
    """Fixed-bucket histogram with count / sum / min / max."""

    __slots__ = ("buckets", "_counts", "count", "sum", "min", "max",
                 "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated p-quantile (upper bucket bound), p in [0, 100]."""
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = self.count * p / 100.0
            cumulative = 0
            for i, bound in enumerate(self.buckets):
                cumulative += self._counts[i]
                if cumulative >= rank:
                    return bound
            return self.max if self.max is not None else self.buckets[-1]

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs, ending
        with the ``+Inf`` bucket (== total count)."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + counts[-1]))
        return out

    def to_dict(self) -> dict:
        # snapshot under the lock, then compute percentiles (which
        # take the non-reentrant lock themselves) after release
        with self._lock:
            count, total = self.count, self.sum
            low, high = self.min, self.max
        mean = total / count if count else 0.0
        return {"count": count, "sum": total,
                "min": low, "max": high, "mean": mean,
                "p50": self.percentile(50), "p95": self.percentile(95)}


class MetricsRegistry:
    """Labeled metric series, one namespace per server."""

    def __init__(self, require_help: bool = False):
        self._lock = sync.new_rlock('MetricsRegistry._lock')
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._series: dict[str, dict[LabelKey, object]] = {}
        self._callbacks: dict[str, dict[LabelKey, Callable[[], float]]] \
            = {}
        #: reject registrations with neither ``help=`` nor a METRIC_HELP
        #: catalog entry (the server registry runs in this mode)
        self.require_help = require_help

    # -- instrument accessors ------------------------------------------- #
    def counter(self, name: str, *, help: str = "",
                **labels) -> Counter:
        return self._get(name, "counter", Counter, labels, help)

    def gauge(self, name: str, *, help: str = "", **labels) -> Gauge:
        return self._get(name, "gauge", Gauge, labels, help)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  *, help: str = "", **labels) -> Histogram:
        return self._get(name, "histogram",
                         lambda: Histogram(buckets), labels, help)

    def register_callback(self, name: str, fn: Callable[[], float],
                          *, help: str = "", **labels) -> None:
        """A gauge whose value is computed at read time."""
        with self._lock:
            self._check_kind(name, "callback")
            self._record_help(name, help)
            self._callbacks.setdefault(name, {})[_label_key(labels)] = fn

    def _get(self, name, kind, factory, labels, help_text=""):
        key = _label_key(labels)
        with self._lock:
            self._check_kind(name, kind)
            self._record_help(name, help_text)
            series = self._series.setdefault(name, {})
            metric = series.get(key)
            if metric is None:
                metric = factory()
                series[key] = metric
            return metric

    def _record_help(self, name: str, help_text: str) -> None:
        # always called with self._lock (an RLock) held by the accessor
        if self._help.get(name):
            return
        resolved = help_text or METRIC_HELP.get(name, "")
        if not resolved and self.require_help:
            raise HiveError(
                f"metric {name!r} registered without help text: pass "
                "help=... or add it to the METRIC_HELP catalog")
        self._help[name] = resolved  # reprolint: disable=RL001

    def _check_kind(self, name: str, kind: str) -> None:
        existing = self._kinds.setdefault(name, kind)
        if existing != kind:
            raise HiveError(
                f"metric {name!r} is a {existing}, not a {kind}")

    # -- reads ---------------------------------------------------------- #
    def value(self, name: str, **labels) -> Optional[float]:
        """Scalar value of one series (histograms report their count)."""
        key = _label_key(labels)
        with self._lock:
            fn = self._callbacks.get(name, {}).get(key)
            metric = self._series.get(name, {}).get(key)
        # callbacks run outside the lock, as in snapshot(): they take
        # their owner's lock (qstore.* -> QueryStore._lock), and owners
        # reach the registry while holding it
        if fn is not None:
            return float(fn())
        if metric is None:
            return None
        if isinstance(metric, Histogram):
            return float(metric.count)
        return metric.value

    def percentile(self, name: str, p: float,
                   **labels) -> Optional[float]:
        """Estimated p-quantile of one histogram series.

        Returns ``None`` when the series does not exist or is not a
        histogram — callers treat that as "no distribution yet", the
        same contract as :meth:`value`.
        """
        key = _label_key(labels)
        with self._lock:
            metric = self._series.get(name, {}).get(key)
        if not isinstance(metric, Histogram):
            return None
        return metric.percentile(p)

    def total(self, name: str, **label_filter) -> float:
        """Sum a metric across all label series matching the filter."""
        wanted = set(_label_key(label_filter))
        total = 0.0
        with self._lock:
            for key, metric in self._series.get(name, {}).items():
                if wanted <= set(key):
                    total += (metric.count
                              if isinstance(metric, Histogram)
                              else metric.value)
            callbacks = [fn for key, fn
                         in self._callbacks.get(name, {}).items()
                         if wanted <= set(key)]
        return total + sum(float(fn()) for fn in callbacks)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(set(self._series) | set(self._callbacks))

    def describe(self, name: str) -> str:
        """HELP text recorded for a metric name ('' when absent)."""
        with self._lock:
            return self._help.get(name, "")

    def kind_of(self, name: str) -> str:
        """Registered kind: counter | gauge | histogram | callback."""
        with self._lock:
            return self._kinds.get(name, "")

    def drop(self, name: str, **labels) -> None:
        """Remove one series (e.g. a per-query gauge after evaluation)."""
        key = _label_key(labels)
        with self._lock:
            self._series.get(name, {}).pop(key, None)
            self._callbacks.get(name, {}).pop(key, None)

    # -- export --------------------------------------------------------- #
    def snapshot(self) -> dict:
        """``{name: [{labels, kind, value...}, ...]}`` over every series."""
        out: dict[str, list] = {}
        with self._lock:
            items = [(name, dict(series))
                     for name, series in self._series.items()]
            callbacks = [(name, dict(series))
                         for name, series in self._callbacks.items()]
            kinds = dict(self._kinds)
        for name, series in items:
            rows = out.setdefault(name, [])
            for key, metric in sorted(series.items()):
                entry = {"labels": dict(key),
                         "kind": kinds.get(name, "?"),
                         "help": self.describe(name)}
                if isinstance(metric, Histogram):
                    entry.update(metric.to_dict())
                    entry["buckets"] = [
                        [bound, count] for bound, count
                        in metric.cumulative_buckets()]
                else:
                    entry["value"] = metric.value
                rows.append(entry)
        for name, series in callbacks:
            rows = out.setdefault(name, [])
            for key, fn in sorted(series.items()):
                rows.append({"labels": dict(key), "kind": "gauge",
                             "help": self.describe(name),
                             "value": float(fn())})
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            # callbacks mirror live objects; keep them registered
            self._kinds = {name: "callback" for name in self._callbacks}
