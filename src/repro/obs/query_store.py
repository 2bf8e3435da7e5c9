"""Query Store: fingerprint-level workload history (``sys.query_store``).

The query log (PR 1) records single executions richly; this module adds
*query identity across executions*.  Every executed statement is
normalized to a fingerprint (:mod:`repro.obs.fingerprint`) and its
execution stats are aggregated per ``(fingerprint, plan_hash)`` —
counts, exact latency percentiles over bounded sample reservoirs,
rows/bytes, retries, admission wait and the cache-hit mix — in
time-bucketed windows on the session virtual clock.

On top of the aggregates the store detects two kinds of findings, both
deduplicated into ``sys.query_store_events``:

* **plan changes** — a fingerprint switches plan hash; the event
  carries a structural diff of the two EXPLAIN trees,
* **latency regressions** — the current window's p95 exceeds the
  per-fingerprint baseline (samples from all earlier windows) by a
  configurable factor, with a minimum sample count on both sides.

Regression state is also exposed to the WM trigger machinery
(``WHEN regression(query.latency_s) > F THEN MOVE/KILL``) through
:meth:`regression_factor`, so findings fire through the existing
Trigger/alert path and land in ``sys.wm_events``.

Retention mirrors the query log: the store keeps at most
``hive.query.store.capacity`` fingerprints (LRU on last virtual use)
and 512 events.
"""

from __future__ import annotations

from ..common import sync
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import fingerprint as fp_mod

#: bounded latency reservoirs: enough for exact p99 at workload scale,
#: small enough that a hot fingerprint cannot grow without bound
_SAMPLES_PER_WINDOW = 256
_BASELINE_SAMPLES = 512
#: raw-SQL -> fingerprint memo bound (the driver fingerprints every
#: statement; recurring workloads repeat a handful of texts)
_FINGERPRINT_MEMO = 512


def _percentile(samples, p: float) -> float:
    """Exact nearest-rank p-quantile of a sample list (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without math
    return ordered[int(rank) - 1]


@dataclass
class QueryStoreEvent:
    """One deduplicated finding — a row of ``sys.query_store_events``."""

    event_id: int
    kind: str                    # "plan_change" | "regression"
    fingerprint: str
    statement: str
    old_plan_hash: str = ""
    new_plan_hash: str = ""
    before_p95_s: float = 0.0
    after_p95_s: float = 0.0
    factor: float = 0.0
    detail: str = ""
    at_s: float = 0.0            # session virtual clock at detection
    count: int = 1               # dedup: repeat findings bump this

    def as_row(self) -> tuple:
        return (self.event_id, self.kind, self.fingerprint,
                self.statement, self.old_plan_hash, self.new_plan_hash,
                self.before_p95_s, self.after_p95_s, self.factor,
                self.detail, self.at_s, self.count)


@dataclass
class _PlanStats:
    """Aggregates for one (fingerprint, plan_hash) pair."""

    plan_hash: str
    explain_text: str = ""
    executions: int = 0
    errors: int = 0
    retries: int = 0
    rows_produced: int = 0
    disk_bytes: int = 0
    cache_bytes: int = 0
    total_s_sum: float = 0.0
    wall_ms_sum: float = 0.0
    samples: deque = field(
        default_factory=lambda: deque(maxlen=_SAMPLES_PER_WINDOW))
    first_seen_s: float = 0.0
    last_seen_s: float = 0.0

    def percentile(self, p: float) -> float:
        return _percentile(self.samples, p)

    @property
    def mean_s(self) -> float:
        return self.total_s_sum / self.executions if self.executions \
            else 0.0

    @property
    def mean_wall_ms(self) -> float:
        return self.wall_ms_sum / self.executions if self.executions \
            else 0.0


@dataclass
class _FingerprintStats:
    """Aggregates for one fingerprint across all plans."""

    fingerprint: str
    statement: str               # first spelling seen (raw SQL)
    plans: dict = field(default_factory=dict)
    last_plan_hash: str = ""
    executions: int = 0
    errors: int = 0
    retries: int = 0
    results_cache_hits: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    rows_produced: int = 0
    queue_s_sum: float = 0.0     # admission wait (WM queue delay)
    wall_ms_sum: float = 0.0
    #: current time bucket on the virtual clock, and its samples
    bucket: Optional[int] = None
    current: list = field(default_factory=list)
    #: samples from completed buckets — the regression baseline
    baseline: deque = field(
        default_factory=lambda: deque(maxlen=_BASELINE_SAMPLES))
    first_seen_s: float = 0.0
    last_seen_s: float = 0.0

    def all_samples(self) -> list:
        return list(self.baseline) + list(self.current)


class QueryStore:
    """Thread-safe per-server workload history keyed by fingerprint."""

    def __init__(self, capacity: int = 512, window_s: float = 300.0,
                 regression_threshold: float = 1.5,
                 regression_min_samples: int = 5,
                 max_events: int = 512):
        self.enabled = True
        self.capacity = max(1, int(capacity))
        self.window_s = float(window_s)
        self.regression_threshold = float(regression_threshold)
        self.regression_min_samples = max(1, int(regression_min_samples))
        self.max_events = max(1, int(max_events))
        self._lock = sync.new_lock('QueryStore._lock')
        self._fps: dict[str, _FingerprintStats] = {}
        #: dedup key -> event; insertion-ordered, bounded by max_events
        self._events: dict[tuple, QueryStoreEvent] = {}
        self._next_event_id = 1
        #: query_id -> fingerprint of the statement in flight (read by
        #: WM ``regression(...)`` triggers during execution)
        self._live: dict[int, str] = {}
        self._memo: dict[str, str] = {}
        # lifetime counters behind the qstore.* gauges
        self.recorded = 0
        self.plan_changes = 0
        self.regressions = 0
        self.evictions = 0

    # -- configuration -------------------------------------------------- #
    def configure(self, conf) -> None:
        """Adopt the ``qstore_*`` knobs of the server conf (at start,
        and again whenever a ``SET`` changes one of them)."""
        with self._lock:
            self.enabled = bool(conf.qstore_enabled)
            self.capacity = max(1, int(conf.qstore_capacity))
            self.window_s = float(conf.qstore_window_s)
            self.regression_threshold = float(
                conf.qstore_regression_threshold)
            self.regression_min_samples = max(
                1, int(conf.qstore_regression_min_samples))
            self._trim()

    # -- identity ------------------------------------------------------- #
    def fingerprint_of(self, sql: str) -> str:
        """Fingerprint of one statement text (memoized)."""
        key = sql.strip()
        with self._lock:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        value = fp_mod.fingerprint(sql)
        with self._lock:
            if len(self._memo) >= _FINGERPRINT_MEMO:
                self._memo.clear()
            self._memo[key] = value
        return value

    # -- live queries (WM regression triggers) -------------------------- #
    def register_live(self, query_id: int, fingerprint: str) -> None:
        with self._lock:
            self._live[query_id] = fingerprint

    def forget_live(self, query_id: int) -> None:
        with self._lock:
            self._live.pop(query_id, None)

    def regression_factor(self, query_id: int) -> Optional[float]:
        """Current-window p95 / baseline p95 for the live query's
        fingerprint; None when either side lacks samples.  This is the
        value ``WHEN regression(...) > F`` triggers compare."""
        with self._lock:
            fingerprint = self._live.get(query_id)
            if fingerprint is None:
                return None
            stats = self._fps.get(fingerprint)
            if stats is None:
                return None
            state = self._regression_state(stats)
        if state is None:
            return None
        return state[2]

    def _regression_state(self, stats) -> Optional[tuple]:
        """(baseline_p95, current_p95, factor) — None below minimums.

        Caller holds ``self._lock``.
        """
        need = self.regression_min_samples
        if len(stats.baseline) < need or len(stats.current) < need:
            return None
        base_p95 = _percentile(stats.baseline, 95)
        cur_p95 = _percentile(stats.current, 95)
        if base_p95 <= 0.0:
            return None
        return base_p95, cur_p95, cur_p95 / base_p95

    # -- recording ------------------------------------------------------ #
    def record(self, entry) -> None:
        """Aggregate one finished statement (a StatementRecord).

        Reached exactly once per statement, as the ``query_store`` hook
        sink — internal task retries and plan re-executions already
        happened inside the entry, so they can never double-count an
        execution.  A statement without a fingerprint never reached the
        driver (killed in the queue, denied) and is skipped.
        """
        fingerprint, now_s = entry.fingerprint, entry.at_s
        if not fingerprint:
            return
        with self._lock:
            if not self.enabled:
                return
            stats = self._fps.get(fingerprint)
            if stats is None:
                stats = _FingerprintStats(
                    fingerprint=fingerprint, statement=entry.statement,
                    first_seen_s=now_s, last_seen_s=now_s)
                self._fps[fingerprint] = stats
                self._trim()
            self.recorded += 1
            stats.executions += 1
            stats.last_seen_s = now_s
            stats.rows_produced += entry.rows_produced
            if entry.metrics is not None:
                stats.queue_s_sum += entry.metrics.queue_s
            stats.wall_ms_sum += entry.wall_ms
            if entry.status != "ok":
                stats.errors += 1
            if entry.reexecuted:
                stats.retries += 1
            if entry.from_cache:
                stats.results_cache_hits += 1
            self._record_plan(stats, entry, now_s)
            # latency windows track real executions only: a results-
            # cache fetch (constant virtual cost) or a failed statement
            # would poison the distribution either way
            if entry.status == "ok" and not entry.from_cache:
                bucket = (int(entry.started_s // self.window_s)
                          if self.window_s > 0 else 0)
                if stats.bucket is None:
                    stats.bucket = bucket
                elif bucket != stats.bucket:
                    stats.baseline.extend(stats.current)
                    stats.current.clear()
                    stats.bucket = bucket
                stats.current.append(entry.total_s)
                if len(stats.current) > _SAMPLES_PER_WINDOW:
                    del stats.current[0]
                self._check_regression(stats, now_s)

    def _record_plan(self, stats, entry, now_s: float) -> None:
        # caller holds self._lock
        plan_hash, plan_explain = entry.plan_hash, entry.plan_explain
        if not plan_hash:
            return
        plan = stats.plans.get(plan_hash)
        if plan is None:
            plan = _PlanStats(plan_hash=plan_hash,
                              explain_text=plan_explain,
                              first_seen_s=now_s)
            stats.plans[plan_hash] = plan
        plan.executions += 1
        plan.last_seen_s = now_s
        plan.rows_produced += entry.rows_produced
        if entry.metrics is not None:
            plan.disk_bytes += entry.metrics.disk_bytes
            plan.cache_bytes += entry.metrics.cache_bytes
        plan.wall_ms_sum += entry.wall_ms
        if entry.status != "ok":
            plan.errors += 1
        if entry.reexecuted:
            plan.retries += 1
        if entry.status == "ok" and not entry.from_cache:
            plan.total_s_sum += entry.total_s
            plan.samples.append(entry.total_s)
        old = stats.last_plan_hash
        if old and old != plan_hash:
            old_text = (stats.plans[old].explain_text
                        if old in stats.plans else "")
            self._emit(("plan_change", stats.fingerprint, old,
                        plan_hash),
                       kind="plan_change", stats=stats,
                       old_plan_hash=old, new_plan_hash=plan_hash,
                       detail=fp_mod.plan_diff(old_text, plan_explain),
                       at_s=now_s)
        stats.last_plan_hash = plan_hash

    def _check_regression(self, stats, now_s: float) -> None:
        # caller holds self._lock
        state = self._regression_state(stats)
        if state is None:
            return
        base_p95, cur_p95, factor = state
        if factor <= self.regression_threshold:
            return
        self._emit(("regression", stats.fingerprint),
                   kind="regression", stats=stats,
                   old_plan_hash="", new_plan_hash=stats.last_plan_hash,
                   before_p95_s=base_p95, after_p95_s=cur_p95,
                   factor=factor, at_s=now_s)

    def _emit(self, key: tuple, *, kind: str, stats,
              old_plan_hash: str = "", new_plan_hash: str = "",
              before_p95_s: float = 0.0, after_p95_s: float = 0.0,
              factor: float = 0.0, detail: str = "",
              at_s: float = 0.0) -> None:
        """Create or bump one deduplicated event (caller holds lock)."""
        event = self._events.get(key)
        if event is not None:
            event.count += 1
            # keep the detection-time "before", track the latest state
            event.after_p95_s = after_p95_s or event.after_p95_s
            event.factor = factor or event.factor
            return
        event = QueryStoreEvent(
            event_id=self._next_event_id, kind=kind,
            fingerprint=stats.fingerprint, statement=stats.statement,
            old_plan_hash=old_plan_hash, new_plan_hash=new_plan_hash,
            before_p95_s=before_p95_s, after_p95_s=after_p95_s,
            factor=factor, detail=detail, at_s=at_s)
        self._next_event_id += 1        # reprolint: disable=RL001
        self._events[key] = event       # reprolint: disable=RL001
        if kind == "plan_change":
            self.plan_changes += 1      # reprolint: disable=RL001
        else:
            self.regressions += 1       # reprolint: disable=RL001
        while len(self._events) > self.max_events:
            oldest = next(iter(self._events))
            self._events.pop(oldest)    # reprolint: disable=RL001

    def _trim(self) -> None:
        # caller holds self._lock; LRU on last virtual use
        while len(self._fps) > self.capacity:
            victim = min(self._fps,
                         key=lambda k: (self._fps[k].last_seen_s, k))
            self._fps.pop(victim)  # reprolint: disable=RL001
            self.evictions += 1   # reprolint: disable=RL001

    # -- plan cache hook ------------------------------------------------ #
    def note_plan_cache(self, database: str, canonical: str,
                        hit: bool) -> None:
        """Per-fingerprint compiled-plan-cache hit/miss accounting.

        Wired as ``CompiledPlanCache.on_lookup``; called after the
        cache releases its own lock, so lock order stays acyclic.
        """
        fingerprint = self.fingerprint_of(canonical)
        with self._lock:
            if not self.enabled:
                return
            stats = self._fps.get(fingerprint)
            if stats is None:
                # first execution: the lookup precedes the record; keep
                # a shell so the miss is not lost
                stats = _FingerprintStats(fingerprint=fingerprint,
                                          statement=canonical)
                self._fps[fingerprint] = stats
                self._trim()
            if hit:
                stats.plan_cache_hits += 1
            else:
                stats.plan_cache_misses += 1

    # -- reads ---------------------------------------------------------- #
    def rows_store(self) -> list[tuple]:
        """Rows of ``sys.query_store`` (hottest fingerprints first)."""
        with self._lock:
            out = []
            for stats in sorted(self._fps.values(),
                                key=lambda s: (-s.executions,
                                               s.fingerprint)):
                samples = stats.all_samples()
                state = self._regression_state(stats)
                out.append((
                    stats.fingerprint, stats.statement,
                    len(stats.plans), stats.executions, stats.errors,
                    stats.retries, stats.results_cache_hits,
                    stats.plan_cache_hits, stats.plan_cache_misses,
                    stats.rows_produced, stats.queue_s_sum,
                    _percentile(samples, 50), _percentile(samples, 95),
                    _percentile(samples, 99),
                    state[0] if state else _percentile(stats.baseline,
                                                       95),
                    (stats.wall_ms_sum / stats.executions
                     if stats.executions else 0.0),
                    stats.last_plan_hash, stats.first_seen_s,
                    stats.last_seen_s))
            return out

    def rows_plans(self) -> list[tuple]:
        """Rows of ``sys.query_store_plans``."""
        with self._lock:
            out = []
            for stats in sorted(self._fps.values(),
                                key=lambda s: s.fingerprint):
                for plan in sorted(stats.plans.values(),
                                   key=lambda p: p.first_seen_s):
                    out.append((
                        stats.fingerprint, plan.plan_hash,
                        plan.executions, plan.errors, plan.retries,
                        plan.rows_produced, plan.disk_bytes,
                        plan.cache_bytes, plan.percentile(50),
                        plan.percentile(95), plan.percentile(99),
                        plan.mean_s, plan.mean_wall_ms,
                        plan.first_seen_s, plan.last_seen_s))
            return out

    def rows_events(self) -> list[tuple]:
        """Rows of ``sys.query_store_events`` (detection order)."""
        with self._lock:
            return [e.as_row() for e in self._events.values()]

    def events(self) -> list[QueryStoreEvent]:
        with self._lock:
            return list(self._events.values())

    def history_lines(self, sql: str) -> list[str]:
        """The ``EXPLAIN HISTORY`` rendering for one statement text."""
        fingerprint = self.fingerprint_of(sql)
        with self._lock:
            stats = self._fps.get(fingerprint)
            if stats is None:
                return [f"no history for fingerprint {fingerprint}"]
            samples = stats.all_samples()
            lines = [
                f"fingerprint: {fingerprint}",
                f"statement: {fp_mod.canonicalize(stats.statement)}",
                f"executions: {stats.executions}  "
                f"errors: {stats.errors}  retries: {stats.retries}  "
                f"plans: {len(stats.plans)}",
                f"cache hits: plan={stats.plan_cache_hits}/"
                f"{stats.plan_cache_hits + stats.plan_cache_misses}  "
                f"results={stats.results_cache_hits}",
                f"latency p50/p95/p99 (virtual s): "
                f"{_percentile(samples, 50):.3f}/"
                f"{_percentile(samples, 95):.3f}/"
                f"{_percentile(samples, 99):.3f}",
            ]
            for plan in sorted(stats.plans.values(),
                               key=lambda p: p.first_seen_s):
                marker = (" [current]"
                          if plan.plan_hash == stats.last_plan_hash
                          else "")
                lines.append(
                    f"plan {plan.plan_hash}{marker}: "
                    f"executions={plan.executions} "
                    f"p50={plan.percentile(50):.3f} "
                    f"p95={plan.percentile(95):.3f} "
                    f"p99={plan.percentile(99):.3f} "
                    f"mean={plan.mean_s:.3f} "
                    f"wall_ms={plan.mean_wall_ms:.1f}")
            last_change = None
            for event in self._events.values():
                if (event.kind == "plan_change"
                        and event.fingerprint == fingerprint):
                    last_change = event
            if last_change is not None:
                lines.append(
                    f"last plan change: {last_change.old_plan_hash} -> "
                    f"{last_change.new_plan_hash} "
                    f"(virtual t={last_change.at_s:.3f}s, "
                    f"seen x{last_change.count})")
                lines.append("plan diff:")
                lines.extend(f"  {line}" for line in
                             last_change.detail.splitlines())
            for event in self._events.values():
                if (event.kind == "regression"
                        and event.fingerprint == fingerprint):
                    lines.append(
                        f"regression: p95 {event.before_p95_s:.3f}s -> "
                        f"{event.after_p95_s:.3f}s "
                        f"({event.factor:.2f}x, seen x{event.count})")
            return lines

    def ui_snapshot(self) -> dict:
        """The ``/ui`` dashboard section."""
        with self._lock:
            top = sorted(self._fps.values(),
                         key=lambda s: (-s.executions, s.fingerprint))
            return {
                "fingerprints": len(self._fps),
                "plan_changes": self.plan_changes,
                "regressions": self.regressions,
                "top": [{
                    "fingerprint": s.fingerprint,
                    "statement": s.statement[:120],
                    "executions": s.executions,
                    "plans": len(s.plans),
                    "p95_s": _percentile(s.all_samples(), 95),
                } for s in top[:10]],
                "events": [{
                    "kind": e.kind, "fingerprint": e.fingerprint,
                    "factor": e.factor, "count": e.count,
                    "old_plan": e.old_plan_hash,
                    "new_plan": e.new_plan_hash,
                } for e in list(self._events.values())[-10:]],
            }

    # -- gauges ---------------------------------------------------------- #
    def fingerprints_tracked(self) -> int:
        with self._lock:
            return len(self._fps)

    def plans_tracked(self) -> int:
        with self._lock:
            return sum(len(s.plans) for s in self._fps.values())

    def events_retained(self) -> int:
        with self._lock:
            return len(self._events)

    def __len__(self) -> int:
        return self.fingerprints_tracked()
