"""Seeded, deterministic fault-injection registry.

The simulator consults the registry at its charge points — file reads,
task modeling, lock grants, transaction housekeeping — and the registry
answers from a pure hash of ``(seed, site, key, attempt)``.  Because no
decision depends on mutable state or thread arrival order, two runs with
the same ``hive.faults.seed`` inject exactly the same faults and charge
exactly the same recovery cost, which is what makes failure testing
reproducible (and lets CI assert bit-identical results under injection).

Sites in use across the stack:

===============  ====================================================
``fs.read``      simulated IO read error; the reader re-opens and
                 re-reads, charging the full transfer per attempt
``task.fail``    task attempt failure in a Tez vertex; retried with
                 exponential backoff up to ``tez.TASK_MAX_ATTEMPTS``
``task.slow``    slow node: a task's modeled duration is multiplied
                 by ``faults_slow_node_multiplier``
``speculation``  backup attempt launched for an injected straggler
``node.death``   LLAP daemon death: cache chunks on the node are
                 invalidated and execution falls back to containers
``lock.stall``   lock holder stops heartbeating while holding locks
``txn.reaped``   AcidHouseKeeper aborted an expired transaction
===============  ====================================================

Every injection is recorded in a bounded event log surfaced as the
virtual ``sys.fault_log`` table, and mirrored into metrics counters
(``faults.injected`` by site, ``faults.delay_s``).
"""

from __future__ import annotations

import threading

from ..common import sync
import zlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultEvent", "FaultRegistry"]

#: cap on the in-memory event log; totals keep counting past it
MAX_EVENTS = 10_000


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as surfaced in ``sys.fault_log``."""

    event_id: int
    query_id: int
    site: str
    target: str
    attempts: int
    delay_s: float
    detail: str

    def as_row(self) -> tuple:
        return (self.event_id, self.query_id, self.site, self.target,
                self.attempts, round(self.delay_s, 6), self.detail)


class FaultRegistry:
    """Deterministic fault decisions plus the injection event log.

    Decision helpers (:meth:`decide`, :meth:`failed_attempts`,
    :meth:`pick`) are pure functions of the seed and the caller's key —
    the rate is always supplied by the caller so per-session ``SET``
    overrides take effect.  Only the event log and the stalled-txn set
    are stateful, and both are lock-protected.
    """

    def __init__(self, seed: int = 0, io_error_rate: float = 0.0,
                 max_io_retries: int = 3, metrics=None):
        self.seed = int(seed)
        #: server-wide IO error rate consulted by SimFileSystem (the
        #: filesystem is shared across sessions, so this one rate is
        #: fixed at server construction rather than per-session)
        self.io_error_rate = float(io_error_rate)
        self.max_io_retries = int(max_io_retries)
        self.metrics = metrics
        self._lock = sync.new_lock('FaultRegistry._lock')
        self._events: list[FaultEvent] = []
        self._counts: dict[str, int] = {}
        self._next_event_id = 1
        self._stalled_txns: set[int] = set()

    @classmethod
    def from_conf(cls, conf, metrics=None) -> "FaultRegistry":
        return cls(seed=conf.faults_seed,
                   io_error_rate=conf.faults_io_error_rate,
                   metrics=metrics)

    # ------------------------------------------------------------------ #
    # deterministic decisions
    def _uniform(self, site: str, key, attempt: int = 0) -> float:
        """Stable uniform sample in [0, 1) for a fault site and key."""
        token = repr((self.seed, site, key, attempt)).encode("utf-8")
        return zlib.crc32(token) / 2**32

    def decide(self, site: str, key, rate: float) -> bool:
        """Does a fault strike at this site/key under ``rate``?"""
        if rate <= 0.0:
            return False
        return self._uniform(site, key) < rate

    def failed_attempts(self, site: str, key, rate: float,
                        max_extra: int) -> int:
        """Number of consecutive failed attempts before one succeeds.

        Capped at ``max_extra`` — the final attempt always succeeds,
        modeling node blacklisting after repeated failures, so injected
        faults delay queries but never change their results.
        """
        if rate <= 0.0 or max_extra <= 0:
            return 0
        failures = 0
        for attempt in range(max_extra):
            if self._uniform(site, key, attempt) >= rate:
                break
            failures += 1
        return failures

    def pick(self, site: str, key, n: int) -> int:
        """Stable choice of an index in ``[0, n)`` (e.g. which node dies)."""
        return int(self._uniform(site, key) * n) % max(1, n)

    # ------------------------------------------------------------------ #
    # lock-holder stalls (consulted by the session heartbeat loop)
    def stall_txn(self, txn_id: int) -> None:
        with self._lock:
            self._stalled_txns.add(txn_id)

    def is_stalled(self, txn_id: int) -> bool:
        with self._lock:
            return txn_id in self._stalled_txns

    def clear_stall(self, txn_id: int) -> None:
        with self._lock:
            self._stalled_txns.discard(txn_id)

    # ------------------------------------------------------------------ #
    # event log
    def record(self, site: str, target: str, *, query_id: int = 0,
               attempts: int = 0, delay_s: float = 0.0,
               detail: str = "") -> FaultEvent:
        """Log one injection and bump the metrics counters."""
        with self._lock:
            event = FaultEvent(self._next_event_id, query_id, site,
                               str(target), attempts, delay_s, detail)
            self._next_event_id += 1
            self._counts[site] = self._counts.get(site, 0) + 1
            if len(self._events) < MAX_EVENTS:
                self._events.append(event)
        if self.metrics is not None:
            self.metrics.counter("faults.injected", site=site).inc()
            if delay_s > 0.0:
                self.metrics.counter("faults.delay_s", site=site).inc(delay_s)
        return event

    def events(self, site: Optional[str] = None) -> list[FaultEvent]:
        with self._lock:
            if site is None:
                return list(self._events)
            return [e for e in self._events if e.site == site]

    def count(self, site: Optional[str] = None) -> int:
        """Total injections (per site or overall), uncapped."""
        with self._lock:
            if site is None:
                return sum(self._counts.values())
            return self._counts.get(site, 0)
