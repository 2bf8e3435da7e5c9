"""Query results cache (Section 4.3).

Each HS2 instance keeps a map from the **normalized query AST** (with
unqualified table references resolved against the current database) to an
entry holding the result and the transactional snapshot it was computed
under.  A hit is served only when no participating table has new or
modified data — validity is checked against the tables' current WriteIds.

The cache has a **pending-entry mode**: when several identical queries
miss at once (the thundering herd after a data update), the first one
computes and the rest wait for it instead of recomputing.
"""

from __future__ import annotations

import threading

from ..common import sync
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class CacheEntry:
    key: str
    rows: list = field(default_factory=list)
    column_names: list = field(default_factory=list)
    #: table -> WriteId the result was computed under
    snapshot_write_ids: dict = field(default_factory=dict)
    #: table -> columns the computing statement resolved as its inputs;
    #: a hit is audited as having read the same
    inputs: dict = field(default_factory=dict)
    ready: bool = False
    failed: bool = False
    last_used: int = 0


@dataclass
class ResultsCacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    #: wait *episodes* on a pending entry (one per waiting lookup, not
    #: one per condition-variable wakeup)
    pending_waits: int = 0
    #: pending entries presumed dead and taken over by a waiter after
    #: the bounded wait expired
    pending_takeovers: int = 0


class QueryResultsCache:
    """Thread-safe AST-keyed result cache with pending entries."""

    def __init__(self, max_entries: int = 64, wait_for_pending: bool = True,
                 pending_timeout_s: float = 30.0):
        self.max_entries = max_entries
        self.wait_for_pending = wait_for_pending
        #: total wall-clock bound on waiting for another caller's pending
        #: computation; past it the waiter presumes the computer dead
        #: (died without publish/abandon) and computes itself
        self.pending_timeout_s = pending_timeout_s
        self.stats = ResultsCacheStats()
        self._lock = sync.new_condition('QueryResultsCache._lock')
        self._entries: dict[str, CacheEntry] = {}
        self._clock = 0

    # ------------------------------------------------------------------ #
    def lookup(self, key: str,
               current_write_ids: dict[str, int]
               ) -> tuple[Optional[CacheEntry], bool]:
        """Returns ``(entry, must_compute)``.

        * ``(entry, False)`` — valid hit, serve ``entry.rows``,
        * ``(entry, True)`` — miss; a *pending* entry was installed and
          this caller is elected to compute and then :meth:`publish`,
        * waits on a pending entry computed by another caller when
          pending mode is on.
        """
        with self._lock:
            self._clock += 1
            wait_deadline = None
            while True:
                entry = self._entries.get(key)
                if entry is None:
                    break
                if not entry.ready:
                    if not self.wait_for_pending:
                        break
                    now = time.monotonic()
                    if wait_deadline is None:
                        # first wakeup of this lookup: one wait episode
                        self.stats.pending_waits += 1
                        wait_deadline = now + self.pending_timeout_s
                    elif now >= wait_deadline:
                        # the elected computer died without publish or
                        # abandon; drop its stale pending entry and take
                        # over as the computer ourselves
                        if self._entries.get(key) is entry:
                            del self._entries[key]
                        self.stats.pending_takeovers += 1
                        break
                    self._lock.wait(timeout=wait_deadline - now)
                    continue
                if self._is_valid(entry, current_write_ids):
                    entry.last_used = self._clock
                    self.stats.hits += 1
                    return entry, False
                # stale: expunge and recompute
                self.stats.invalidations += 1
                del self._entries[key]
                break
            self.stats.misses += 1
            pending = CacheEntry(key=key, last_used=self._clock)
            self._entries[key] = pending
            self._evict()
            return pending, True

    def publish(self, entry: CacheEntry, rows: list, column_names: list,
                snapshot_write_ids: dict[str, int],
                inputs: Optional[dict] = None) -> None:
        with self._lock:
            entry.rows = rows
            entry.column_names = list(column_names)
            entry.snapshot_write_ids = dict(snapshot_write_ids)
            entry.inputs = dict(inputs or {})
            entry.ready = True
            self._lock.notify_all()

    def abandon(self, entry: CacheEntry) -> None:
        """The computing query failed or was not cacheable after all."""
        with self._lock:
            entry.failed = True
            entry.ready = True
            self._entries.pop(entry.key, None)
            self._lock.notify_all()

    # ------------------------------------------------------------------ #
    def _is_valid(self, entry: CacheEntry,
                  current_write_ids: dict[str, int]) -> bool:
        if entry.failed:
            return False
        for table, write_id in entry.snapshot_write_ids.items():
            if current_write_ids.get(table, 0) != write_id:
                return False
        return True

    def _evict(self) -> None:
        # caller holds self._lock (only lookup() calls this)
        ready = [e for e in self._entries.values() if e.ready]
        while len(self._entries) > self.max_entries and ready:
            victim = min(ready, key=lambda e: e.last_used)
            ready.remove(victim)
            self._entries.pop(victim.key, None)  # reprolint: disable=RL001

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
