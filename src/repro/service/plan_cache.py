"""Compiled plan cache: skip parse/analyze/optimize for repeat statements.

HiveServer2 compiles every statement from scratch; for BI workloads the
same parameterless dashboard queries arrive hundreds of times, and the
compile pipeline (parse -> analyze -> CBO) dominates short-query latency
(Section 7 of the paper motivates exactly this with the results cache;
this cache is its *plan-level* sibling).  The cache stores the analyzed
relational tree and the optimizer's :class:`OptimizedPlan` keyed like
the results cache:

``(database, canonical statement text, plan-relevant conf digest)``

A hit replays the optimized plan against *current* data — results are
always fresh; only compilation is skipped — and charges the reduced
``cost.plan_cache_hit_compile_s`` instead of ``cost.compile_overhead_s``
to the virtual clock.

**Invalidation.**  Partition pruning, stats-derived join orders and
semijoin choices are baked into an optimized plan, so any DDL *or*
statistics change on a referenced table must invalidate.  The metastore
bumps a per-table *plan version* on every DDL event and every stats
update (:meth:`HiveMetastore.plan_versions`); an entry is valid only
while every referenced table's version is unchanged since compile time.
Versions are captured *before* optimization, so a concurrent DDL during
compilation invalidates the entry on its next lookup (conservative,
never stale).

Materialized views get two extra guards: ``CREATE MATERIALIZED VIEW``
bumps the plan version of every *source* table (invalidating base plans
compiled before the MV existed), and the driver refuses to cache any
plan whose tables intersect a rewrite-enabled MV's sources — the
rewrite decision depends on MV freshness, which is time-dependent.

The cache never caches statements that read ``sys.*`` (generated from
live server state), ran inside an explicit transaction, used runtime
stats feedback, were re-executed, or used an MV rewrite — the driver
gates all of these before calling :meth:`store`.
"""

from __future__ import annotations

import hashlib
import itertools
import threading

from ..common import sync
from ..config import KNOBS
from ..exec.compile import KernelCache
from dataclasses import dataclass, field
from typing import Callable, Optional

#: HiveConf attributes that change the shape of an optimized plan
#: (declared ``plan=True`` in repro.config).  Two sessions whose values
#: differ on any of these must not share cached plans: the digest is
#: computed from the *session's* effective conf, never the server's.
PLAN_RELEVANT_CONF = tuple(k.attr for k in KNOBS if k.plan)


def plan_conf_digest(conf, extra: str = "") -> str:
    """Digest of the plan-relevant subset of a session conf.

    ``extra`` folds in non-conf planner inputs (the driver passes the
    registered storage-handler names: federation pushdown plans differ
    when a handler appears).
    """
    parts = [f"{name}={getattr(conf, name)!r}"
             for name in PLAN_RELEVANT_CONF]
    if extra:
        parts.append(f"extra={extra}")
    text = "|".join(parts)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class PlanCacheStats:
    """Mutable counters; absorbed as ``cache.*{component=plan}`` gauges."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class PlanCacheEntry:
    """One compiled statement: analyzed tree + optimized plan."""

    database: str
    canonical: str               # query.unparse() — the cache key text
    conf_digest: str
    analyzed: object             # rel.RelNode (reoptimize re-runs CBO)
    optimized: object            # optimizer.planner.OptimizedPlan
    tables: list[str]            # qualified names the plan reads
    versions: dict[str, int]     # per-table plan versions at compile
    cacheable: bool              # may the *results* cache serve this?
    hits: int = 0
    last_used: int = 0           # LRU clock tick
    raw_keys: set = field(default_factory=set)
    #: compiled expression kernels (repro.exec.compile): every hit on
    #: this entry reuses them, so repeated fingerprints pay expression
    #: lowering once, not once per execution (KernelCache is
    #: thread-safe; entries are shared across sessions)
    kernels: KernelCache = field(default_factory=KernelCache)

    def as_row(self) -> tuple:
        return (self.database, self.canonical, ",".join(self.tables),
                self.conf_digest, self.hits, self.last_used)


class CompiledPlanCache:
    """Thread-safe LRU cache of compiled plans (``sys.plan_cache``)."""

    def __init__(self, max_entries: int = 256,
                 on_lookup: Optional[Callable] = None):
        self.max_entries = max_entries
        self.stats = PlanCacheStats()
        #: ``fn(database, canonical, hit)`` observer, called *after*
        #: the cache lock is released (the query store hangs its
        #: per-fingerprint hit/miss accounting here; firing outside the
        #: lock keeps the lock-order graph acyclic)
        self.on_lookup = on_lookup
        self._lock = sync.new_lock('CompiledPlanCache._lock')
        self._entries: dict[tuple, PlanCacheEntry] = {}
        #: raw statement text -> canonical key, so a repeat of the exact
        #: byte-identical statement skips even the parse step
        self._raw: dict[tuple, tuple] = {}
        self._clock = itertools.count(1)

    # -- lookup --------------------------------------------------------- #
    def lookup(self, database: str, canonical: str, digest: str,
               versions_of: Callable[[list], dict]
               ) -> Optional[PlanCacheEntry]:
        """Return a valid entry or None; counts hit/miss/invalidation.

        ``versions_of(tables)`` reads the metastore's *current* plan
        versions; it is called outside this cache's lock (the metastore
        has its own) only conceptually — here the cache lock is held,
        which is safe because ``HiveMetastore.plan_versions`` takes a
        leaf lock and calls nothing back.
        """
        key = (database, canonical, digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None \
                    and versions_of(entry.tables) != entry.versions:
                self._evict(key, entry)
                self.stats.invalidations += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
            else:
                entry.hits += 1
                entry.last_used = next(self._clock)
                self.stats.hits += 1
        if self.on_lookup is not None:
            self.on_lookup(database, canonical, entry is not None)
        return entry

    def lookup_raw(self, database: str, raw_sql: str, digest: str,
                   versions_of: Callable[[list], dict]
                   ) -> Optional[PlanCacheEntry]:
        """Byte-identical fast path: resolve raw SQL without parsing.

        Misses here are *not* counted — the canonical lookup that
        follows the parse will account for this statement.
        """
        raw_key = (database, raw_sql.strip(), digest)
        with self._lock:
            key = self._raw.get(raw_key)
        if key is None:
            return None
        return self.lookup(database, key[1], digest, versions_of)

    # -- store / invalidate --------------------------------------------- #
    def store(self, database: str, canonical: str, digest: str, *,
              analyzed, optimized, tables: list[str],
              versions: dict[str, int], cacheable: bool,
              raw_sql: Optional[str] = None) -> PlanCacheEntry:
        entry = PlanCacheEntry(
            database=database, canonical=canonical, conf_digest=digest,
            analyzed=analyzed, optimized=optimized,
            tables=sorted(tables), versions=dict(versions),
            cacheable=cacheable)
        key = (database, canonical, digest)
        with self._lock:
            entry.last_used = next(self._clock)
            self._entries[key] = entry
            if raw_sql is not None:
                raw_key = (database, raw_sql.strip(), digest)
                self._raw[raw_key] = key
                entry.raw_keys.add(raw_key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                lru_key = min(self._entries,
                              key=lambda k: self._entries[k].last_used)
                self._evict(lru_key, self._entries[lru_key])
                self.stats.evictions += 1
        return entry

    def _evict(self, key: tuple, entry: PlanCacheEntry) -> None:
        # caller holds self._lock (every call site is inside it)
        self._entries.pop(key, None)     # reprolint: disable=RL001
        for raw_key in entry.raw_keys:
            self._raw.pop(raw_key, None)  # reprolint: disable=RL001

    def link_raw(self, entry: PlanCacheEntry, database: str,
                 raw_sql: str, digest: str) -> None:
        """Teach the raw fast path a new spelling of a cached entry."""
        raw_key = (database, raw_sql.strip(), digest)
        with self._lock:
            key = (entry.database, entry.canonical, entry.conf_digest)
            if self._entries.get(key) is entry:
                self._raw[raw_key] = key
                entry.raw_keys.add(raw_key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._raw.clear()

    # -- reads ---------------------------------------------------------- #
    def rows(self) -> list[tuple]:
        """Snapshot for ``sys.plan_cache``, hottest entries first."""
        with self._lock:
            entries = sorted(self._entries.values(),
                             key=lambda e: (-e.hits, e.canonical))
            return [e.as_row() for e in entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
