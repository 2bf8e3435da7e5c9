"""LLAP data cache (Section 5.1).

An off-heap-style buffer pool addressed along two dimensions, row group
and column: the unit is a **row-column chunk**.  Cache validity uses the
file's unique identifier plus its length (the HDFS FileId / S3 ETag
analogue), so appends and ACID deltas never serve stale data — new files
have new ids, and the cache becomes an MVCC view of the data.

Eviction uses **LRFU** (Least Recently/Frequently Used), the default the
paper describes as "tuned for analytic workloads with frequent full and
partial scan operations".  Each chunk carries a *combined recency and
frequency* value::

    crf(t) = 1 + crf(t_last) * 2^(-lambda * (t - t_last))

``lambda`` → 0 degenerates to LFU; ``lambda`` → 1 to LRU.

A cached chunk is handed to every reader by reference, so the cache makes
the arrays of each :class:`~repro.common.vector.ColumnVector` it admits
read-only: an in-place write by any holder raises instead of corrupting
the next query's data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..common import sync
from ..common.vector import ColumnVector
from ..errors import HiveError
from .placement import node_of


class ChunkKey(NamedTuple):
    """Identity of one row-column chunk (a tuple, so building and
    hashing one per cache probe stays in C)."""

    file_id: int
    file_length: int
    row_group: int
    column: str


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    hit_bytes: int = 0
    miss_bytes: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = 0
        self.hit_bytes = self.miss_bytes = 0
        self.evictions = self.evicted_bytes = 0


@dataclass
class _Entry:
    payload: object
    nbytes: int
    crf: float
    last_access: int


class LlapCache:
    """LRFU chunk cache with a byte-capacity bound.

    Shared by every session of a server: one lock guards the entries,
    the clock and the counters; no method calls out while holding it.
    """

    def __init__(self, capacity_bytes: int, lrfu_lambda: float = 0.01):
        if capacity_bytes < 0:
            raise HiveError("cache capacity must be >= 0")
        if not 0.0 <= lrfu_lambda <= 1.0:
            raise HiveError("lrfu lambda must be in [0, 1]")
        self.capacity_bytes = capacity_bytes
        self.lrfu_lambda = lrfu_lambda
        self.stats = CacheStats()
        self._lock = sync.new_lock("LlapCache._lock")
        self._entries: dict[ChunkKey, _Entry] = {}
        self._used = 0
        self._clock = 0

    # -- access ------------------------------------------------------------- #
    def get(self, key: ChunkKey) -> Optional[object]:
        with self._lock:
            self._clock += 1
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            entry.crf = 1.0 + entry.crf * self._decay(
                self._clock - entry.last_access)
            entry.last_access = self._clock
            self.stats.hits += 1
            self.stats.hit_bytes += entry.nbytes
            return entry.payload

    def put(self, key: ChunkKey, payload: object, nbytes: int) -> bool:
        """Insert a chunk, evicting as needed; returns False if the chunk
        is larger than the whole cache (never admitted).  An admitted
        vector's arrays become read-only."""
        if nbytes > self.capacity_bytes:
            return False
        if isinstance(payload, ColumnVector):
            payload.data.setflags(write=False)
            payload.nulls.setflags(write=False)
        with self._lock:
            self._clock += 1
            if key in self._entries:
                old = self._entries.pop(key)
                self._used -= old.nbytes
            budget = self.capacity_bytes - nbytes
            while self._used > budget and self._entries:
                victim_key = min(self._entries,
                                 key=lambda k: self._current_crf(
                                     self._entries[k]))
                victim = self._entries.pop(victim_key)
                self._used -= victim.nbytes
                self.stats.evictions += 1
                self.stats.evicted_bytes += victim.nbytes
            self._entries[key] = _Entry(payload, nbytes, 1.0, self._clock)
            self._used += nbytes
            self.stats.miss_bytes += nbytes
            return True

    def invalidate_files(self, file_ids) -> int:
        """Drop every chunk of these files in one pass over the cache
        (compaction cleanup via ``LlapReaderFactory.forget``).

        Counts as eviction: capacity pressure and invalidation must move
        the same ``evictions``/``evicted_bytes`` stats or the registry's
        cache series drift from the actual resident set."""
        with self._lock:
            doomed = [k for k in self._entries if k.file_id in file_ids]
            for key in doomed:
                entry = self._entries.pop(key)
                self._used -= entry.nbytes
                self.stats.evictions += 1
                self.stats.evicted_bytes += entry.nbytes
            return len(doomed)

    def invalidate_file(self, file_id: int) -> int:
        return self.invalidate_files({file_id})

    def invalidate_node(self, node: int, num_nodes: int) -> int:
        """Drop every chunk resident on a dead LLAP daemon.

        Chunk placement follows the simulator's block-placement rule —
        :func:`repro.llap.placement.node_of` — so a daemon death wipes
        exactly the files hosted on that node.  Counts as eviction for
        the same reason as :meth:`invalidate_files`.
        """
        with self._lock:
            doomed = {k.file_id for k in self._entries
                      if node_of(k.file_id, num_nodes) == node}
        return self.invalidate_files(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._used = 0

    # -- introspection ---------------------------------------------------------- #
    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def node_usage(self, num_nodes: int) -> dict[int, tuple[int, int]]:
        """Per-daemon residency: ``{node: (bytes, chunks)}``.

        Uses the same placement rule as :meth:`invalidate_node`, so the
        monitor's heatmap agrees with failover behaviour by
        construction.  Scrape threads copy the entries under the lock
        and add them up outside it.
        """
        usage = {n: (0, 0) for n in range(max(1, num_nodes))}
        with self._lock:
            entries = list(self._entries.items())
        for key, entry in entries:
            node = node_of(key.file_id, num_nodes)
            nbytes, chunks = usage[node]
            usage[node] = (nbytes + entry.nbytes, chunks + 1)
        return usage

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ChunkKey) -> bool:
        with self._lock:
            return key in self._entries

    # -- internals ------------------------------------------------------------ #
    def _decay(self, age: int) -> float:
        return 2.0 ** (-self.lrfu_lambda * age)

    def _current_crf(self, entry: _Entry) -> float:
        return entry.crf * self._decay(self._clock - entry.last_access)
