"""Query log: the ring buffer behind ``sys.query_log``.

One entry per statement executed through a session — successes and
failures alike — with the full virtual-time latency breakdown the
paper's evaluation methodology requires (per-query accounting, BigBench
style).

Retention: the in-memory ring is bounded (``hive.obs.query.log.capacity``)
but evicted entries are not lost — they spill to a
:class:`SpillStore` (optionally file-persisted as JSON lines), so
``sys.query_log`` still covers long workloads.  The ring and the store
are generic in the record type; the audit log is the other user.
Entries also carry the per-vertex and per-operator profile rows that
back ``sys.vertex_log`` and ``sys.operator_log``.
"""

from __future__ import annotations

import json

from ..common import sync
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Optional


@dataclass
class QueryLogEntry:
    query_id: int
    statement: str
    database: str = "default"
    application: Optional[str] = None
    operation: str = ""
    status: str = "ok"                 # ok | error
    error: str = ""
    pool: str = ""
    from_cache: bool = False
    reexecuted: bool = False
    rows_produced: int = 0
    rows_affected: int = 0
    started_s: float = 0.0             # session virtual clock at start
    total_s: float = 0.0
    queue_s: float = 0.0
    compile_s: float = 0.0
    startup_s: float = 0.0
    io_s: float = 0.0
    cpu_s: float = 0.0
    shuffle_s: float = 0.0
    external_s: float = 0.0
    disk_bytes: int = 0
    cache_bytes: int = 0
    cache_hit_fraction: float = 0.0
    wall_ms: float = 0.0
    #: query-store identity; joins sys.query_log to sys.query_store
    fingerprint: str = ""
    #: ``sys.vertex_log`` rows for this query (VertexMetrics.as_row)
    vertices: list = field(default_factory=list)
    #: ``sys.operator_log`` rows for this query (OperatorProfile.as_row)
    operators: list = field(default_factory=list)

    def as_row(self) -> tuple:
        """Row shape of ``sys.query_log`` (see obs.systables)."""
        return (self.query_id, self.statement, self.database,
                self.application, self.operation, self.status,
                self.error, self.pool, self.from_cache, self.reexecuted,
                self.rows_produced, self.rows_affected, self.started_s,
                self.total_s, self.queue_s, self.compile_s,
                self.startup_s, self.io_s, self.cpu_s, self.shuffle_s,
                self.external_s, self.disk_bytes, self.cache_bytes,
                self.cache_hit_fraction, self.wall_ms, self.fingerprint)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "QueryLogEntry":
        known = {f.name for f in fields(cls)}
        entry = cls(**{k: v for k, v in data.items() if k in known})
        # JSON round-trips tuples as lists; restore the row shapes
        entry.vertices = [tuple(row) for row in entry.vertices]
        entry.operators = [tuple(row) for row in entry.operators]
        return entry


class SpillStore:
    """Spill store for records evicted from a :class:`RingLog`.

    With a ``path`` the store persists records as append-only JSON lines
    (one file per server, survives the process); without one it keeps
    them in memory, which still makes the ``sys`` table complete for
    long in-process workloads.  ``record_type`` supplies the
    ``to_dict`` / ``from_dict`` pair of the JSONL form.
    """

    def __init__(self, record_type: type, path: Optional[str] = None):
        self.record_type = record_type
        self.path = path
        self._lock = sync.new_lock('SpillStore._lock')
        self._memory: list = []
        self.spilled = 0

    def append(self, record) -> None:
        with self._lock:
            self.spilled += 1
            if self.path is None:
                self._memory.append(record)
                return
            with open(self.path, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(record.to_dict(), default=str))
                sink.write("\n")

    def entries(self) -> list:
        with self._lock:
            if self.path is None:
                return list(self._memory)
            try:
                with open(self.path, encoding="utf-8") as source:
                    return [self.record_type.from_dict(json.loads(line))
                            for line in source if line.strip()]
            except FileNotFoundError:
                return []

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            self.spilled = 0
            if self.path is not None:
                with open(self.path, "w", encoding="utf-8"):
                    pass


class RingLog:
    """Bounded, thread-safe, append-only log of ``record_type`` records.

    The newest ``capacity`` records stay in the ring; older ones move to
    the overflow store on eviction instead of vanishing.  Subclasses
    name the record type (:class:`QueryLog`, ``repro.obs.audit.AuditLog``).
    """

    record_type: type

    def __init__(self, capacity: int = 1000,
                 overflow_path: Optional[str] = None):
        self._lock = sync.new_lock('RingLog._lock')
        self._capacity = max(1, int(capacity))
        self._entries: deque = deque()
        #: records ever appended (ring + spilled)
        self.recorded = 0
        self.overflow = SpillStore(self.record_type, overflow_path)

    @property
    def capacity(self) -> int:
        with self._lock:
            return self._capacity

    def set_capacity(self, capacity: int) -> None:
        """Resize the ring; shrinking spills the excess immediately."""
        with self._lock:
            self._capacity = max(1, int(capacity))
            self._spill_excess()

    def _spill_excess(self) -> None:
        # caller holds self._lock; overflow carries its own lock
        while len(self._entries) > self._capacity:
            self.overflow.append(  # reprolint: disable=RL001
                self._entries.popleft())

    def append(self, record) -> None:
        with self._lock:
            self.recorded += 1
            self._entries.append(record)
            self._spill_excess()

    def entries(self) -> list:
        """The in-memory ring only (newest ``capacity`` records)."""
        with self._lock:
            return list(self._entries)

    def all_entries(self) -> list:
        """Spilled + ring records, oldest first — what sys tables read."""
        spilled = self.overflow.entries()
        with self._lock:
            return spilled + list(self._entries)

    def last(self):
        with self._lock:
            return self._entries[-1] if self._entries else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.recorded = 0
        # overflow synchronizes itself; don't nest its lock under ours
        self.overflow.clear()  # reprolint: disable=RL001


class QueryLog(RingLog):
    """The statements executed through any session of one server."""

    record_type = QueryLogEntry
