"""One record per statement, and the rings that hold it.

:class:`StatementRecord` is everything the server knows about one
finished statement — executed, killed in the admission queue or denied
alike.  ``Session.execute`` (and the two serving-layer producers of
statements that never reach it) build one and hand it to
``Observability.record_query``; every sink — query log, query store,
``queries.*`` metrics, lineage, provenance, audit, user hooks — is a
hook that receives the same object (see :mod:`repro.obs.hooks`).
``sys.query_log`` and ``sys.audit_log`` are two projections of it, with
the full virtual-time latency breakdown the paper's evaluation
methodology requires (per-query accounting, BigBench style).

Retention: both logs are :class:`RingLog`s — a bounded in-memory ring
(``hive.obs.query.log.capacity`` / ``hive.audit.capacity``) whose
evicted records are not lost: they spill to a :class:`SpillStore`
(optionally file-persisted as JSON lines), so the sys tables still
cover long workloads.  A record holds the run's ``QueryMetrics``, whose
vertices and operator runs back ``sys.vertex_log`` and
``sys.operator_log``.
"""

from __future__ import annotations

import json

from ..common import sync
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Optional


#: the sys.query_log latency columns of a statement that ran no plan
_NO_LATENCY = (0.0,) * 8 + (0, 0, 0.0)


# slots: the rings retain thousands of these
@dataclass(slots=True)
class StatementRecord:
    """What hooks observe about one statement.

    Built when the statement starts; enriched during compilation
    (optimized plan, resolved inputs) and at completion (rows, and the
    run's ``QueryMetrics``, held rather than copied).
    Mutating it from a hook affects later hooks in the same statement
    but never the statement itself — except through ``metrics``, which
    is the statement's own ``QueryMetrics``: hooks read it, never write.
    """

    # -- identity
    query_id: int
    statement: str = ""
    tenant: str = "anonymous"
    session: str = ""
    database: str = "default"
    application: Optional[str] = None
    operation: str = ""
    #: query-store identity; joins both logs to sys.query_store
    fingerprint: str = ""
    # -- outcome
    status: str = "ok"                 # ok | error | killed | denied
    error: str = ""
    from_cache: bool = False
    reexecuted: bool = False
    rows_produced: int = 0
    rows_affected: int = 0
    # -- time (virtual seconds unless named otherwise)
    admission_wait_s: float = 0.0
    started_s: float = 0.0             # session virtual clock at start
    wall_ms: float = 0.0
    #: the run's QueryMetrics — latency breakdown, bytes, pool, and the
    #: vertices with their operator runs; None when no plan ran
    metrics: object = None
    # -- plan: the hash is retained; the EXPLAIN text and the
    # OptimizedPlan of the (last) SELECT compiled for this statement
    # are for the sinks only — record_query drops them afterwards
    plan_hash: str = ""
    plan_explain: str = ""
    optimized: object = None
    # -- resolution
    #: table -> set of column names actually read (post column pruning)
    input_columns: dict = field(default_factory=dict)
    output_tables: set = field(default_factory=set)

    @property
    def total_s(self) -> float:
        return self.metrics.total_s if self.metrics is not None else 0.0

    @property
    def pool(self) -> str:
        return self.metrics.pool if self.metrics is not None else ""

    @property
    def at_s(self) -> float:
        """Session virtual clock when the statement finished."""
        return self.started_s + self.total_s

    def add_input(self, table: str, columns=()) -> None:
        self.input_columns.setdefault(table, set()).update(columns)

    def inputs(self) -> list[str]:
        return sorted(self.input_columns)

    def outputs(self) -> list[str]:
        return sorted(self.output_tables)

    def column_refs(self) -> list[str]:
        """Sorted ``table.column`` strings over every input column."""
        return sorted(f"{table}.{column}"
                      for table, columns in self.input_columns.items()
                      for column in columns)

    def as_query_log_row(self) -> tuple:
        """Row shape of ``sys.query_log`` (see obs.systables)."""
        m = self.metrics
        latency = ((m.total_s, m.queue_s, m.compile_s, m.startup_s,
                    m.io_s, m.cpu_s, m.shuffle_s, m.external_s,
                    m.disk_bytes, m.cache_bytes, m.cache_hit_fraction)
                   if m is not None else _NO_LATENCY)
        return (self.query_id, self.statement, self.database,
                self.application, self.operation, self.status,
                self.error, self.pool, self.from_cache, self.reexecuted,
                self.rows_produced, self.rows_affected, self.started_s,
                *latency, self.wall_ms, self.fingerprint)

    def vertex_rows(self) -> list[tuple]:
        """``sys.vertex_log`` rows for this query."""
        if self.metrics is None:
            return []
        return [vm.as_row(self.query_id) for vm in self.metrics.vertices]

    def operator_rows(self) -> list[tuple]:
        """``sys.operator_log`` rows: one per operator run per vertex."""
        if self.metrics is None:
            return []
        return [run.as_row(self.query_id, vm.name)
                for vm in self.metrics.vertices for run in vm.operators]

    def as_audit_row(self) -> tuple:
        """Row shape of ``sys.audit_log`` (see obs.systables)."""
        return (self.query_id, self.tenant, self.session, self.database,
                self.application, self.statement, self.operation,
                self.status, self.error, ",".join(self.inputs()),
                ",".join(self.outputs()), ",".join(self.column_refs()),
                self.rows_produced, self.rows_affected,
                self.admission_wait_s, self.total_s, self.at_s,
                self.fingerprint)

    def to_dict(self) -> dict:
        """The JSONL form of both spill files (the plan is not kept)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "optimized"}
        if self.metrics is not None:
            data["metrics"] = asdict(self.metrics)
        data["input_columns"] = {table: sorted(columns) for table, columns
                                 in self.input_columns.items()}
        data["output_tables"] = self.outputs()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StatementRecord":
        known = {f.name for f in fields(cls)}
        record = cls(**{k: v for k, v in data.items() if k in known})
        # JSON round-trips sets and tuples as lists; restore the shapes
        record.input_columns = {table: set(columns) for table, columns
                                in record.input_columns.items()}
        record.output_tables = set(record.output_tables)
        if record.metrics is not None:
            # the runtime imports obs: resolve it only to read one back
            from ..runtime.tez import QueryMetrics
            record.metrics = QueryMetrics.from_dict(record.metrics)
        return record


class SpillStore:
    """Spill store for records evicted from a :class:`RingLog`.

    With a ``path`` the store persists records as append-only JSON lines
    (one file per server, survives the process); without one it keeps
    them in memory, which still makes the ``sys`` table complete for
    long in-process workloads.
    """

    def __init__(self, path: Optional[str] = None):
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
                    return [StatementRecord.from_dict(json.loads(line))
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
    """Bounded, thread-safe, append-only log of statement records.

    The newest ``capacity`` records stay in the ring; older ones move to
    the overflow store on eviction instead of vanishing.
    """

    def __init__(self, capacity: int = 1000,
                 overflow_path: Optional[str] = None):
        self._lock = sync.new_lock('RingLog._lock')
        self._capacity = max(1, int(capacity))
        self._entries: deque = deque()
        #: records ever appended (ring + spilled)
        self.recorded = 0
        self.overflow = SpillStore(overflow_path)

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

