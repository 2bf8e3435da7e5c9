"""Compaction queue and triggering policy (Section 3.2, "Compaction").

HS2 triggers compaction automatically when thresholds are surpassed:
number of delta directories (→ *minor* compaction: merge deltas into one
delta) or the ratio of delta records to base records (→ *major*
compaction: fold everything into a new base, deleting history).  The
queue lives in HMS; workers in :mod:`repro.acid.compactor` execute the
merge, and a separate cleaning phase removes obsolete directories only
when no open reader can still need them.
"""

from __future__ import annotations

import enum
import itertools
import threading

from ..common import sync
from dataclasses import dataclass, field


class CompactionType(enum.Enum):
    MINOR = "minor"
    MAJOR = "major"


class CompactionState(enum.Enum):
    INITIATED = "initiated"
    WORKING = "working"
    READY_FOR_CLEANING = "ready_for_cleaning"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass
class CompactionRequest:
    request_id: int
    table: str
    partition: tuple | None
    compaction_type: CompactionType
    state: CompactionState = CompactionState.INITIATED
    obsolete_paths: list[str] = field(default_factory=list)
    #: smallest TxnId that must have no open readers before cleaning
    cleaner_barrier_txn: int | None = None
    # filled in by the worker (surfaced in sys.compactions)
    merged_rows: int = 0
    output_dir: str = ""


def should_compact(delta_count: int, delete_delta_count: int,
                   delta_rows: int, base_rows: int,
                   delta_threshold: int,
                   delta_pct_threshold: float = 0.1
                   ) -> CompactionType | None:
    """The initiator's policy.

    Returns the compaction type warranted by the current state, or None.
    Major compaction wins when delta data is large relative to the base
    (``delta_pct_threshold`` of its rows);
    otherwise a pile-up of small delta directories warrants a minor pass.
    """
    total_deltas = delta_count + delete_delta_count
    if base_rows > 0 and delta_rows / base_rows >= delta_pct_threshold:
        return CompactionType.MAJOR
    if base_rows == 0 and delta_rows > 0 and total_deltas >= delta_threshold:
        return CompactionType.MAJOR
    if total_deltas >= delta_threshold:
        return CompactionType.MINOR
    return None


class CompactionQueue:
    """FIFO of compaction work with lifecycle states."""

    def __init__(self):
        self._lock = sync.new_lock('CompactionQueue._lock')
        self._counter = itertools.count(1)
        self._requests: dict[int, CompactionRequest] = {}

    def enqueue(self, table: str, partition: tuple | None,
                compaction_type: CompactionType) -> CompactionRequest:
        with self._lock:
            # coalesce: at most one in-flight request per (table, partition)
            for req in self._requests.values():
                if (req.table == table and req.partition == partition
                        and req.state in (CompactionState.INITIATED,
                                          CompactionState.WORKING)):
                    if (compaction_type is CompactionType.MAJOR
                            and req.compaction_type is CompactionType.MINOR
                            and req.state is CompactionState.INITIATED):
                        req.compaction_type = CompactionType.MAJOR
                    return req
            request = CompactionRequest(next(self._counter), table,
                                        partition, compaction_type)
            self._requests[request.request_id] = request
            return request

    def next_pending(self) -> CompactionRequest | None:
        with self._lock:
            for req in sorted(self._requests.values(),
                              key=lambda r: r.request_id):
                if req.state is CompactionState.INITIATED:
                    req.state = CompactionState.WORKING
                    return req
            return None

    def mark_ready_for_cleaning(self, request_id: int,
                                obsolete_paths: list[str],
                                barrier_txn: int | None) -> None:
        with self._lock:
            req = self._requests[request_id]
            req.state = CompactionState.READY_FOR_CLEANING
            req.obsolete_paths = list(obsolete_paths)
            req.cleaner_barrier_txn = barrier_txn

    def ready_for_cleaning(self) -> list[CompactionRequest]:
        with self._lock:
            return [r for r in self._requests.values()
                    if r.state is CompactionState.READY_FOR_CLEANING]

    def mark_done(self, request_id: int, success: bool = True) -> None:
        with self._lock:
            self._requests[request_id].state = (
                CompactionState.SUCCEEDED if success
                else CompactionState.FAILED)

    def history(self) -> list[CompactionRequest]:
        with self._lock:
            return sorted(self._requests.values(),
                          key=lambda r: r.request_id)
