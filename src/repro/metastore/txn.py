"""Transaction manager (Section 3.2).

Implements the paper's design precisely:

* a global, monotonically increasing **TxnId** per transaction,
* per-table, monotonically increasing **WriteIds** allocated on demand —
  all records written by one transaction to one table share a WriteId,
* **snapshots**: the high-watermark TxnId plus the set of open and aborted
  TxnIds below it, captured when a query starts,
* **ValidWriteIdList**: the snapshot projected onto one table, so readers
  keep per-table state that stays small even with many open transactions,
* **first-commit-wins** conflict detection for UPDATE/DELETE/MERGE via
  write-set tracking at partition granularity.

The manager is thread-safe; HS2 sessions share one instance.
"""

from __future__ import annotations

import enum
import itertools
import threading

from ..common import sync
from dataclasses import dataclass, field

from ..errors import TransactionError, WriteConflictError


class TxnState(enum.Enum):
    OPEN = "open"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class Snapshot:
    """A consistent view of the transactional state of the warehouse."""

    high_watermark: int
    open_txns: frozenset[int]
    aborted_txns: frozenset[int]

    def is_visible(self, txn_id: int) -> bool:
        """Is data committed by ``txn_id`` visible in this snapshot?"""
        if txn_id > self.high_watermark:
            return False
        return txn_id not in self.open_txns and txn_id not in self.aborted_txns


@dataclass(frozen=True)
class ValidWriteIdList:
    """Snapshot restricted to a single table's WriteIds.

    Readers skip rows whose WriteId is above the high watermark or in the
    invalid set (WriteIds allocated by still-open or aborted transactions).
    """

    table: str
    high_watermark: int
    invalid_ids: frozenset[int]

    def is_valid(self, write_id: int) -> bool:
        if write_id > self.high_watermark:
            return False
        return write_id not in self.invalid_ids

    def range_fully_valid(self, min_write_id: int, max_write_id: int) -> bool:
        """True if every WriteId in [min, max] is valid — lets readers

        accept a whole base/delta directory without per-row checks."""
        if max_write_id > self.high_watermark:
            return False
        return not any(min_write_id <= i <= max_write_id
                       for i in self.invalid_ids)


@dataclass(frozen=True)
class DeltaWriteIdList(ValidWriteIdList):
    """A snapshot restricted to rows written *after* ``min_write_id``.

    Used by incremental materialized-view rebuild (Section 4.4): the MV
    definition query re-runs with the changed source reading only the
    delta since the view's snapshot.
    """

    min_write_id: int = 0

    def is_valid(self, write_id: int) -> bool:
        if write_id <= self.min_write_id:
            return False
        return super().is_valid(write_id)

    def range_fully_valid(self, min_write_id: int,
                          max_write_id: int) -> bool:
        # force per-row WriteId checks so pre-snapshot rows are excluded
        return False


@dataclass(frozen=True)
class OwnWriteIdList(ValidWriteIdList):
    """A snapshot extended with the reader's *own* uncommitted WriteId.

    Multi-statement transactions (§9 roadmap) read their own writes:
    the base snapshot marks the open transaction's WriteIds invalid, so
    this wrapper whitelists the one WriteId the transaction holds on the
    table being read.
    """

    own_write_id: int = 0

    def is_valid(self, write_id: int) -> bool:
        if self.own_write_id and write_id == self.own_write_id:
            return True
        return super().is_valid(write_id)

    def range_fully_valid(self, min_write_id: int,
                          max_write_id: int) -> bool:
        # never skip per-row checks: the own id sits above the base
        # snapshot's high watermark semantics
        return False


@dataclass
class _WriteSetEntry:
    table: str
    partition: tuple
    operation: str            # "insert" | "update" | "delete"


@dataclass
class _Transaction:
    txn_id: int
    user: str
    state: TxnState = TxnState.OPEN
    write_ids: dict[str, int] = field(default_factory=dict)
    write_set: list[_WriteSetEntry] = field(default_factory=list)
    commit_txn_id: int | None = None   # TxnId counter value at commit time
    #: virtual-clock stamp of the last heartbeat (open time initially);
    #: the AcidHouseKeeper reaps transactions that stop heartbeating
    last_heartbeat_s: float = 0.0


class TransactionManager:
    """Allocates TxnIds/WriteIds and validates commits."""

    def __init__(self):
        self._lock = sync.new_lock('TransactionManager._lock')
        self._txn_counter = itertools.count(1)
        self._next_txn_id = 0
        self._txns: dict[int, _Transaction] = {}
        self._write_id_counters: dict[str, int] = {}
        # committed write-set entries kept for conflict checks:
        # (table, partition, commit_marker)
        self._committed_write_sets: list[tuple[str, tuple, int, str]] = []
        self._table_write_allocations: dict[str, list[tuple[int, int]]] = {}
        #: global virtual clock: the max of every now_s any session has
        #: reported.  Sessions advance at different virtual rates, so
        #: heartbeats and open stamps use this shared monotonic clock —
        #: a slow session's transaction is never reaped just because a
        #: fast session's clock ran ahead while it kept heartbeating.
        self._clock_s = 0.0

    # -- transaction lifecycle ---------------------------------------------- #
    def open_transaction(self, user: str = "anonymous") -> int:
        with self._lock:
            txn_id = next(self._txn_counter)
            self._next_txn_id = txn_id
            txn = _Transaction(txn_id, user,
                               last_heartbeat_s=self._clock_s)
            self._txns[txn_id] = txn
            return txn_id

    # -- heartbeats & expiry -------------------------------------------------- #
    def advance_clock(self, now_s: float) -> float:
        """Fold a session's virtual time into the global clock."""
        with self._lock:
            self._clock_s = max(self._clock_s, now_s)
            return self._clock_s

    def heartbeat(self, txn_id: int, now_s: float = 0.0) -> None:
        """Refresh a transaction's lease; raises TransactionError if the
        transaction is unknown or already finished (the client learns it
        was reaped)."""
        with self._lock:
            self._clock_s = max(self._clock_s, now_s)
            txn = self._txns.get(txn_id)
            if txn is None:
                raise TransactionError(f"unknown txn {txn_id}")
            if txn.state is not TxnState.OPEN:
                raise TransactionError(
                    f"txn {txn_id} is {txn.state.value}, not open "
                    "— cannot heartbeat")
            txn.last_heartbeat_s = self._clock_s

    def expired_txns(self, timeout_s: float) -> list[int]:
        """Open transactions whose last heartbeat is older than
        ``timeout_s`` on the global virtual clock."""
        with self._lock:
            return [t.txn_id for t in self._txns.values()
                    if t.state is TxnState.OPEN
                    and self._clock_s - t.last_heartbeat_s > timeout_s]

    def commit(self, txn_id: int) -> None:
        """Commit; raises :class:`WriteConflictError` under first-commit-wins.

        A conflict exists when another transaction that committed *after*
        this transaction opened has an update/delete write-set entry on
        the same (table, partition).
        """
        with self._lock:
            txn = self._get_open(txn_id)
            for entry in txn.write_set:
                if entry.operation not in ("update", "delete"):
                    continue
                for (table, partition, commit_marker,
                     operation) in self._committed_write_sets:
                    # conflict iff the other update/delete committed
                    # *after this transaction began* (it was invisible to
                    # our snapshot, so our write would clobber it)
                    if (table == entry.table and partition == entry.partition
                            and commit_marker >= txn.txn_id
                            and operation in ("update", "delete")):
                        txn.state = TxnState.ABORTED
                        raise WriteConflictError(
                            f"txn {txn_id}: write-write conflict on "
                            f"{table} partition {partition} "
                            "(first commit wins)")
            txn.state = TxnState.COMMITTED
            txn.commit_txn_id = self._next_txn_id
            for entry in txn.write_set:
                self._committed_write_sets.append(
                    (entry.table, entry.partition, txn.commit_txn_id,
                     entry.operation))

    def abort(self, txn_id: int) -> None:
        """Abort a transaction.

        Idempotent on an already-aborted transaction: the housekeeper's
        reap races client aborts (and commit itself aborts on a write
        conflict), and both sides must be able to finish the abort they
        observed.  Aborting a *committed* transaction is still an error.
        """
        with self._lock:
            txn = self._txns.get(txn_id)
            if txn is None:
                raise TransactionError(f"unknown txn {txn_id}")
            if txn.state is TxnState.ABORTED:
                return
            if txn.state is TxnState.COMMITTED:
                raise TransactionError(
                    f"txn {txn_id} is committed, cannot abort")
            txn.state = TxnState.ABORTED

    def state_of(self, txn_id: int) -> TxnState:
        with self._lock:
            txn = self._txns.get(txn_id)
            if txn is None:
                raise TransactionError(f"unknown txn {txn_id}")
            return txn.state

    # -- write ids ------------------------------------------------------------ #
    def allocate_write_id(self, txn_id: int, table: str) -> int:
        """Allocate (or return the already allocated) WriteId for a table."""
        table = table.lower()
        with self._lock:
            txn = self._get_open(txn_id)
            if table in txn.write_ids:
                return txn.write_ids[table]
            write_id = self._write_id_counters.get(table, 0) + 1
            self._write_id_counters[table] = write_id
            txn.write_ids[table] = write_id
            self._table_write_allocations.setdefault(table, []).append(
                (write_id, txn_id))
            return write_id

    def rename_table(self, old_name: str, new_name: str) -> None:
        """Move per-table write-id state to a renamed table's key.

        Without this, a renamed ACID table's valid-write-id list would
        restart at watermark 0 and readers would treat every existing
        delta as uncommitted (invisible rows after RENAME).
        """
        old_name, new_name = old_name.lower(), new_name.lower()
        with self._lock:
            if old_name in self._write_id_counters:
                self._write_id_counters[new_name] = \
                    self._write_id_counters.pop(old_name)
            if old_name in self._table_write_allocations:
                self._table_write_allocations[new_name] = \
                    self._table_write_allocations.pop(old_name)
            self._committed_write_sets = [
                (new_name if table == old_name else table,
                 partition, txn_id, operation)
                for table, partition, txn_id, operation
                in self._committed_write_sets]

    def record_write_set(self, txn_id: int, table: str, partition: tuple,
                         operation: str) -> None:
        if operation not in ("insert", "update", "delete"):
            raise TransactionError(f"unknown write operation {operation!r}")
        with self._lock:
            txn = self._get_open(txn_id)
            txn.write_set.append(
                _WriteSetEntry(table.lower(), tuple(partition), operation))

    # -- snapshots ------------------------------------------------------------ #
    def get_snapshot(self) -> Snapshot:
        with self._lock:
            open_set = frozenset(t.txn_id for t in self._txns.values()
                                 if t.state is TxnState.OPEN)
            aborted = frozenset(t.txn_id for t in self._txns.values()
                                if t.state is TxnState.ABORTED)
            return Snapshot(self._next_txn_id, open_set, aborted)

    def valid_write_ids(self, snapshot: Snapshot,
                        table: str) -> ValidWriteIdList:
        """Project a snapshot onto one table (the per-table list the

        paper keeps small for readers)."""
        table = table.lower()
        with self._lock:
            allocations = self._table_write_allocations.get(table, [])
            high = 0
            invalid = set()
            for write_id, txn_id in allocations:
                if txn_id <= snapshot.high_watermark:
                    high = max(high, write_id)
                    if not snapshot.is_visible(txn_id):
                        invalid.add(write_id)
            return ValidWriteIdList(table, high, frozenset(invalid))

    def write_ids_of(self, txn_id: int) -> dict[str, int]:
        """WriteIds this transaction has allocated, per table."""
        with self._lock:
            txn = self._txns.get(txn_id)
            return dict(txn.write_ids) if txn else {}

    def current_write_id(self, table: str) -> int:
        """Highest WriteId ever allocated for a table (0 if none)."""
        with self._lock:
            return self._write_id_counters.get(table.lower(), 0)

    def min_open_txn(self) -> int | None:
        """Oldest open TxnId; the compaction cleaner must not delete files

        still readable by it (Section 3.2, compaction)."""
        with self._lock:
            open_ids = [t.txn_id for t in self._txns.values()
                        if t.state is TxnState.OPEN]
            return min(open_ids) if open_ids else None

    def open_txn_count(self) -> int:
        with self._lock:
            return sum(1 for t in self._txns.values()
                       if t.state is TxnState.OPEN)

    # -- helpers ------------------------------------------------------------ #
    def _get_open(self, txn_id: int) -> _Transaction:
        try:
            txn = self._txns[txn_id]
        except KeyError:
            raise TransactionError(f"unknown txn {txn_id}") from None
        if txn.state is not TxnState.OPEN:
            raise TransactionError(
                f"txn {txn_id} is {txn.state.value}, not open")
        return txn


class AcidHouseKeeper:
    """Heartbeat reaper (the AcidHouseKeeperService analogue, §3.2).

    Aborts transactions whose heartbeat lease expired and releases their
    locks, so a dead client can't wedge compaction or starve writers.
    Their WriteIds land in every later snapshot's invalid set, which is
    what makes the reaped deltas invisible to ``acid.reader``.
    """

    def __init__(self, txn_manager: TransactionManager, lock_manager,
                 timeout_s: float = 300.0, faults=None):
        self.txn_manager = txn_manager
        self.lock_manager = lock_manager
        self.timeout_s = timeout_s
        #: optional repro.faults.FaultRegistry — reaps are logged there
        self.faults = faults
        self.reaped_total = 0

    def run(self, now_s: float = 0.0) -> list[int]:
        """One housekeeping pass; returns the TxnIds reaped."""
        self.txn_manager.advance_clock(now_s)
        reaped = []
        for txn_id in self.txn_manager.expired_txns(self.timeout_s):
            try:
                self.txn_manager.abort(txn_id)
            except TransactionError:
                continue  # raced a client commit; nothing to reap
            if self.lock_manager is not None:
                self.lock_manager.release_all(txn_id)
            reaped.append(txn_id)
        if reaped:
            self.reaped_total += len(reaped)
            if self.faults is not None:
                for txn_id in reaped:
                    self.faults.clear_stall(txn_id)
                    self.faults.record(
                        "txn.reaped", f"txn {txn_id}",
                        detail=f"heartbeat older than {self.timeout_s:g}s"
                               "; aborted, locks released")
        return reaped
