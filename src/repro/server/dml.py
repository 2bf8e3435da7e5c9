"""DML execution: INSERT / UPDATE / DELETE / MERGE (Section 3.2).

Implements the transactional write path:

1. open a transaction and take shared locks (partition granularity for
   partitioned tables, table granularity otherwise),
2. allocate a per-table WriteId,
3. route rows to partitions (static spec or dynamic partitioning) and
   write delta / delete-delta directories,
4. record write sets for first-commit-wins conflict detection,
5. merge additive statistics into HMS,
6. commit, release locks, and let the compaction initiator react.

Updates are modeled as delete + insert, exactly as the paper describes,
and UPDATE / DELETE / MERGE are *a plan plus a write* (DESIGN.md): an
ordinary scan -> filter -> join plan whose ``TableScan`` also names the
record id finds the records, one partition at a time; what comes back is
written as a delete delta (and an insert delta).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..acid.compactor import CompactionInitiator
from ..acid.writer import (ACID_META_COLUMNS, AcidWriter, id_tuples,
                           record_ids)
from ..common.rows import Column, Schema
from ..common.types import BIGINT
from ..common.vector import ColumnVector, VectorBatch, dict_codes
from ..config import HiveConf
from ..errors import AnalysisError, ExecutionError
from ..exec.compile import EvalContext, compile_expr, compile_predicate
from ..exec.operators import ExecutionContext, execute
from ..metastore.catalog import TableDescriptor
from ..metastore.hms import HiveMetastore
from ..metastore.locks import LockType
from ..metastore.stats import TableStatistics
from ..optimizer.rules_basic import (fold_constants, prune_partitions,
                                     push_down_predicates)
from ..plan import relnodes as rel
from ..plan import rexnodes as rex
from ..runtime.scan import ScanExecutor


@dataclass
class DmlResult:
    rows_affected: int
    operation: str
    table: str


def project_rows(schema: Schema, rows: Sequence[tuple],
                 condition: Optional[rex.RexNode],
                 exprs: Sequence[rex.RexNode],
                 eval_ctx: EvalContext) -> VectorBatch:
    """``SELECT exprs FROM (VALUES rows) WHERE condition`` as a plan
    (multi-insert branches, MERGE's NOT MATCHED rows)."""
    plan = rel.Values(schema, tuple(rows))
    if condition is not None:
        plan = rel.Filter(plan, condition)
    plan = rel.Project(plan, tuple(exprs),
                       tuple(f"_c{i}" for i in range(len(exprs))))
    return execute(plan, ExecutionContext(None, eval_ctx=eval_ctx))


def _static_values(table: TableDescriptor,
                   partition_spec: dict | None) -> list:
    """Per partition column, the value ``partition_spec`` pins it to, or
    ``None`` where the rows bring their own (dynamic partitioning)."""
    spec = {k.lower(): v for k, v in (partition_spec or {}).items()}
    return [spec.get(c.name.lower()) for c in table.partition_columns]


def insert_columns(table: TableDescriptor,
                   partition_spec: dict | None) -> list[Column]:
    """What an insert brings, in order: the data columns, then the
    partition columns ``partition_spec`` does not pin."""
    return list(table.schema.columns) + [
        c for c, pinned in zip(table.partition_columns,
                               _static_values(table, partition_spec))
        if pinned is None]


def conform(vectors: Sequence[ColumnVector],
            columns: Sequence[Column]) -> list[ColumnVector]:
    """``vectors`` in the types of ``columns``.  The same storage (INT as
    BIGINT, DECIMAL as DOUBLE, VARCHAR as STRING — but a TIMESTAMP is no
    BIGINT, though both are int64) is re-tagged without a copy; anything
    else takes the way a row took: out to Python values and in again
    through the column type's ``to_storage``."""
    return [
        ColumnVector(col.dtype, vector.data, vector.nulls)
        if (vector.dtype.numpy_dtype == col.dtype.numpy_dtype
            and vector.dtype.is_temporal == col.dtype.is_temporal)
        else ColumnVector.from_values(col.dtype, vector.to_values())
        for vector, col in zip(vectors, columns)]


def _arity_error(table: TableDescriptor, got: int,
                 columns: Sequence[Column]) -> AnalysisError:
    width = len(table.schema)
    return AnalysisError(
        f"insert into {table.qualified_name}: row has {got} values, "
        f"expected {width} data + {len(columns) - width} dynamic "
        "partition values")


class TableWriter:
    """Executes transactional and plain writes against one warehouse."""

    def __init__(self, hms: HiveMetastore, conf: HiveConf,
                 eval_ctx: EvalContext | None = None):
        self.hms = hms
        self.conf = conf
        #: statement-time context for DML expressions (UPDATE SET /
        #: MERGE assignments may call CURRENT_DATE or RAND)
        self.eval_ctx = (eval_ctx if eval_ctx is not None
                         else EvalContext())
        self.writer = AcidWriter(hms.fs)
        self.initiator = CompactionInitiator(hms, conf)

    def _transact(self, table: TableDescriptor, operation: str,
                  txn: int | None, change) -> DmlResult:
        """The one transaction scaffold: open -> ``change(txn)`` (returns
        the rows it affected) -> commit | abort -> release locks -> emit
        event -> initiator.  With ``txn`` the write joins an open multi-
        statement transaction (§9 roadmap) whose owner does all but the
        change and the event."""
        own_txn = txn is None
        if own_txn:
            txn = self.hms.txn_manager.open_transaction()
        try:
            total = change(txn)
            if own_txn:
                self.hms.txn_manager.commit(txn)
        except Exception:
            if own_txn:
                # abort is idempotent on already-aborted transactions
                # (commit conflicts self-abort before raising)
                self.hms.txn_manager.abort(txn)
            raise
        finally:
            if own_txn:
                self.hms.lock_manager.release_all(txn)
        self.hms.emit_event(operation.upper(), table.qualified_name,
                            {"rows": total})
        if own_txn:
            self.initiator.check_table(table)
        return DmlResult(total, operation, table.qualified_name)

    def _lock(self, txn: int, table: TableDescriptor, values: tuple):
        self.hms.lock_manager.acquire(
            txn, table.qualified_name,
            values if table.is_partitioned else None, LockType.SHARED)

    # ------------------------------------------------------------------ #
    # INSERT
    def insert_rows(self, table: TableDescriptor,
                    rows: Sequence[tuple],
                    partition_spec: dict[str, object] | None = None,
                    overwrite: bool = False,
                    txn: int | None = None,
                    stats_sink: list | None = None) -> DmlResult:
        """The door for values from outside the engine (bulk loads,
        ``INSERT ... VALUES`` literals): ``rows`` become columns here,
        once, and :meth:`insert_batch` does the insert.

        ``rows`` carry data columns followed by any partition columns
        not pinned by ``partition_spec`` (dynamic partitioning).
        """
        columns = insert_columns(table, partition_spec)
        for row in rows:
            if len(row) != len(columns):
                raise _arity_error(table, len(row), columns)
        return self.insert_batch(
            table, VectorBatch.from_rows(Schema(columns), rows),
            partition_spec, overwrite, txn, stats_sink)

    def insert_batch(self, table: TableDescriptor, batch: VectorBatch,
                     partition_spec: dict[str, object] | None = None,
                     overwrite: bool = False,
                     txn: int | None = None,
                     stats_sink: list | None = None) -> DmlResult:
        """Insert a batch laid out as :func:`insert_columns` says.

        With ``txn`` the write joins an open multi-statement transaction
        and statistics deltas are deferred to ``stats_sink``.
        """
        data, routed = self._route_partitions(table, batch, partition_spec)

        def change(txn: int) -> int:
            for values in routed:
                self._lock(txn, table, values)
            write_id = self.hms.txn_manager.allocate_write_id(
                txn, table.qualified_name)
            for values, mask in routed.items():
                location = self._partition_location(table, values,
                                                    create=True)
                if overwrite:
                    self._truncate_location(location)
                # cut here, so that one partition's vectors are alive at
                # a time: sixty slices held at once move the cyclic
                # collector's passes (ROADMAP, write-path trap 1)
                part = data if mask is None else data.filter(mask)
                if table.is_acid:
                    self.writer.write_insert_delta(
                        location, write_id, part,
                        bloom_columns=table.bloom_filter_columns)
                else:
                    seq = len(self.hms.fs.list_files(location))
                    self.writer.write_plain(
                        location, part,
                        bloom_columns=table.bloom_filter_columns,
                        file_seq=seq, file_format=table.file_format)
                self.hms.txn_manager.record_write_set(
                    txn, table.qualified_name, values, "insert")
                self._record_stats(stats_sink, table, part,
                                   values if table.is_partitioned
                                   else None, replace=overwrite)
            return data.num_rows

        return self._transact(table, "insert", txn, change)

    def _route_partitions(self, table: TableDescriptor, batch: VectorBatch,
                          partition_spec: dict | None
                          ) -> tuple[VectorBatch, dict]:
        """``(data, routed)``: the data columns of ``batch`` in the
        table's types, and per target partition (first-appearance order)
        the mask of its rows, ``None`` where it takes them all."""
        columns = insert_columns(table, partition_spec)
        if len(batch.vectors) != len(columns):
            raise _arity_error(table, len(batch.vectors), columns)
        vectors = conform(batch.vectors, columns)
        width = len(table.schema)
        data = VectorBatch(table.schema, vectors[:width])
        if not table.is_partitioned:
            return data, {(): None}
        static = _static_values(table, partition_spec)
        if width == len(columns):       # every partition column pinned
            return data, {tuple(static): None} if data.num_rows else {}
        index, codes = dict_codes(list(zip(
            *(v.to_values() for v in vectors[width:]))))
        routed = {}
        for key, code in index.items():
            dynamic = iter(key)
            routed[tuple(next(dynamic) if pinned is None else pinned
                         for pinned in static)] = codes == code
        return data, routed

    def _partition_location(self, table: TableDescriptor, values: tuple,
                            create: bool) -> str:
        if not table.is_partitioned:
            return table.location
        if values in table.partitions:
            return table.partitions[values].location
        if not create:
            raise ExecutionError(
                f"no partition {values} in {table.qualified_name}")
        return self.hms.add_partition(table, values).location

    def _truncate_location(self, location: str) -> None:
        fs = self.hms.fs
        if fs.exists(location):
            fs.delete(location, recursive=True)
        fs.mkdirs(location)

    def _record_stats(self, stats_sink, table, batch, partition,
                      replace: bool = False) -> None:
        """Apply stats now, or defer them until the owning transaction

        commits (rolled-back work must not pollute the statistics)."""
        if stats_sink is not None:
            stats_sink.append((table, batch, partition, replace))
        else:
            self._merge_stats(table, batch, partition, replace)

    def _merge_stats(self, table: TableDescriptor, batch: VectorBatch,
                     partition, replace: bool = False) -> None:
        delta = TableStatistics.from_batch(batch)
        if replace:
            self.hms.set_statistics(table, delta, partition)
            if partition is not None:
                # table-level aggregate must be recomputed; approximate by
                # summing partition stats
                total = TableStatistics()
                for values in table.partitions:
                    part_stats = self.hms.get_statistics(table, values)
                    total = total.merge(part_stats)
                self.hms.set_statistics(table, total, None)
        else:
            self.hms.update_statistics(table, delta, partition)

    # ------------------------------------------------------------------ #
    # UPDATE / DELETE / MERGE: a plan plus a write
    def _target_scan(self, table: TableDescriptor) -> rel.TableScan:
        """Scan of the full row followed by the record id; Rex built
        over ``full_schema()`` stays valid because the id comes after."""
        if not table.is_acid:
            raise ExecutionError(
                f"{table.qualified_name} is not transactional; UPDATE/"
                "DELETE/MERGE require an ACID table")
        return rel.TableScan(table.qualified_name, Schema(
            table.full_schema().columns + ACID_META_COLUMNS))

    def _open_write(self, table: TableDescriptor, txn: int, valid):
        """Snapshot (unless the transaction brought one), then WriteId."""
        if valid is None:
            snapshot = self.hms.txn_manager.get_snapshot()
            valid = self.hms.txn_manager.valid_write_ids(
                snapshot, table.qualified_name)
        return valid, self.hms.txn_manager.allocate_write_id(
            txn, table.qualified_name)

    def _found_rows(self, table: TableDescriptor, plan: rel.RelNode,
                    txn: int, valid):
        """Run ``plan`` once per partition static pruning kept, under
        that partition's shared lock; yields ``(partition values,
        location, result batch)`` for the non-empty results.  No reader
        factory, registry or trace: DML reads stay out of the LLAP cache
        and publish no ``scan.*`` series (they never move virtual time).
        """
        plan = prune_partitions(
            push_down_predicates(fold_constants(plan)), self.hms)
        scans = rel.find_scans(plan)
        if not scans:               # the predicate folded to FALSE
            return
        kept = scans[0].pruned_partitions
        # constant inputs (the MERGE source) are materialised once
        ctx = ExecutionContext(
            ScanExecutor(self.hms, self.hms.fs, None,
                         {table.qualified_name: valid}, {}),
            eval_ctx=self.eval_ctx, memo_digests=frozenset(
                n.digest for n in rel.walk(plan)
                if isinstance(n, rel.Values)))
        targets = ([(p.values, p.location) for p in table.list_partitions()
                    if kept is None or p.values in kept]
                   if table.is_partitioned else [((), table.location)])
        for values, location in targets:
            self._lock(txn, table, values)
            batch = execute(rel.transform_bottom_up(
                plan, lambda n: replace(n, pruned_partitions=(values,))
                if isinstance(n, rel.TableScan) else None), ctx)
            if batch.num_rows:
                yield values, location, batch

    def delete_where(self, table: TableDescriptor,
                     predicate: Optional[rex.RexNode],
                     txn: int | None = None,
                     valid=None) -> DmlResult:
        return self._mutate(table, predicate, None, txn, valid)

    def update_where(self, table: TableDescriptor,
                     predicate: Optional[rex.RexNode],
                     assignments: dict[int, rex.RexNode],
                     txn: int | None = None,
                     valid=None) -> DmlResult:
        return self._mutate(table, predicate, assignments, txn, valid)

    def _mutate(self, table: TableDescriptor,
                predicate: Optional[rex.RexNode],
                assignments: Optional[dict[int, rex.RexNode]],
                txn: int | None, valid) -> DmlResult:
        """``[Project(] Filter(target scan, predicate) [, SET exprs)]``."""
        operation = "update" if assignments is not None else "delete"
        plan: rel.RelNode = self._target_scan(table)
        if predicate is not None:
            plan = rel.Filter(plan, predicate)
        width = len(table.schema)
        if assignments is not None:
            # the full row with the SET expressions in place: they see
            # partition columns too, and the record id rides along
            plan = rel.Project(plan, tuple(
                assignments.get(i, rex.RexInputRef(i, c.dtype))
                for i, c in enumerate(plan.schema)),
                tuple(plan.schema.names()))

        def change(txn: int) -> int:
            valid_ids, write_id = self._open_write(table, txn, valid)
            total = 0
            for values, location, batch in self._found_rows(
                    table, plan, txn, valid_ids):
                self.writer.write_delete_delta(location, write_id,
                                               record_ids(batch))
                if assignments is not None:
                    self.writer.write_insert_delta(
                        location, write_id, self._new_rows(
                            table, batch.vectors[:width]),
                        bloom_columns=table.bloom_filter_columns)
                self.hms.txn_manager.record_write_set(
                    txn, table.qualified_name, values, operation)
                total += batch.num_rows
            return total

        return self._transact(table, operation, txn, change)

    @staticmethod
    def _new_rows(table: TableDescriptor,
                  vectors: Sequence[ColumnVector]) -> VectorBatch:
        """Computed data columns as a batch the table can store."""
        return VectorBatch(table.schema,
                           conform(vectors, table.schema.columns))

    # ------------------------------------------------------------------ #
    # MERGE
    def merge(self, table: TableDescriptor, source_batch: VectorBatch,
              target_alias: Optional[str], source_schema: Schema,
              condition: rex.RexNode, when_clauses) -> DmlResult:
        """MERGE INTO target USING source ON cond WHEN ... (Section 3.2).

        ``condition`` and the MATCHED clauses' expressions are Rex over
        the combined (target ++ source) schema, NOT MATCHED ones over the
        source.  ``Join(target scan, Values(source rows ++ their number),
        inner, ON)`` finds the pairs; the clauses are evaluated vectorised
        over a partition's pairs, the first that holds for a pair wins.
        """
        target = self._target_scan(table)
        full_width = len(table.full_schema())

        def past_id(expr: rex.RexNode) -> rex.RexNode:
            # source columns sit behind the record id in the joined row
            return rex.remap_refs(
                expr, lambda i: i if i < full_width
                else i + len(ACID_META_COLUMNS))

        source_rows = source_batch.to_rows()
        plan = rel.Join(
            target,
            rel.Values(Schema(source_schema.columns
                              + (Column("__source_row__", BIGINT),)),
                       tuple(row + (i,)
                             for i, row in enumerate(source_rows))),
            "inner", past_id(condition))
        # lowered once per statement: (action, WHEN condition, SET kernels)
        matched_clauses = [
            (clause.action,
             None if clause.condition is None
             else compile_predicate(past_id(clause.condition)),
             {i: compile_expr(past_id(expr))
              for i, expr in clause.assignments.items()})
            for clause in when_clauses if clause.matched]
        insert_clause = next(
            (c for c in when_clauses
             if not c.matched and c.action == "insert"), None)

        def change(txn: int) -> int:
            valid_ids, write_id = self._open_write(table, txn, None)
            total = 0
            matched_source = np.zeros(len(source_rows), dtype=bool)
            pending_deletes: dict[str, VectorBatch] = {}
            pending_inserts: dict[str, list[VectorBatch]] = {}
            new_stats: list[tuple] = []     # NOT MATCHED inserts
            for values, location, pairs in self._found_rows(
                    table, plan, txn, valid_ids):
                ids = record_ids(pairs)
                if len(set(id_tuples(ids.vectors))) < pairs.num_rows:
                    raise ExecutionError(
                        "MERGE: multiple source rows match one target row")
                matched_source[pairs.vectors[-1].data] = True
                pending = np.ones(pairs.num_rows, dtype=bool)
                updated: list[VectorBatch] = []     # one per UPDATE clause
                positions: list[np.ndarray] = []    # ... and its pairs
                for action, holds, setters in matched_clauses:
                    mask = (pending if holds is None
                            else pending & holds(pairs, self.eval_ctx))
                    pending = pending & ~mask
                    if action == "update" and mask.any():
                        chosen = pairs.filter(mask)
                        updated.append(self._new_rows(table, [
                            setters[i](chosen, self.eval_ctx)
                            if i in setters else chosen.vectors[i]
                            for i in range(len(table.schema))]))
                        positions.append(np.nonzero(mask)[0])
                if pending.all():
                    continue
                pending_deletes[location] = ids.filter(~pending)
                if updated:
                    # pair order is target-row order, across clauses
                    pending_inserts[location] = [
                        VectorBatch.concat(table.schema, updated).take(
                            np.argsort(np.concatenate(positions),
                                       kind="stable"))]
                self.hms.txn_manager.record_write_set(
                    txn, table.qualified_name, values, "update")
                total += pending_deletes[location].num_rows
            if insert_clause is not None:
                new_rows = project_rows(
                    source_schema,
                    [row for row, hit in zip(source_rows, matched_source)
                     if not hit],
                    insert_clause.condition, insert_clause.insert_values,
                    self.eval_ctx)
                if new_rows.num_rows:
                    # dynamic routing for partitioned targets
                    data, routed = self._route_partitions(table, new_rows,
                                                          None)
                    for part_values, mask in routed.items():
                        part = data if mask is None else data.filter(mask)
                        pending_inserts.setdefault(
                            self._partition_location(
                                table, part_values, create=True),
                            []).append(part)
                        new_stats.append((part, part_values
                                          if table.is_partitioned else None))
                    self.hms.txn_manager.record_write_set(
                        txn, table.qualified_name, (), "insert")
                    total += new_rows.num_rows
            # flush: one delete delta + one insert delta per location
            for location, ids in pending_deletes.items():
                self.writer.write_delete_delta(location, write_id, ids)
            for location, batches in pending_inserts.items():
                self.writer.write_insert_delta(
                    location, write_id,
                    VectorBatch.concat(table.schema, batches),
                    bloom_columns=table.bloom_filter_columns)
            for part, partition in new_stats:
                self._merge_stats(table, part, partition)
            return total

        return self._transact(table, "merge", None, change)
