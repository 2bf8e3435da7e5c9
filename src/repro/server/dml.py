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
from ..acid.reader import row_ids_from_batch
from ..acid.writer import ACID_META_COLUMNS, AcidWriter
from ..common.rows import Column, Schema
from ..common.types import BIGINT
from ..common.vector import VectorBatch
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
                 eval_ctx: EvalContext) -> list[tuple]:
    """``SELECT exprs FROM (VALUES rows) WHERE condition`` as a plan
    (multi-insert branches, MERGE's NOT MATCHED rows)."""
    plan = rel.Values(schema, tuple(rows))
    if condition is not None:
        plan = rel.Filter(plan, condition)
    plan = rel.Project(plan, tuple(exprs),
                       tuple(f"_c{i}" for i in range(len(exprs))))
    return execute(plan, ExecutionContext(None, eval_ctx=eval_ctx)).to_rows()


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
        """Insert rows; ``rows`` carry data columns followed by any

        partition columns not pinned by ``partition_spec`` (dynamic
        partitioning).

        With ``txn`` the write joins an open multi-statement transaction
        and statistics deltas are deferred to ``stats_sink``.
        """
        partition_spec = {k.lower(): v
                          for k, v in (partition_spec or {}).items()}
        routed = self._route_partitions(table, rows, partition_spec)

        def change(txn: int) -> int:
            for values in routed:
                self._lock(txn, table, values)
            write_id = self.hms.txn_manager.allocate_write_id(
                txn, table.qualified_name)
            for values, part_rows in routed.items():
                location = self._partition_location(table, values,
                                                    create=True)
                if overwrite:
                    self._truncate_location(location)
                if table.is_acid:
                    self.writer.write_insert_delta(
                        location, write_id, table.schema, part_rows,
                        bloom_columns=table.bloom_filter_columns)
                else:
                    seq = len(self.hms.fs.list_files(location))
                    self.writer.write_plain(
                        location, table.schema, part_rows,
                        bloom_columns=table.bloom_filter_columns,
                        file_seq=seq, file_format=table.file_format)
                self.hms.txn_manager.record_write_set(
                    txn, table.qualified_name, values, "insert")
                self._record_stats(stats_sink, table, part_rows,
                                   values if table.is_partitioned
                                   else None, replace=overwrite)
            return sum(len(part_rows) for part_rows in routed.values())

        return self._transact(table, "insert", txn, change)

    def _route_partitions(self, table: TableDescriptor,
                          rows: Sequence[tuple],
                          partition_spec: dict) -> dict[tuple, list]:
        data_width = len(table.schema)
        part_columns = table.partition_columns
        routed: dict[tuple, list] = {}
        static = [partition_spec.get(c.name.lower())
                  for c in part_columns]
        dynamic_count = sum(1 for v in static if v is None)
        expected = data_width + dynamic_count
        for row in rows:
            if len(row) != expected:
                raise AnalysisError(
                    f"insert into {table.qualified_name}: row has "
                    f"{len(row)} values, expected {data_width} data + "
                    f"{dynamic_count} dynamic partition values")
        if not table.is_partitioned:
            routed[()] = [tuple(r) for r in rows]
            return routed
        for row in rows:
            data = tuple(row[:data_width])
            dynamic = list(row[data_width:])
            values = []
            for v in static:
                if v is not None:
                    values.append(v)
                else:
                    values.append(dynamic.pop(0))
            routed.setdefault(tuple(values), []).append(data)
        return routed

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

    def _record_stats(self, stats_sink, table, rows, partition,
                      replace: bool = False) -> None:
        """Apply stats now, or defer them until the owning transaction

        commits (rolled-back work must not pollute the statistics)."""
        if stats_sink is not None:
            stats_sink.append((table, list(rows), partition, replace))
        else:
            self._merge_stats(table, rows, partition, replace)

    def _merge_stats(self, table: TableDescriptor, rows, partition,
                     replace: bool = False) -> None:
        delta = TableStatistics.from_rows(table.schema, rows)
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
                self.writer.write_delete_delta(
                    location, write_id, row_ids_from_batch(batch))
                if assignments is not None:
                    self.writer.write_insert_delta(
                        location, write_id, table.schema,
                        VectorBatch(table.schema,
                                    batch.vectors[:width]).to_rows(),
                        bloom_columns=table.bloom_filter_columns)
                self.hms.txn_manager.record_write_set(
                    txn, table.qualified_name, values, operation)
                total += batch.num_rows
            return total

        return self._transact(table, operation, txn, change)

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
            pending_deletes: dict[str, list] = {}
            pending_inserts: dict[str, list[tuple]] = {}
            routed: dict[tuple, list] = {}      # NOT MATCHED inserts
            for values, location, pairs in self._found_rows(
                    table, plan, txn, valid_ids):
                row_ids = row_ids_from_batch(pairs)
                if len(set(row_ids)) < len(row_ids):
                    raise ExecutionError(
                        "MERGE: multiple source rows match one target row")
                matched_source[pairs.vectors[-1].data] = True
                pending = np.ones(pairs.num_rows, dtype=bool)
                updated: dict[int, tuple] = {}  # pair position -> new row
                for action, holds, setters in matched_clauses:
                    mask = (pending if holds is None
                            else pending & holds(pairs, self.eval_ctx))
                    pending = pending & ~mask
                    if action == "update" and mask.any():
                        chosen = pairs.filter(mask)
                        columns = [
                            (setters[i](chosen, self.eval_ctx)
                             if i in setters else chosen.vectors[i]
                             ).to_values()
                            for i in range(len(table.schema))]
                        updated.update(zip(np.nonzero(mask)[0].tolist(),
                                           zip(*columns)))
                if pending.all():
                    continue
                pending_deletes[location] = [
                    rid for rid, kept in zip(row_ids, pending) if not kept]
                if updated:
                    # pair order is target-row order
                    pending_inserts[location] = [
                        updated[i] for i in sorted(updated)]
                self.hms.txn_manager.record_write_set(
                    txn, table.qualified_name, values, "update")
                total += len(pending_deletes[location])
            if insert_clause is not None:
                new_rows = project_rows(
                    source_schema,
                    [row for row, hit in zip(source_rows, matched_source)
                     if not hit],
                    insert_clause.condition, insert_clause.insert_values,
                    self.eval_ctx)
                if new_rows:
                    # dynamic routing for partitioned targets
                    routed = self._route_partitions(table, new_rows, {})
                    for part_values, part_rows in routed.items():
                        location = self._partition_location(
                            table, part_values, create=True)
                        pending_inserts.setdefault(location,
                                                   []).extend(part_rows)
                    self.hms.txn_manager.record_write_set(
                        txn, table.qualified_name, (), "insert")
                    total += len(new_rows)
            # flush: one delete delta + one insert delta per location
            for location, row_id_list in pending_deletes.items():
                self.writer.write_delete_delta(location, write_id,
                                               row_id_list)
            for location, rows in pending_inserts.items():
                self.writer.write_insert_delta(
                    location, write_id, table.schema, rows,
                    bloom_columns=table.bloom_filter_columns)
            for part_values, part_rows in routed.items():
                self._merge_stats(table, part_rows, part_values
                                  if table.is_partitioned else None)
            return total

        return self._transact(table, "merge", None, change)
