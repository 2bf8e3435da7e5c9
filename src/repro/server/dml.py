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

Updates are modeled as delete + insert, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..acid.compactor import CompactionInitiator
from ..acid.reader import AcidReader, row_ids_from_batch
from ..acid.writer import AcidWriter, RowId
from ..common.rows import Schema
from ..common.vector import VectorBatch
from ..config import HiveConf
from ..errors import AnalysisError, ExecutionError
from ..exec.compile import EvalContext, compile_expr, compile_predicate
from ..metastore.catalog import TableDescriptor
from ..metastore.hms import HiveMetastore
from ..metastore.locks import LockType
from ..metastore.stats import TableStatistics
from ..plan import rexnodes as rex


@dataclass
class DmlResult:
    rows_affected: int
    operation: str
    table: str


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
        self.reader = AcidReader(hms.fs)
        self.initiator = CompactionInitiator(hms, conf)

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
        (§9 roadmap): the caller owns commit/rollback and lock release,
        and statistics deltas are deferred to ``stats_sink``.
        """
        partition_spec = {k.lower(): v
                          for k, v in (partition_spec or {}).items()}
        routed = self._route_partitions(table, rows, partition_spec)

        own_txn = txn is None
        if own_txn:
            txn = self.hms.txn_manager.open_transaction()
        locked = []
        try:
            for values in routed:
                key = values if table.is_partitioned else None
                self.hms.lock_manager.acquire(
                    txn, table.qualified_name, key, LockType.SHARED)
                locked.append(key)
            write_id = self.hms.txn_manager.allocate_write_id(
                txn, table.qualified_name)
            total = 0
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
                    txn, table.qualified_name,
                    values if table.is_partitioned else (), "insert")
                self._record_stats(stats_sink, table, part_rows,
                                   values if table.is_partitioned
                                   else None, replace=overwrite)
                total += len(part_rows)
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
        self.hms.emit_event("INSERT", table.qualified_name,
                            {"rows": total})
        if own_txn:
            self.initiator.check_table(table)
        return DmlResult(total, "insert", table.qualified_name)

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
    # UPDATE / DELETE
    def delete_where(self, table: TableDescriptor,
                     predicate: Optional[rex.RexNode],
                     txn: int | None = None,
                     valid=None) -> DmlResult:
        return self._mutate(table, predicate, assignments=None, txn=txn,
                            valid=valid)

    def update_where(self, table: TableDescriptor,
                     predicate: Optional[rex.RexNode],
                     assignments: dict[int, rex.RexNode],
                     txn: int | None = None,
                     valid=None) -> DmlResult:
        return self._mutate(table, predicate, assignments=assignments,
                            txn=txn, valid=valid)

    def _mutate(self, table: TableDescriptor,
                predicate: Optional[rex.RexNode],
                assignments: Optional[dict[int, rex.RexNode]],
                txn: int | None = None, valid=None
                ) -> DmlResult:
        if not table.is_acid:
            raise ExecutionError(
                f"{table.qualified_name} is not transactional; UPDATE/"
                "DELETE require an ACID table")
        operation = "update" if assignments is not None else "delete"
        # lowered once per statement, run once per partition
        matches = (None if predicate is None
                   else compile_predicate(predicate))
        setters = {i: compile_expr(expr)
                   for i, expr in (assignments or {}).items()}
        own_txn = txn is None
        if own_txn:
            txn = self.hms.txn_manager.open_transaction()
        try:
            if valid is None:
                snapshot = self.hms.txn_manager.get_snapshot()
                valid = self.hms.txn_manager.valid_write_ids(
                    snapshot, table.qualified_name)
            write_id = self.hms.txn_manager.allocate_write_id(
                txn, table.qualified_name)
            total = 0
            locations = ([(p.values, p.location)
                          for p in table.list_partitions()]
                         if table.is_partitioned
                         else [((), table.location)])
            for values, location in locations:
                self.hms.lock_manager.acquire(
                    txn, table.qualified_name,
                    values if table.is_partitioned else None,
                    LockType.SHARED)
                batch, _ = self.reader.read(location, valid,
                                            include_row_ids=True)
                if batch.num_rows == 0:
                    continue
                affected = self._affected_mask(table, batch, values,
                                               matches)
                row_ids = [rid for rid, hit in
                           zip(row_ids_from_batch(batch), affected)
                           if hit]
                if not row_ids:
                    continue
                self.writer.write_delete_delta(location, write_id,
                                               row_ids)
                if assignments is not None:
                    new_rows = self._updated_rows(table, batch, affected,
                                                  setters)
                    self.writer.write_insert_delta(
                        location, write_id, table.schema, new_rows,
                        bloom_columns=table.bloom_filter_columns)
                self.hms.txn_manager.record_write_set(
                    txn, table.qualified_name,
                    values if table.is_partitioned else (), operation)
                total += len(row_ids)
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

    def _affected_mask(self, table: TableDescriptor, batch: VectorBatch,
                       partition_values: tuple, matches):
        import numpy as np
        if matches is None:
            return np.ones(batch.num_rows, dtype=bool)
        # the predicate is over the full schema (data + partition columns)
        eval_batch = self._with_partitions(table, batch, partition_values)
        return matches(eval_batch, self.eval_ctx)

    def _with_partitions(self, table: TableDescriptor, batch: VectorBatch,
                         values: tuple) -> VectorBatch:
        if not table.is_partitioned:
            # drop the meta columns for predicate evaluation
            names = [c.name for c in table.schema]
            idx = [batch.schema.index_of(n) for n in names]
            return batch.project(idx, table.schema)
        import numpy as np
        from ..common.vector import ColumnVector
        names = [c.name for c in table.schema]
        idx = [batch.schema.index_of(n) for n in names]
        data_batch = batch.project(idx, table.schema)
        vectors = list(data_batch.vectors)
        columns = list(table.schema.columns)
        for col, value in zip(table.partition_columns, values):
            storage = col.dtype.to_storage(value)
            np_dtype = col.dtype.numpy_dtype
            n = batch.num_rows
            if np_dtype == np.dtype(object):
                data = np.empty(n, dtype=object)
                data[:] = storage
            else:
                data = np.full(n, storage, dtype=np_dtype)
            vectors.append(ColumnVector(col.dtype, data,
                                        np.zeros(n, dtype=bool)))
            columns.append(col)
        return VectorBatch(Schema(columns), vectors)

    def _updated_rows(self, table: TableDescriptor, batch: VectorBatch,
                      affected, setters: dict) -> list[tuple]:
        names = [c.name for c in table.schema]
        idx = [batch.schema.index_of(n) for n in names]
        data_batch = batch.project(idx, table.schema).filter(affected)
        columns = []
        for i in range(len(table.schema)):
            setter = setters.get(i)
            vector = (data_batch.vectors[i] if setter is None
                      else setter(data_batch, self.eval_ctx))
            columns.append(vector.to_values())
        return [tuple(col[r] for col in columns)
                for r in range(data_batch.num_rows)]

    # ------------------------------------------------------------------ #
    # MERGE
    def merge(self, table: TableDescriptor, source_batch: VectorBatch,
              target_alias: Optional[str], source_schema: Schema,
              condition: rex.RexNode, when_clauses) -> DmlResult:
        """MERGE INTO target USING source ON cond WHEN ... (Section 3.2).

        ``condition`` and clause expressions are Rex over the combined
        (target ++ source) schema.
        """
        if not table.is_acid:
            raise ExecutionError(
                f"{table.qualified_name} is not transactional")
        import numpy as np
        # every expression is lowered once here, not once per row pair:
        # ON, then (action, WHEN condition, SET kernels) per MATCHED clause
        on = compile_predicate(condition)
        matched_clauses = [
            (clause.action,
             None if clause.condition is None
             else compile_predicate(clause.condition),
             {i: compile_expr(expr)
              for i, expr in clause.assignments.items()})
            for clause in when_clauses if clause.matched]
        txn = self.hms.txn_manager.open_transaction()
        try:
            snapshot = self.hms.txn_manager.get_snapshot()
            valid = self.hms.txn_manager.valid_write_ids(
                snapshot, table.qualified_name)
            write_id = self.hms.txn_manager.allocate_write_id(
                txn, table.qualified_name)
            total = 0
            locations = ([(p.values, p.location)
                          for p in table.list_partitions()]
                         if table.is_partitioned
                         else [((), table.location)])
            matched_source = np.zeros(source_batch.num_rows, dtype=bool)
            pending_deletes: dict[str, list[RowId]] = {}
            pending_inserts: dict[str, list[tuple]] = {}
            insert_stats: dict[str, tuple] = {}
            wrote_mutation = False
            for values, location in locations:
                self.hms.lock_manager.acquire(
                    txn, table.qualified_name,
                    values if table.is_partitioned else None,
                    LockType.SHARED)
                target_batch, _ = self.reader.read(location, valid,
                                                   include_row_ids=True)
                if target_batch.num_rows == 0:
                    continue
                data_batch = self._with_partitions(table, target_batch,
                                                   values)
                row_ids = row_ids_from_batch(target_batch)
                # pair every target row with every source row (hash join
                # would be an optimization; MERGE sources are small here)
                for ti in range(data_batch.num_rows):
                    t_row = data_batch.slice(ti, ti + 1)
                    pair = _cross_pair(t_row, source_batch,
                                       source_schema)
                    hits = np.nonzero(on(pair, self.eval_ctx))[0]
                    if len(hits) > 1:
                        raise ExecutionError(
                            "MERGE: multiple source rows match one "
                            "target row")
                    if len(hits) == 1:
                        si = int(hits[0])
                        matched_source[si] = True
                        pair_row = pair.take(np.array([si]))
                        action, setters = self._matched_action(
                            matched_clauses, pair_row)
                        if action == "delete":
                            pending_deletes.setdefault(
                                location, []).append(row_ids[ti])
                            total += 1
                        elif action == "update":
                            pending_deletes.setdefault(
                                location, []).append(row_ids[ti])
                            pending_inserts.setdefault(
                                location, []).append(
                                self._merge_update_row(
                                    table, pair_row, setters))
                            total += 1
                if location in pending_deletes:
                    self.hms.txn_manager.record_write_set(
                        txn, table.qualified_name,
                        values if table.is_partitioned else (), "update")
                    wrote_mutation = True
            # WHEN NOT MATCHED THEN INSERT
            insert_clause = next(
                (c for c in when_clauses
                 if not c.matched and c.action == "insert"), None)
            if insert_clause is not None:
                insert_values = [compile_expr(expr) for expr
                                 in insert_clause.insert_values]
                new_rows = []
                for si in np.nonzero(~matched_source)[0]:
                    row_batch = source_batch.slice(int(si), int(si) + 1)
                    row = tuple(
                        value(row_batch, self.eval_ctx).value(0)
                        for value in insert_values)
                    new_rows.append(row)
                if new_rows:
                    # dynamic routing for partitioned targets
                    routed = self._route_partitions(table, new_rows, {})
                    for part_values, part_rows in routed.items():
                        location = self._partition_location(
                            table, part_values, create=True)
                        pending_inserts.setdefault(location,
                                                   []).extend(part_rows)
                        insert_stats[location] = (
                            part_rows,
                            part_values if table.is_partitioned else None)
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
            for location, (part_rows, part_values) in insert_stats.items():
                self._merge_stats(table, part_rows, part_values)
            self.hms.txn_manager.commit(txn)
        except Exception:
            # abort is idempotent on already-aborted transactions
            # (commit conflicts self-abort before raising)
            self.hms.txn_manager.abort(txn)
            raise
        finally:
            self.hms.lock_manager.release_all(txn)
        self.hms.emit_event("MERGE", table.qualified_name, {"rows": total})
        self.initiator.check_table(table)
        return DmlResult(total, "merge", table.qualified_name)

    def _matched_action(self, matched_clauses, pair_row):
        """``(action, SET kernels)`` of the first WHEN MATCHED clause
        whose condition holds; ``(None, None)`` when none does."""
        for action, holds, setters in matched_clauses:
            if holds is None or holds(pair_row, self.eval_ctx)[0]:
                return action, setters
        return None, None

    def _merge_update_row(self, table: TableDescriptor, pair_row,
                          setters: dict) -> tuple:
        values = []
        for i in range(len(table.schema)):
            setter = setters.get(i)
            vector = (pair_row.vectors[i] if setter is None
                      else setter(pair_row, self.eval_ctx))
            values.append(vector.value(0))
        return tuple(values)


def _cross_pair(target_row: VectorBatch, source: VectorBatch,
                source_schema: Schema) -> VectorBatch:
    """Combine one target row with every source row."""
    import numpy as np
    n = source.num_rows
    repeated = target_row.take(np.zeros(n, dtype=np.int64))
    schema = repeated.schema.concat(source_schema, dedupe=True)
    return VectorBatch(schema, list(repeated.vectors) +
                       list(source.vectors))
