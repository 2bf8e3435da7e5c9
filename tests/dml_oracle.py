"""The displaced DML loops: parity oracle for ``repro.server.dml``.

Until UPDATE / DELETE / MERGE became *a plan plus a write*,
``TableWriter`` found its rows with a private reader: every partition
read whole through its own ``AcidReader``, the predicate kernel run once
per partition over a hand-built full-schema batch, every row read turned
into a ``RowId`` before filtering, and MERGE pairing one target row with
the whole source — one ON-kernel call per target row.  That is slow and
easy to read, the two things a reference wants to be, so it lives on
here: :class:`OracleWriter` overrides the three statements with the old
bodies, corrected for the two bugs the fork had (SET kernels now see the
partition columns; ``WHEN NOT MATCHED AND <cond>`` is applied).

tests/test_dml_parity.py runs random scripts against a server using
``TableWriter`` and one using ``OracleWriter`` and demands equal
``rows_affected``, equal table contents and byte-identical delta files.

It shares nothing with the code under test but the expression kernels:
no ``ScanExecutor``, no plan, no join operator, and it spells its own
transaction scaffold for the three statements.  Since rows became
columns once it also *writes* the displaced way (tests/write_oracle.py):
rows and ``RowId`` objects through ``RowAcidWriter``, its own partition
routing and per-value statistics — so the parity suite compares the two
write paths byte for byte as well.
"""

from __future__ import annotations

import numpy as np

from repro.acid.reader import AcidReader
from repro.common.rows import Schema
from repro.common.vector import ColumnVector, VectorBatch
from repro.errors import ExecutionError
from repro.exec.compile import compile_expr, compile_predicate
from repro.metastore.locks import LockType
from repro.server.dml import DmlResult, TableWriter

from .write_oracle import (RowAcidWriter, route_rows, row_ids_from_batch,
                           stats_from_rows)


class OracleWriter(TableWriter):
    """``TableWriter`` with the pre-plan UPDATE / DELETE / MERGE and the
    pre-batch INSERT."""

    def __init__(self, hms, conf, eval_ctx=None):
        super().__init__(hms, conf, eval_ctx)
        self.reader = AcidReader(hms.fs)
        self.writer = RowAcidWriter(hms.fs)

    # ------------------------------------------------------------------ #
    # INSERT
    def insert_batch(self, table, batch, partition_spec=None,
                     overwrite=False, txn=None, stats_sink=None):
        return self.insert_rows(table, batch.to_rows(), partition_spec,
                                overwrite, txn, stats_sink)

    def insert_rows(self, table, rows, partition_spec=None,
                    overwrite=False, txn=None, stats_sink=None):
        partition_spec = {k.lower(): v
                          for k, v in (partition_spec or {}).items()}
        routed = route_rows(table, rows, partition_spec)

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

    def _merge_stats(self, table, rows, partition, replace=False):
        delta = stats_from_rows(table.schema, rows)
        if replace:
            self.hms.set_statistics(table, delta, partition)
            if partition is not None:
                total = type(delta)()
                for values in table.partitions:
                    total = total.merge(
                        self.hms.get_statistics(table, values))
                self.hms.set_statistics(table, total, None)
        else:
            self.hms.update_statistics(table, delta, partition)

    # ------------------------------------------------------------------ #
    # UPDATE / DELETE
    def delete_where(self, table, predicate, txn=None, valid=None):
        return self._old_mutate(table, predicate, None, txn, valid)

    def update_where(self, table, predicate, assignments, txn=None,
                     valid=None):
        return self._old_mutate(table, predicate, assignments, txn, valid)

    def _old_mutate(self, table, predicate, assignments, txn, valid):
        if not table.is_acid:
            raise ExecutionError(
                f"{table.qualified_name} is not transactional")
        operation = "update" if assignments is not None else "delete"
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
            for values, location in _locations(table):
                self.hms.lock_manager.acquire(
                    txn, table.qualified_name,
                    values if table.is_partitioned else None,
                    LockType.SHARED)
                batch, _ = self.reader.read(location, valid,
                                            include_row_ids=True)
                if batch.num_rows == 0:
                    continue
                full = _with_partitions(table, batch, values)
                affected = (np.ones(batch.num_rows, dtype=bool)
                            if matches is None
                            else matches(full, self.eval_ctx))
                row_ids = [rid for rid, hit in
                           zip(row_ids_from_batch(batch), affected)
                           if hit]
                if not row_ids:
                    continue
                self.writer.write_delete_delta(location, write_id,
                                               row_ids)
                if assignments is not None:
                    self.writer.write_insert_delta(
                        location, write_id, table.schema,
                        self._old_updated_rows(
                            table, full.filter(affected), setters),
                        bloom_columns=table.bloom_filter_columns)
                self.hms.txn_manager.record_write_set(
                    txn, table.qualified_name,
                    values if table.is_partitioned else (), operation)
                total += len(row_ids)
            if own_txn:
                self.hms.txn_manager.commit(txn)
        except Exception:
            if own_txn:
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

    def _old_updated_rows(self, table, rows: VectorBatch,
                          setters: dict) -> list[tuple]:
        """New data-column tuples of ``rows`` (a full-schema batch)."""
        columns = []
        for i in range(len(table.schema)):
            setter = setters.get(i)
            vector = (rows.vectors[i] if setter is None
                      else setter(rows, self.eval_ctx))
            columns.append(vector.to_values())
        return [tuple(col[r] for col in columns)
                for r in range(rows.num_rows)]

    # ------------------------------------------------------------------ #
    # MERGE
    def merge(self, table, source_batch, target_alias, source_schema,
              condition, when_clauses):
        if not table.is_acid:
            raise ExecutionError(
                f"{table.qualified_name} is not transactional")
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
            matched_source = np.zeros(source_batch.num_rows, dtype=bool)
            pending_deletes: dict[str, list] = {}
            pending_inserts: dict[str, list[tuple]] = {}
            insert_stats: dict[str, tuple] = {}
            for values, location in _locations(table):
                self.hms.lock_manager.acquire(
                    txn, table.qualified_name,
                    values if table.is_partitioned else None,
                    LockType.SHARED)
                target_batch, _ = self.reader.read(location, valid,
                                                   include_row_ids=True)
                if target_batch.num_rows == 0:
                    continue
                data_batch = _with_partitions(table, target_batch, values)
                row_ids = row_ids_from_batch(target_batch)
                # pair every target row with every source row
                for ti in range(data_batch.num_rows):
                    pair = _cross_pair(data_batch.slice(ti, ti + 1),
                                       source_batch, source_schema)
                    hits = np.nonzero(on(pair, self.eval_ctx))[0]
                    if len(hits) > 1:
                        raise ExecutionError(
                            "MERGE: multiple source rows match one "
                            "target row")
                    if len(hits) == 1:
                        si = int(hits[0])
                        matched_source[si] = True
                        pair_row = pair.take(np.array([si]))
                        action, setters = self._old_matched_action(
                            matched_clauses, pair_row)
                        if action in ("delete", "update"):
                            pending_deletes.setdefault(
                                location, []).append(row_ids[ti])
                            total += 1
                        if action == "update":
                            pending_inserts.setdefault(
                                location, []).extend(
                                self._old_updated_rows(
                                    table, pair_row, setters))
                if location in pending_deletes:
                    self.hms.txn_manager.record_write_set(
                        txn, table.qualified_name,
                        values if table.is_partitioned else (), "update")
            # WHEN NOT MATCHED [AND cond] THEN INSERT
            insert_clause = next(
                (c for c in when_clauses
                 if not c.matched and c.action == "insert"), None)
            if insert_clause is not None:
                wanted = (None if insert_clause.condition is None
                          else compile_predicate(insert_clause.condition))
                insert_values = [compile_expr(expr) for expr
                                 in insert_clause.insert_values]
                new_rows = []
                for si in np.nonzero(~matched_source)[0]:
                    row_batch = source_batch.slice(int(si), int(si) + 1)
                    if wanted is not None and not wanted(
                            row_batch, self.eval_ctx)[0]:
                        continue
                    new_rows.append(tuple(
                        value(row_batch, self.eval_ctx).value(0)
                        for value in insert_values))
                if new_rows:
                    routed = route_rows(table, new_rows, {})
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
            self.hms.txn_manager.abort(txn)
            raise
        finally:
            self.hms.lock_manager.release_all(txn)
        self.hms.emit_event("MERGE", table.qualified_name, {"rows": total})
        self.initiator.check_table(table)
        return DmlResult(total, "merge", table.qualified_name)

    def _old_matched_action(self, matched_clauses, pair_row):
        """``(action, SET kernels)`` of the first WHEN MATCHED clause
        whose condition holds; ``(None, None)`` when none does."""
        for action, holds, setters in matched_clauses:
            if holds is None or holds(pair_row, self.eval_ctx)[0]:
                return action, setters
        return None, None


def _locations(table) -> list[tuple[tuple, str]]:
    """Every partition, pruned or not."""
    if table.is_partitioned:
        return [(p.values, p.location) for p in table.list_partitions()]
    return [((), table.location)]


def _with_partitions(table, batch: VectorBatch,
                     values: tuple) -> VectorBatch:
    """The data columns of ``batch`` (record id dropped) followed by
    constant partition columns: the full schema predicates are over."""
    idx = [batch.schema.index_of(c.name) for c in table.schema]
    vectors = [batch.vectors[i] for i in idx]
    columns = list(table.schema.columns)
    n = batch.num_rows
    for col, value in zip(table.partition_columns, values):
        storage = col.dtype.to_storage(value)
        if col.dtype.numpy_dtype == np.dtype(object):
            data = np.empty(n, dtype=object)
            data[:] = storage
        else:
            data = np.full(n, storage, dtype=col.dtype.numpy_dtype)
        vectors.append(ColumnVector(col.dtype, data,
                                    np.zeros(n, dtype=bool)))
        columns.append(col)
    return VectorBatch(Schema(columns), vectors)


def _cross_pair(target_row: VectorBatch, source: VectorBatch,
                source_schema: Schema) -> VectorBatch:
    """Combine one target row with every source row."""
    n = source.num_rows
    repeated = target_row.take(np.zeros(n, dtype=np.int64))
    schema = repeated.schema.concat(source_schema, dedupe=True)
    return VectorBatch(schema, list(repeated.vectors) +
                       list(source.vectors))
