"""The displaced partition assembly: parity oracle for ``ScanExecutor``.

Until a scan copied each column once, ``ScanExecutor._native`` gave every
directory read its partition's constants on its own (one ``np.full`` per
partition column per partition, ``_with_partition_columns``), projected
each of those batches onto the scan schema, and only then concatenated
them — so every column was copied per partition before the real concat
copied it again.  That is slow and easy to read, so it lives on here:
:class:`OracleScanExecutor` overrides ``_native`` with the old body,
corrected for the bug it had: a NULL partition value is NULL (the old
``np.full(n, None, dtype=int64)`` raised, and a STRING column stored
``None`` as a non-NULL value).

tests/test_scan_assembly.py runs both on random partitioned tables and
demands the same vectors (dtype, data, nulls) and the same
``ScanMetrics``.
"""

from __future__ import annotations

import numpy as np

from repro.acid.reader import META_NAMES, AcidReader
from repro.common.rows import Schema
from repro.common.vector import ColumnVector, VectorBatch
from repro.errors import ExecutionError
from repro.runtime.scan import ScanExecutor


class OracleScanExecutor(ScanExecutor):
    """A ``ScanExecutor`` that assembles a scan partition by partition."""

    def _native(self, node, table, metrics) -> VectorBatch:
        reader = AcidReader(self.fs, self.reader_factory)
        data_names = [c.name for c in node.schema
                      if c.name in table.schema]
        row_ids = any(c.name in META_NAMES for c in node.schema)
        part_names = [c.name for c in node.schema
                      if c.name not in table.schema
                      and c.name not in META_NAMES]
        sargs = self._convert_sargs(node)
        sargs += self._semijoin_sargs(node)

        if table.is_partitioned:
            descriptors = table.list_partitions()
            metrics.partitions_total = len(descriptors)
            if node.pruned_partitions is not None:
                wanted = set(node.pruned_partitions)
                descriptors = [d for d in descriptors
                               if d.values in wanted]
            metrics.partitions_read = len(descriptors)
            locations = [(d.values, d.location) for d in descriptors]
        else:
            locations = [((), table.location)]
            metrics.partitions_total = metrics.partitions_read = 1

        batches: list[VectorBatch] = []
        for values, location in locations:
            if not self.fs.exists(location):
                continue
            if table.is_acid:
                valid = self.valid_write_ids.get(table.qualified_name)
                if valid is None:
                    raise ExecutionError(
                        f"no snapshot bound for ACID table "
                        f"{table.qualified_name}")
                batch, read_metrics = reader.read(
                    location, valid, columns=data_names or None,
                    sargs=sargs, include_row_ids=row_ids)
                metrics.delete_keys += read_metrics.delete_keys
            else:
                batch, read_metrics = reader.read_plain(
                    location, table.schema, columns=data_names or None,
                    sargs=sargs, file_format=table.file_format)
            self._account_io(read_metrics, metrics)
            if batch.num_rows == 0 and len(batch.schema) == 0:
                continue
            batch = _with_partition_columns(table, batch, values,
                                            part_names)
            batches.append(batch)
        if not batches:
            return VectorBatch.empty(node.schema)
        # align column order to the scan schema
        aligned = []
        for batch in batches:
            idx = [batch.schema.index_of(c.name) for c in node.schema]
            aligned.append(batch.project(idx, node.schema))
        return VectorBatch.concat(node.schema, aligned)


def _with_partition_columns(table, batch: VectorBatch, values: tuple,
                            part_names: list[str]) -> VectorBatch:
    if not part_names:
        return batch
    value_of = {c.name.lower(): v for c, v in
                zip(table.partition_columns, values)}
    vectors = list(batch.vectors)
    columns = list(batch.schema.columns)
    n = batch.num_rows
    for name in part_names:
        column = table.partition_schema().field(name)
        value = value_of[name.lower()]
        np_dtype = column.dtype.numpy_dtype
        if value is None:
            data = np.zeros(n, dtype=np_dtype)
            if np_dtype == np.dtype(object):
                data[:] = ""
        elif np_dtype == np.dtype(object):
            data = np.empty(n, dtype=object)
            data[:] = column.dtype.to_storage(value)
        else:
            data = np.full(n, column.dtype.to_storage(value), dtype=np_dtype)
        vectors.append(ColumnVector(column.dtype, data,
                                    np.full(n, value is None)))
        columns.append(column)
    return VectorBatch(Schema(columns), vectors)
