"""Scan execution: the bridge between plans and storage.

Routes a :class:`~repro.plan.relnodes.TableScan` to the right data path:

* **federated** scans go to the registered storage handler — either a
  fully pushed-down query (Section 6.2) or a plain handler read,
* **ACID** tables go through the snapshot reader bound to the query's
  ValidWriteIdList (Section 3.2),
* **plain** tables read their files directly,

always through the active reader factory (direct or LLAP I/O elevator),
which charges each read's own ledger (``ReadMetrics``) by chunk source,
applying pushed sargs for row-group pruning, appending partition-column
constants, and applying dynamic semijoin filters (range + Bloom,
Section 4.6) as data streams out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..acid.reader import META_NAMES, AcidReader
from ..common.bloom import BloomFilter
from ..common.vector import ColumnVector, VectorBatch
from ..errors import ExecutionError, FederationError
from ..exec.operators import run_of
from ..formats.orc import SargPredicate
from ..fs import SimFileSystem
from ..metastore.catalog import TableDescriptor
from ..metastore.hms import HiveMetastore
from ..metastore.txn import ValidWriteIdList
from ..plan import relnodes as rel
from ..plan import rexnodes as rex


@dataclass
class SemijoinFilter:
    """Runtime artifact of a semijoin reducer: range + Bloom filter."""

    column: str
    min_value: object
    max_value: object
    bloom: BloomFilter
    build_rows: int = 0

    @classmethod
    def from_vector(cls, column_name: str, vector: ColumnVector,
                    fpp: float) -> "SemijoinFilter":
        keys = vector.data[~vector.nulls]
        if keys.dtype == np.dtype(object):
            distinct = sorted(set(keys.tolist()))
        else:
            if keys.dtype.kind == "f":
                # NaN never equi-joins, so it stays out of the bounds and
                # the Bloom; -0.0 = 0.0 joins, so both hash as 0.0
                keys = keys[~np.isnan(keys)] + 0.0
            distinct = np.unique(keys).tolist()
        bloom = BloomFilter(max(len(distinct), 8), fpp)
        bloom.add_all(distinct)
        lo, hi = (distinct[0], distinct[-1]) if distinct else (None, None)
        return cls(column_name, lo, hi, bloom, len(distinct))

    def might_match(self, vector: ColumnVector) -> np.ndarray:
        """Mask of probe rows that may equal a build-side key.

        The Bloom hashes ``repr`` of the build side's plain values, so a
        probe column of another numeric kind is first brought to that
        kind (``7`` and ``7.0`` join but print differently); a fractional
        DOUBLE can equal no INT or BOOLEAN key.
        """
        values = vector.data
        lo = self.min_value
        is_text = values.dtype == np.dtype(object)
        if lo is None or is_text != isinstance(lo, str):
            # empty build side, or strings against numbers: nothing joins
            return np.zeros(len(values), dtype=bool)
        mask = ~vector.nulls
        if not is_text:
            mask &= (values >= lo) & (values <= self.max_value)
            if values.dtype.kind == "f" and not isinstance(lo, float):
                mask &= values == np.floor(values)
        survivors = np.nonzero(mask)[0]
        probe = values[survivors]
        if isinstance(lo, float):
            probe = probe.astype(np.float64) + 0.0
        elif not is_text:
            probe = probe.astype(type(lo), copy=False)
        mask[survivors] = self.bloom.might_contain_many(probe)
        return mask


@dataclass(slots=True)
class ScanMetrics:
    """Per-scan IO accounting consumed by the cost model."""

    table: str = ""
    rows: int = 0
    raw_rows: int = 0                 # before semijoin filtering
    disk_bytes: int = 0
    cache_bytes: int = 0
    metadata_bytes: int = 0
    files_opened: int = 0
    row_groups_total: int = 0
    row_groups_read: int = 0
    partitions_total: int = 0
    partitions_read: int = 0
    delete_keys: int = 0
    external_time_s: float = 0.0
    semijoin_filtered_rows: int = 0
    #: injected read errors that were retried (repro.faults); the
    #: re-read bytes are already folded into disk_bytes
    io_retries: int = 0

    def merge(self, other: "ScanMetrics") -> None:
        self.rows += other.rows
        self.raw_rows += other.raw_rows
        self.disk_bytes += other.disk_bytes
        self.cache_bytes += other.cache_bytes
        self.metadata_bytes += other.metadata_bytes
        self.files_opened += other.files_opened
        self.row_groups_total += other.row_groups_total
        self.row_groups_read += other.row_groups_read
        self.partitions_total += other.partitions_total
        self.partitions_read += other.partitions_read
        self.delete_keys += other.delete_keys
        self.external_time_s += other.external_time_s
        self.semijoin_filtered_rows += other.semijoin_filtered_rows
        self.io_retries += other.io_retries


class ScanExecutor:
    """Callable plugged into the ExecutionContext as ``scan_executor``."""

    def __init__(self, hms: HiveMetastore, fs: SimFileSystem,
                 reader_factory,
                 valid_write_ids: dict[str, ValidWriteIdList],
                 semijoin_filters: dict[str, SemijoinFilter],
                 storage_handlers: Optional[dict] = None,
                 bloom_fpp: float = 0.05,
                 registry=None, trace=None):
        self.hms = hms
        self.fs = fs
        self.reader_factory = reader_factory
        self.valid_write_ids = valid_write_ids
        self.semijoin_filters = semijoin_filters
        self.storage_handlers = storage_handlers or {}
        self.bloom_fpp = bloom_fpp
        #: optional observability hooks (repro.obs)
        self.registry = registry
        self.trace = trace
        #: digest -> OperatorRun, shared with the ExecutionContext the
        #: runtime builds: each scan's ScanMetrics lands on its run
        self.runs: dict = {}

    @property
    def metrics(self) -> dict:
        """digest -> ScanMetrics of the scans run so far, read off
        ``runs`` (the wall benchmark's tracer totals them per query)."""
        return {digest: run.scan for digest, run in self.runs.items()
                if run.scan is not None}

    # ------------------------------------------------------------------ #
    def __call__(self, node: rel.TableScan) -> VectorBatch:
        metrics = ScanMetrics(table=node.table_name)
        table = self.hms.get_table(node.table_name)
        if node.pushed_query is not None:
            batch = self._pushed(node, table, metrics)
        elif table.storage_handler is not None:
            batch = self._federated(node, table, metrics)
        else:
            batch = self._native(node, table, metrics)
        metrics.raw_rows = batch.num_rows
        batch = self._apply_semijoin_filters(node, batch, metrics)
        metrics.rows = batch.num_rows
        run = run_of(self.runs, node)
        if run.scan is None:
            run.scan = metrics
        else:
            # a digest is scanned again where a context does not
            # memoise it: its IO adds up on the one run
            run.scan.merge(metrics)
        self._observe(node, metrics)
        return batch

    def _observe(self, node: rel.TableScan,
                 metrics: ScanMetrics) -> None:
        """Publish one scan's IO accounting to the obs layer."""
        if self.registry is not None:
            reg = self.registry
            labels = {"table": node.table_name}
            reg.counter("scan.rows", **labels).inc(metrics.rows)
            reg.counter("scan.disk_bytes",
                        **labels).inc(metrics.disk_bytes)
            reg.counter("scan.cache_bytes",
                        **labels).inc(metrics.cache_bytes)
            reg.counter("scan.row_groups_pruned", **labels).inc(
                metrics.row_groups_total - metrics.row_groups_read)
            reg.counter("scan.partitions_pruned", **labels).inc(
                metrics.partitions_total - metrics.partitions_read)
            if metrics.semijoin_filtered_rows:
                reg.counter("scan.semijoin_filtered_rows", **labels).inc(
                    metrics.semijoin_filtered_rows)
            if metrics.io_retries:
                reg.counter("scan.io_retries",
                            **labels).inc(metrics.io_retries)
        if self.trace is not None:
            self.trace.add(
                f"scan {node.table_name}",
                virtual_s=metrics.external_time_s,
                rows=metrics.rows, disk_bytes=metrics.disk_bytes,
                cache_bytes=metrics.cache_bytes,
                partitions=f"{metrics.partitions_read}"
                           f"/{metrics.partitions_total}",
                row_groups=f"{metrics.row_groups_read}"
                           f"/{metrics.row_groups_total}")

    # -- federated paths ----------------------------------------------------- #
    def _handler(self, table: TableDescriptor):
        handler = self.storage_handlers.get(table.storage_handler)
        if handler is None:
            raise FederationError(
                f"no storage handler registered for "
                f"{table.storage_handler!r}")
        return handler

    def _pushed(self, node: rel.TableScan, table: TableDescriptor,
                metrics: ScanMetrics) -> VectorBatch:
        handler = self._handler(table)
        rows, external_s = handler.execute_pushed(table, node.pushed_query)
        metrics.external_time_s += external_s
        return VectorBatch.from_rows(node.schema, rows)

    def _federated(self, node: rel.TableScan, table: TableDescriptor,
                   metrics: ScanMetrics) -> VectorBatch:
        handler = self._handler(table)
        columns = [c.name for c in node.schema]
        rows, external_s = handler.scan_table(table, columns)
        metrics.external_time_s += external_s
        return VectorBatch.from_rows(node.schema, rows)

    # -- native path ------------------------------------------------------------ #
    def _native(self, node: rel.TableScan, table: TableDescriptor,
                metrics: ScanMetrics) -> VectorBatch:
        reader = AcidReader(self.fs, self.reader_factory)
        # columns the files do not store under the table's schema are
        # virtual: the record id (§3.2) and the partition constants
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
        read_values: list[tuple] = []     # the partition of each batch
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
            batches.append(batch)
            read_values.append(values)
        return _assemble(node, table, batches, read_values, part_names)

    @staticmethod
    def _account_io(read, metrics: ScanMetrics) -> None:
        """Add what one directory read reports: its readers charged the
        read's own ledger by chunk size, so the re-reads injected at the
        fs layer go on top."""
        metrics.disk_bytes += read.disk_bytes + read.retry_bytes
        metrics.cache_bytes += read.cache_bytes
        metrics.metadata_bytes += read.metadata_bytes
        metrics.files_opened += read.files_opened + read.io_retries
        metrics.row_groups_total += read.row_groups_total
        metrics.row_groups_read += read.row_groups_read
        metrics.io_retries += read.io_retries

    # -- sargs --------------------------------------------------------------- #
    def _convert_sargs(self, node: rel.TableScan) -> list[SargPredicate]:
        out: list[SargPredicate] = []
        for conjunct in node.sarg_conjuncts:
            sarg = _rex_to_sarg(conjunct, node.schema)
            if sarg is not None:
                out.append(sarg)
        return out

    def _semijoin_sargs(self, node: rel.TableScan) -> list[SargPredicate]:
        out = []
        for reducer_id in node.semijoin_sources:
            sj = self.semijoin_filters.get(reducer_id)
            if sj is None or sj.min_value is None:
                continue
            out.append(SargPredicate(sj.column, "between",
                                     (sj.min_value, sj.max_value)))
        return out

    def _apply_semijoin_filters(self, node: rel.TableScan,
                                batch: VectorBatch,
                                metrics: ScanMetrics) -> VectorBatch:
        for reducer_id in node.semijoin_sources:
            sj = self.semijoin_filters.get(reducer_id)
            if sj is None or sj.column not in batch.schema:
                continue
            mask = sj.might_match(batch.column(sj.column))
            metrics.semijoin_filtered_rows += int(
                batch.num_rows - mask.sum())
            batch = batch.filter(mask)
        return batch


def _assemble(node: rel.TableScan, table: TableDescriptor,
              batches: list[VectorBatch], read_values: list[tuple],
              part_names: list[str]) -> VectorBatch:
    """The scan's batch from its directory reads, in the scan schema's
    column order: the stored columns are concatenated once (not at all
    for one non-empty read), and each partition column is one
    ``np.repeat`` of its per-partition values over the reads' row
    counts; a NULL partition value is a NULL."""
    counts = [batch.num_rows for batch in batches]
    if not sum(counts):
        return VectorBatch.empty(node.schema)
    vectors = {}
    stored_names = [c.name for c in node.schema if c.name not in part_names]
    if stored_names:
        stored = VectorBatch.concat(batches[0].schema, batches)
        vectors = {name: stored.column(name) for name in stored_names}
    partition_schema = table.partition_schema()
    for name in part_names:
        i = partition_schema.index_of(name)
        per_read = ColumnVector.from_values(
            partition_schema[i].dtype, [values[i] for values in read_values])
        vectors[name] = ColumnVector(per_read.dtype,
                                     np.repeat(per_read.data, counts),
                                     np.repeat(per_read.nulls, counts))
    return VectorBatch(node.schema, [vectors[c.name] for c in node.schema])


def _rex_to_sarg(conjunct: rex.RexNode,
                 schema) -> Optional[SargPredicate]:
    """Rex conjunct → file-format sarg (storage-value space)."""
    if not isinstance(conjunct, rex.RexCall):
        return None
    if conjunct.op in ("=", "<", "<=", ">", ">="):
        a, b = conjunct.operands
        if isinstance(a, rex.RexInputRef) and isinstance(b, rex.RexLiteral):
            ref, literal, op = a, b, conjunct.op
        elif isinstance(b, rex.RexInputRef) and isinstance(
                a, rex.RexLiteral):
            ref, literal = b, a
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                  "=": "="}[conjunct.op]
        else:
            return None
        if literal.value is None:
            return None
        return SargPredicate(schema[ref.index].name, op,
                             ref.dtype.to_storage(literal.value))
    if conjunct.op == "IN":
        ref = conjunct.operands[0]
        if not isinstance(ref, rex.RexInputRef):
            return None
        values = []
        for operand in conjunct.operands[1:]:
            if not isinstance(operand, rex.RexLiteral) \
                    or operand.value is None:
                return None
            values.append(ref.dtype.to_storage(operand.value))
        return SargPredicate(schema[ref.index].name, "in", tuple(values))
    return None
