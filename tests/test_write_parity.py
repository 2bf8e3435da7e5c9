"""Rows become columns once — and the files do not notice.

The batch write path (``AcidWriter`` over ``VectorBatch``, record ids as
three vectors, ``ColumnVector.bounds``, ``TableStatistics.from_batch``,
mask routing, columnar compaction, the vectorised ``AcidReader`` checks)
is held against the displaced row-at-a-time one in tests/write_oracle.py:
same ``(path, bytes)`` listings after inserts, deletes, minor and major
compaction; same statistics down to the HyperLogLog registers; same
partitions in the same order; same batches and metrics out of the reader.
The cases at the end pin the layout rules byte identity rests on.
"""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.acid.compactor import CompactionWorker
from repro.acid.layout import select_acid_state
from repro.acid.reader import AcidReader
from repro.acid.writer import (BUCKET_FILE, DELETE_SCHEMA, AcidWriter,
                               acid_schema, record_ids)
from repro.common.rows import Column, Schema
from repro.common.types import BIGINT, BOOLEAN, DATE, DOUBLE, INT, STRING
from repro.common.vector import VectorBatch
from repro.config import HiveConf
from repro.formats.orc import OrcReader
from repro.fs import SimFileSystem
from repro.metastore.compaction import CompactionType
from repro.metastore.hms import HiveMetastore
from repro.metastore.stats import TableStatistics
from repro.metastore.txn import DeltaWriteIdList, ValidWriteIdList
from repro.server.dml import TableWriter, insert_columns

from .write_oracle import (LoopAcidReader, RowAcidWriter, major_compact_rows,
                           minor_compact_rows, route_rows,
                           row_ids_from_batch, stats_from_rows)

VALUES = {
    INT: st.integers(-5, 5),
    BIGINT: st.integers(-2**40, 2**40),
    DOUBLE: st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300, float("nan")]),
    BOOLEAN: st.booleans(),
    STRING: st.sampled_from(["", "a", "b", "ab", "é"]),
    DATE: st.dates(datetime.date(1999, 12, 30), datetime.date(2000, 1, 3)),
}


@st.composite
def tables(draw, min_rows=0):
    """``(schema, rows)``: 1-4 typed columns, NULL-heavy, 0-40 rows."""
    types = draw(st.lists(st.sampled_from(list(VALUES)), min_size=1,
                          max_size=4))
    schema = Schema(Column(f"c{i}", t) for i, t in enumerate(types))
    row = st.tuples(*(st.one_of(st.none(), VALUES[t]) for t in types))
    return schema, draw(st.lists(row, min_size=min_rows, max_size=40))


# --------------------------------------------------------------------------- #
# files

class Warehouse:
    """One ACID table on its own file system, written through ``writer``
    (batch or rows) and compacted by ``compact``."""

    def __init__(self, schema, row_group_size, rows_writer: bool):
        self.fs = SimFileSystem()
        self.hms = HiveMetastore(self.fs)
        self.table = self.hms.create_table(
            "default", "t", schema, is_acid=True,
            bloom_filter_columns=(schema[0].name,))
        self.rows_writer = rows_writer
        self.row_group_size = row_group_size
        self.writer = (RowAcidWriter if rows_writer else AcidWriter)(
            self.fs, row_group_size)

    @property
    def location(self):
        return self.table.location

    def valid(self):
        tm = self.hms.txn_manager
        return tm.valid_write_ids(tm.get_snapshot(),
                                  self.table.qualified_name)

    def _write(self, write, commit=True):
        tm = self.hms.txn_manager
        txn = tm.open_transaction()
        write(tm.allocate_write_id(txn, self.table.qualified_name))
        (tm.commit if commit else tm.abort)(txn)

    def insert(self, rows, commit=True):
        schema, bloom = self.table.schema, self.table.bloom_filter_columns
        if self.rows_writer:
            self._write(lambda wid: self.writer.write_insert_delta(
                self.location, wid, schema, rows, bloom), commit)
        else:
            self._write(lambda wid: self.writer.write_insert_delta(
                self.location, wid, VectorBatch.from_rows(schema, rows),
                bloom), commit)

    def delete(self, picks):
        """Delete the visible rows at positions ``picks`` (mod count)."""
        batch, _ = AcidReader(self.fs).read(self.location, self.valid(),
                                            include_row_ids=True)
        if not batch.num_rows:
            return
        chosen = sorted({p % batch.num_rows for p in picks})
        if self.rows_writer:
            ids = row_ids_from_batch(batch)
            # handed over unsorted: the writer sorts
            victims = [ids[i] for i in reversed(chosen)]
        else:
            victims = record_ids(batch).take(
                np.array(chosen[::-1], dtype=np.int64))
        self._write(lambda wid: self.writer.write_delete_delta(
            self.location, wid, victims))

    def compact(self, kind: CompactionType):
        bloom = self.table.bloom_filter_columns
        if not self.rows_writer:
            self.hms.compaction_queue.enqueue(
                self.table.qualified_name, None, kind)
            CompactionWorker(self.hms, self.row_group_size).run_one()
        elif kind is CompactionType.MAJOR:
            major_compact_rows(self.fs, self.writer, self.location,
                               self.valid(), bloom)
        else:
            names = [d.rsplit("/", 1)[-1]
                     for d in self.fs.list_dirs(self.location)]
            valid = self.valid()
            minor_compact_rows(self.fs, self.writer, self.location,
                               select_acid_state(names, valid), valid,
                               bloom)

    def listing(self):
        return [(s.path, self.fs.read(s.path))
                for s in self.fs.list_files(self.location, recursive=True)]


class TestFilesIdentical:
    @given(tables(), st.integers(1, 7), st.integers(1, 4),
           st.lists(st.lists(st.integers(0, 39), max_size=6), max_size=3),
           st.integers(0, 4))
    @settings(max_examples=120, deadline=None)
    def test_insert_delete_minor_major(self, table, row_group_size,
                                       chunks, deletes, aborted):
        schema, rows = table
        step = -(-len(rows) // chunks) or 1
        batch_side = Warehouse(schema, row_group_size, rows_writer=False)
        rows_side = Warehouse(schema, row_group_size, rows_writer=True)
        for side in (batch_side, rows_side):
            for i, at in enumerate(range(0, max(len(rows), 1), step)):
                side.insert(rows[at:at + step], commit=i != aborted)
            for picks in deletes:
                side.delete(picks)
        assert batch_side.listing() == rows_side.listing()
        for kind in (CompactionType.MINOR, CompactionType.MAJOR):
            for side in (batch_side, rows_side):
                side.compact(kind)
            assert batch_side.listing() == rows_side.listing(), kind


# --------------------------------------------------------------------------- #
# statistics

def _plain(value):
    """Tell ``0.0`` from ``-0.0`` and compare NaN equal to itself."""
    return repr(value)


class TestStatisticsEqual:
    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_from_batch_is_the_per_value_fold(self, table):
        schema, rows = table
        batch = VectorBatch.from_rows(schema, rows)
        ours = TableStatistics.from_batch(batch)
        fold = stats_from_rows(schema, batch.to_rows())
        assert (ours.row_count, ours.total_bytes) == (
            fold.row_count, fold.total_bytes)
        assert list(ours.columns) == list(fold.columns)
        for name, column in ours.columns.items():
            other = fold.columns[name]
            assert column.null_count == other.null_count
            assert (_plain(column.min_value), _plain(column.max_value)) == (
                _plain(other.min_value), _plain(other.max_value)), name
            assert np.array_equal(column.ndv_sketch.registers,
                                  other.ndv_sketch.registers), name


# --------------------------------------------------------------------------- #
# dynamic-partition routing

class TestRoutingEqual:
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2),
                              st.sampled_from(["x", "y", None])),
                    max_size=40),
           st.sampled_from([{}, {"P": 7}, {"p": 7, "q": "z"}]))
    @settings(max_examples=100, deadline=None)
    def test_same_partitions_same_order_same_rows(self, rows, spec):
        hms = HiveMetastore(SimFileSystem())
        table = hms.create_table(
            "default", "t", Schema([Column("a", INT)]),
            partition_columns=[Column("p", INT), Column("q", STRING)])
        columns = insert_columns(table, spec)
        pinned = {k.lower() for k in spec}
        rows = [tuple(v for v, name in zip(row, "apq") if name not in pinned)
                for row in rows]
        data, routed = TableWriter(hms, HiveConf())._route_partitions(
            table, VectorBatch.from_rows(Schema(columns), rows), spec)
        ours = [(key, (data if mask is None else data.filter(mask)).to_rows())
                for key, mask in routed.items()]
        theirs = route_rows(table, rows,
                            {k.lower(): v for k, v in spec.items()})
        assert ours == list(theirs.items())


# --------------------------------------------------------------------------- #
# the reader's checks

class TestReaderChecksEqual:
    """Record ids are not Python objects on the read side either: the
    vectorised validity and tombstone checks against the three per-row
    loops, batches and ``ReadMetrics`` alike."""

    SCHEMA = Schema([Column("id", INT), Column("name", STRING)])

    @pytest.fixture
    def location(self):
        """base_2 (WriteIds 1-2), a compacted delta_3_5, a compacted
        delete_delta_6_7 holding the tombstones of WriteId 6 (valid) and
        7 (aborted), and a single delete_delta_8_8."""
        fs = SimFileSystem()
        writer = AcidWriter(fs, row_group_size=4)
        data = acid_schema(self.SCHEMA)
        rows = [(wid, 0, rid, wid * 10 + rid, f"n{wid}{rid}")
                for wid in range(1, 6) for rid in range(3)]
        writer.write_base("/t", 2, VectorBatch.from_rows(
            data, [r for r in rows if r[0] <= 2]))
        writer.write_merged_delta("/t", 3, 5, VectorBatch.from_rows(
            data, [r for r in rows if r[0] > 2]))
        writer.write_merged_delta("/t", 6, 7, VectorBatch.from_rows(
            DELETE_SCHEMA, [(6, 1, 0, 1), (6, 4, 0, 0), (6, 5, 0, 0),
                            (7, 2, 0, 2), (7, 5, 0, 1)]), is_delete=True)
        writer.write_delete_delta("/t", 8, VectorBatch.from_rows(
            Schema(DELETE_SCHEMA.columns[1:]), [(3, 0, 2), (1, 0, 2)]))
        return fs

    @pytest.mark.parametrize("valid", [
        ValidWriteIdList("t", 8, frozenset({7})),
        ValidWriteIdList("t", 8, frozenset({4, 7})),    # mixed delta
        ValidWriteIdList("t", 6, frozenset()),          # watermark cuts
        DeltaWriteIdList("t", 8, frozenset({7}), min_write_id=2),
        DeltaWriteIdList("t", 8, frozenset({4, 7}), min_write_id=3),
    ], ids=repr)
    @pytest.mark.parametrize("include_row_ids", [False, True])
    def test_same_batches_and_metrics(self, location, valid,
                                      include_row_ids):
        ours, our_metrics = AcidReader(location).read(
            "/t", valid, include_row_ids=include_row_ids)
        theirs, their_metrics = LoopAcidReader(location).read(
            "/t", valid, include_row_ids=include_row_ids)
        assert ours.schema.names() == theirs.schema.names()
        assert ours.to_rows() == theirs.to_rows()
        assert our_metrics == their_metrics
        assert our_metrics.delete_keys and our_metrics.rows_deleted

    def test_aborted_tombstones_do_not_delete(self, location):
        batch, metrics = AcidReader(location).read(
            "/t", ValidWriteIdList("t", 8, frozenset({7})))
        ids = {row[0] for row in batch.to_rows()}
        assert {22, 51} <= ids              # WriteId 7's victims live
        assert not {11, 40, 50, 32, 12} & ids   # WriteId 6's and 8's do not
        assert (metrics.delete_keys, metrics.rows_deleted) == (5, 5)


# --------------------------------------------------------------------------- #
# layout rules

@pytest.fixture
def session():
    session = repro.HiveServer2(HiveConf.v3_profile()).connect()
    session.conf.results_cache_enabled = False
    return session


def files_under(session, table: str) -> list[str]:
    location = session.hms.get_table(table).location
    return [s.path[len(location) + 1:]
            for s in session.fs.list_files(location, recursive=True)]


def delta_rows(session, table: str, name: str, partition=None) -> list:
    descriptor = session.hms.get_table(table)
    location = (descriptor.location if partition is None
                else descriptor.get_partition(partition).location)
    return OrcReader(session.fs.read(
        f"{location}/{name}/{BUCKET_FILE}")).read_all().to_rows()


class TestLayoutRules:
    def test_unpartitioned_empty_insert_writes_an_empty_delta(self, session):
        session.execute("CREATE TABLE t (a INT)")
        session.execute("CREATE TABLE s (a INT)")
        session.execute("INSERT INTO t SELECT a FROM s")
        assert files_under(session, "t") == [f"delta_1_1/{BUCKET_FILE}"]
        assert delta_rows(session, "t", "delta_1_1") == []

    def test_static_partition_empty_insert_writes_nothing(self, session):
        session.execute("CREATE TABLE t (a INT) PARTITIONED BY (p INT)")
        session.execute("CREATE TABLE s (a INT)")
        session.execute("INSERT INTO t PARTITION (p = 1) SELECT a FROM s")
        table = session.hms.get_table("t")
        assert files_under(session, "t") == [] and not table.partitions

    def test_partitions_written_in_first_appearance_order(self, session):
        session.execute("CREATE TABLE t (a INT) PARTITIONED BY (p INT)")
        session.execute(
            "INSERT INTO t VALUES (1, 3), (2, 1), (3, 3), (4, 2), (5, 1)")
        table = session.hms.get_table("t")
        assert list(table.partitions) == [(3,), (1,), (2,)]
        created = [session.fs.status(
            f"{p.location}/delta_1_1/{BUCKET_FILE}").file_id
            for p in table.partitions.values()]
        assert created == sorted(created)
        assert [r[3:] for r in delta_rows(
            session, "t", "delta_1_1", (3,))] == [(1,), (3,)]

    def test_merge_insert_delta_order(self, session):
        """Updated rows in pair (target-row) order across the UPDATE
        clauses, NOT MATCHED rows after them, one insert delta."""
        session.execute("CREATE TABLE t (k INT, v INT)")
        session.execute(
            "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)")
        session.execute("CREATE TABLE src (k INT, v INT)")
        session.execute("INSERT INTO src VALUES "
                        "(9, 90), (5, 50), (4, 41), (3, 30), (2, 21), "
                        "(1, 10), (8, 80)")
        result = session.execute(
            "MERGE INTO t USING src ON t.k = src.k "
            "WHEN MATCHED AND src.v % 10 = 1 THEN UPDATE SET v = -1 "
            "WHEN MATCHED THEN UPDATE SET v = src.v "
            "WHEN NOT MATCHED THEN INSERT VALUES (src.k, src.v)")
        assert result.rows_affected == 7
        assert [r[2:] for r in delta_rows(session, "t", "delta_2_2")] == [
            (0, 1, 10), (1, 2, -1), (2, 3, 30), (3, 4, -1), (4, 5, 50),
            (5, 9, 90), (6, 8, 80)]

    def test_delete_delta_sorted_by_record_id(self, session):
        """WriteId is the most significant key, RowId the least."""
        session.execute("CREATE TABLE t (k INT)")
        session.execute("INSERT INTO t VALUES (1), (2), (3)")
        session.execute("INSERT INTO t VALUES (4), (5), (6)")
        session.execute("DELETE FROM t WHERE k IN (6, 2, 4, 3)")
        assert [r[1:] for r in delta_rows(
            session, "t", "delete_delta_3_3")] == [
            (1, 0, 1), (1, 0, 2), (2, 0, 0), (2, 0, 2)]
