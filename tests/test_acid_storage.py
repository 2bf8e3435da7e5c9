"""ACID layout, snapshot readers, writers and compaction."""

import pytest

from repro.acid.compactor import (CompactionCleaner, CompactionInitiator,
                                  CompactionWorker)
from repro.acid.layout import parse_acid_dirs, select_acid_state
from repro.acid.reader import AcidReader
from repro.acid.writer import AcidWriter, id_tuples, record_ids
from repro.common.rows import Column, Schema
from repro.common.types import INT, STRING
from repro.common.vector import VectorBatch
from repro.config import HiveConf
from repro.errors import HiveError
from repro.formats.orc import SargPredicate
from repro.fs import SimFileSystem
from repro.metastore.compaction import CompactionType, should_compact
from repro.metastore.hms import HiveMetastore
from repro.metastore.txn import ValidWriteIdList


@pytest.fixture
def schema():
    return Schema([Column("id", INT), Column("name", STRING)])


@pytest.fixture
def env(schema):
    fs = SimFileSystem()
    hms = HiveMetastore(fs)
    table = hms.create_table("default", "t", schema, is_acid=True)
    return fs, hms, table


def commit_insert(hms, writer, table, schema, rows):
    tm = hms.txn_manager
    txn = tm.open_transaction()
    wid = tm.allocate_write_id(txn, table.qualified_name)
    writer.write_insert_delta(table.location, wid,
                              VectorBatch.from_rows(schema, rows))
    tm.commit(txn)
    return wid


def current_valid(hms, table):
    tm = hms.txn_manager
    return tm.valid_write_ids(tm.get_snapshot(), table.qualified_name)


class TestLayout:
    def test_parse_names(self):
        bases, deltas = parse_acid_dirs(
            ["base_100", "delta_101_105", "delete_delta_103_103",
             "delta_110_110", "tmp_junk"])
        assert [b.write_id for b in bases] == [100]
        assert [(d.min_write_id, d.max_write_id, d.is_delete)
                for d in deltas] == [(101, 105, False), (103, 103, True),
                                     (110, 110, False)]

    def test_malformed_range(self):
        with pytest.raises(HiveError):
            parse_acid_dirs(["delta_9_3"])

    def test_select_state_base_and_deltas(self):
        valid = ValidWriteIdList("t", 110, frozenset())
        state = select_acid_state(
            ["base_100", "delta_90_90", "delta_105_105",
             "delete_delta_108_108", "base_50"], valid)
        assert state.base.write_id == 100
        assert [d.name for d in state.insert_deltas] == ["delta_105_105"]
        assert [d.name for d in state.delete_deltas] == [
            "delete_delta_108_108"]
        assert set(state.obsolete) == {"base_50", "delta_90_90"}

    def test_open_txn_delta_skipped(self):
        valid = ValidWriteIdList("t", 110, frozenset({105}))
        state = select_acid_state(["delta_105_105", "delta_106_106"],
                                  valid)
        assert [d.name for d in state.insert_deltas] == ["delta_106_106"]

    def test_future_data_invisible_but_not_obsolete(self):
        valid = ValidWriteIdList("t", 100, frozenset())
        state = select_acid_state(["base_150", "delta_120_120"], valid)
        assert state.base is None
        assert state.insert_deltas == []
        assert state.obsolete == []


class TestReadWrite:
    def test_insert_visible_after_commit_only(self, env, schema):
        fs, hms, table = env
        writer, reader = AcidWriter(fs), AcidReader(fs)
        tm = hms.txn_manager
        txn = tm.open_transaction()
        wid = tm.allocate_write_id(txn, table.qualified_name)
        writer.write_insert_delta(
            table.location, wid,
            VectorBatch.from_rows(schema, [(1, "a"), (2, "b")]))
        before, _ = reader.read(table.location,
                                current_valid(hms, table))
        assert before.num_rows == 0
        tm.commit(txn)
        after, _ = reader.read(table.location, current_valid(hms, table))
        assert sorted(after.to_rows()) == [(1, "a"), (2, "b")]

    def test_aborted_txn_rows_never_visible(self, env, schema):
        fs, hms, table = env
        writer, reader = AcidWriter(fs), AcidReader(fs)
        tm = hms.txn_manager
        txn = tm.open_transaction()
        wid = tm.allocate_write_id(txn, table.qualified_name)
        writer.write_insert_delta(
            table.location, wid, VectorBatch.from_rows(schema, [(9, "x")]))
        tm.abort(txn)
        batch, _ = reader.read(table.location, current_valid(hms, table))
        assert batch.num_rows == 0

    def test_delete_by_row_id(self, env, schema):
        fs, hms, table = env
        writer, reader = AcidWriter(fs), AcidReader(fs)
        commit_insert(hms, writer, table, schema,
                      [(i, f"n{i}") for i in range(6)])
        batch, _ = reader.read(table.location, current_valid(hms, table),
                               include_row_ids=True)
        victims = record_ids(batch).filter(batch.column("id").data % 2 == 0)
        tm = hms.txn_manager
        txn = tm.open_transaction()
        wid = tm.allocate_write_id(txn, table.qualified_name)
        writer.write_delete_delta(table.location, wid, victims)
        tm.commit(txn)
        final, metrics = reader.read(table.location,
                                     current_valid(hms, table))
        assert sorted(r[0] for r in final.to_rows()) == [1, 3, 5]
        assert metrics.rows_deleted == 3

    def test_snapshot_isolation_reader_unaffected_by_later_commit(
            self, env, schema):
        fs, hms, table = env
        writer, reader = AcidWriter(fs), AcidReader(fs)
        commit_insert(hms, writer, table, schema, [(1, "a")])
        old_valid = current_valid(hms, table)     # snapshot taken now
        commit_insert(hms, writer, table, schema, [(2, "b")])
        batch, _ = reader.read(table.location, old_valid)
        assert batch.to_rows() == [(1, "a")]

    def test_sargs_prune_row_groups(self, env, schema):
        fs, hms, table = env
        writer = AcidWriter(fs, row_group_size=10)
        reader = AcidReader(fs)
        commit_insert(hms, writer, table, schema,
                      [(i, "x") for i in range(100)])
        batch, metrics = reader.read(
            table.location, current_valid(hms, table),
            sargs=[SargPredicate("id", "between", (20, 25))])
        assert metrics.row_groups_read < metrics.row_groups_total
        assert {r[0] for r in batch.to_rows()} >= set(range(20, 26))

    def test_row_ids_unique(self, env, schema):
        fs, hms, table = env
        writer, reader = AcidWriter(fs), AcidReader(fs)
        commit_insert(hms, writer, table, schema, [(1, "a"), (2, "b")])
        commit_insert(hms, writer, table, schema, [(3, "c")])
        batch, _ = reader.read(table.location, current_valid(hms, table),
                               include_row_ids=True)
        ids = list(id_tuples(record_ids(batch).vectors))
        assert len(set(ids)) == len(ids) == 3


class TestCompactionPolicy:
    def test_threshold_triggers_minor(self):
        assert should_compact(12, 0, 100, 10_000, 10, 0.5) \
            is CompactionType.MINOR

    def test_ratio_triggers_major(self):
        assert should_compact(2, 0, 600, 1000, 10, 0.5) \
            is CompactionType.MAJOR

    def test_no_base_many_deltas_major(self):
        assert should_compact(11, 0, 500, 0, 10, 0.1) \
            is CompactionType.MAJOR

    def test_quiet_table_none(self):
        assert should_compact(2, 1, 10, 10_000, 10, 0.5) is None


class TestCompactionExecution:
    def _fill(self, env, schema, batches=12, rows=5):
        fs, hms, table = env
        writer = AcidWriter(fs)
        for b in range(batches):
            commit_insert(hms, writer, table, schema,
                          [(b * rows + i, "v") for i in range(rows)])
        return writer

    def test_minor_merges_deltas(self, env, schema):
        fs, hms, table = env
        self._fill(env, schema)
        hms.compaction_queue.enqueue(table.qualified_name, None,
                                     CompactionType.MINOR)
        report = CompactionWorker(hms).run_one()
        assert report.merged_rows == 60
        assert "delta_1_12" in report.output_dir
        CompactionCleaner(hms).run()
        names = [d.rsplit("/", 1)[-1]
                 for d in fs.list_dirs(table.location)]
        assert names == ["delta_1_12"]
        batch, _ = AcidReader(fs).read(table.location,
                                       current_valid(hms, table))
        assert batch.num_rows == 60

    def test_major_folds_to_base_and_applies_deletes(self, env, schema):
        fs, hms, table = env
        writer = self._fill(env, schema)
        reader = AcidReader(fs)
        batch, _ = reader.read(table.location, current_valid(hms, table),
                               include_row_ids=True)
        tm = hms.txn_manager
        txn = tm.open_transaction()
        wid = tm.allocate_write_id(txn, table.qualified_name)
        writer.write_delete_delta(table.location, wid,
                                  record_ids(batch).slice(0, 10))
        tm.commit(txn)
        hms.compaction_queue.enqueue(table.qualified_name, None,
                                     CompactionType.MAJOR)
        CompactionWorker(hms).run_one()
        CompactionCleaner(hms).run()
        names = [d.rsplit("/", 1)[-1]
                 for d in fs.list_dirs(table.location)]
        assert names == [f"base_{wid}"]
        final, metrics = reader.read(table.location,
                                     current_valid(hms, table))
        assert final.num_rows == 50
        assert metrics.delete_keys == 0   # history deleted

    def test_cleaner_waits_for_old_readers(self, env, schema):
        fs, hms, table = env
        self._fill(env, schema, batches=3)
        # a reader opened *before* compaction is still running
        old_reader_txn = hms.txn_manager.open_transaction()
        hms.compaction_queue.enqueue(table.qualified_name, None,
                                     CompactionType.MAJOR)
        CompactionWorker(hms).run_one()
        assert CompactionCleaner(hms).run() == 0     # barrier holds
        dirs = fs.list_dirs(table.location)
        assert len(dirs) == 4                        # 3 deltas + base
        hms.txn_manager.commit(old_reader_txn)
        assert CompactionCleaner(hms).run() == 3
        assert len(fs.list_dirs(table.location)) == 1

    def test_initiator_enqueues_on_threshold(self, env, schema):
        fs, hms, table = env
        self._fill(env, schema, batches=12)
        conf = HiveConf(compaction_delta_threshold=10)
        requests = CompactionInitiator(hms, conf).check_table(table)
        assert len(requests) == 1
        # coalescing: a second check does not enqueue a duplicate
        again = CompactionInitiator(hms, conf).check_table(table)
        assert again[0].request_id == requests[0].request_id

    def test_compaction_preserves_snapshot_reads(self, env, schema):
        """A snapshot taken before compaction reads the same rows after

        the worker ran (cleaning has not happened yet)."""
        fs, hms, table = env
        self._fill(env, schema, batches=4)
        reader = AcidReader(fs)
        valid = current_valid(hms, table)
        before, _ = reader.read(table.location, valid)
        hms.compaction_queue.enqueue(table.qualified_name, None,
                                     CompactionType.MAJOR)
        CompactionWorker(hms).run_one()
        after, _ = reader.read(table.location, valid)
        assert sorted(before.to_rows()) == sorted(after.to_rows())
