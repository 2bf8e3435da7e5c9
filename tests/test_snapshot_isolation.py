"""Multi-session ACID semantics through the SQL layer: snapshot

isolation, write conflicts, compaction under concurrent readers.
"""

import pytest

import repro
from repro.config import HiveConf
from repro.errors import WriteConflictError


@pytest.fixture
def server():
    return repro.HiveServer2(HiveConf.v3_profile())


class TestSnapshotIsolation:
    def test_readers_see_consistent_counts(self, server):
        writer = server.connect()
        reader = server.connect()
        writer.execute("CREATE TABLE t (a INT)")
        writer.execute("INSERT INTO t VALUES (1), (2)")
        assert reader.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
        writer.execute("INSERT INTO t VALUES (3)")
        # a *new* query sees the new data (autocommit snapshots)
        reader.conf.results_cache_enabled = False
        assert reader.execute("SELECT COUNT(*) FROM t").rows == [(3,)]

    def test_update_then_read_other_session(self, server):
        a = server.connect()
        b = server.connect()
        a.execute("CREATE TABLE t (k INT, v STRING)")
        a.execute("INSERT INTO t VALUES (1, 'before')")
        a.execute("UPDATE t SET v = 'after' WHERE k = 1")
        assert b.execute("SELECT v FROM t").rows == [("after",)]

    def test_write_conflict_raises(self, server):
        """Two concurrent UPDATE transactions on one (unpartitioned)

        table: the second committer loses (first commit wins)."""
        session = server.connect()
        session.execute("CREATE TABLE t (k INT, v INT)")
        session.execute("INSERT INTO t VALUES (1, 0)")
        tm = server.hms.txn_manager
        table = server.hms.get_table("t")
        loser = tm.open_transaction()
        tm.record_write_set(loser, table.qualified_name, (), "update")
        # the SQL-level update opens, writes and commits in between
        session.execute("UPDATE t SET v = 1")
        with pytest.raises(WriteConflictError):
            tm.commit(loser)

    def test_aborted_write_invisible(self, server):
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1)")
        # simulate a writer that dies before commit
        from repro.acid.writer import AcidWriter
        from repro.common.vector import VectorBatch
        tm = server.hms.txn_manager
        table = server.hms.get_table("t")
        txn = tm.open_transaction()
        wid = tm.allocate_write_id(txn, table.qualified_name)
        AcidWriter(server.fs).write_insert_delta(
            table.location, wid,
            VectorBatch.from_rows(table.schema, [(999,)]))
        tm.abort(txn)
        session.conf.results_cache_enabled = False
        assert session.execute("SELECT COUNT(*) FROM t").rows == [(1,)]

    def test_compaction_transparent_to_queries(self, server):
        session = server.connect()
        session.conf.results_cache_enabled = False
        session.execute("CREATE TABLE t (a INT)")
        for i in range(12):
            session.execute(f"INSERT INTO t VALUES ({i})")
        session.execute("DELETE FROM t WHERE a % 3 = 0")
        before = session.execute("SELECT a FROM t ORDER BY a").rows
        assert server.run_compaction() >= 1
        after = session.execute("SELECT a FROM t ORDER BY a").rows
        assert before == after
        # compaction actually reduced the directory count
        table = server.hms.get_table("t")
        assert len(server.fs.list_dirs(table.location)) <= 2

    def test_multi_insert_visibility_is_atomic_per_statement(self, server):
        session = server.connect()
        session.conf.results_cache_enabled = False
        session.execute("CREATE TABLE p (v INT) PARTITIONED BY (ds INT)")
        # one INSERT spanning two partitions commits atomically: both
        # partitions carry the same WriteId
        session.execute("INSERT INTO p VALUES (1, 10), (2, 20)")
        table = server.hms.get_table("p")
        dirs = []
        for part in table.list_partitions():
            dirs.extend(d.rsplit("/", 1)[-1]
                        for d in server.fs.list_dirs(part.location))
        assert dirs == ["delta_1_1", "delta_1_1"]


class TestAcidAblationFlags:
    def test_non_acid_warehouse(self):
        server = repro.HiveServer2(HiveConf.legacy_profile())
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        assert not server.hms.get_table("t").is_acid
        session.execute("INSERT INTO t VALUES (1), (2)")
        assert session.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
