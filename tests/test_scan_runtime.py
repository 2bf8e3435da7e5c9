"""Scan executor runtime behaviour: partition handling, sargs, semijoin

filters, and IO attribution.
"""

import threading

import pytest

import repro
from repro.common.bloom import BloomFilter
from repro.config import HiveConf
from repro.plan import relnodes as rel
from repro.service import HiveService
from repro.runtime.scan import ScanMetrics, SemijoinFilter, _rex_to_sarg
from repro.plan.rexnodes import RexCall, RexInputRef, RexLiteral, make_call
from repro.common.types import DATE, INT, STRING
from repro.common.rows import Column, Schema
import datetime


@pytest.fixture
def session():
    server = repro.HiveServer2(HiveConf.v3_profile())
    s = server.connect()
    s.conf.results_cache_enabled = False
    s.execute("CREATE TABLE p (v INT, w STRING) PARTITIONED BY (ds INT)")
    rows = ", ".join(f"({i}, 'w{i}', {i % 5})" for i in range(100))
    s.execute(f"INSERT INTO p VALUES {rows}")
    return s


class TestPartitionedScans:
    def test_partition_values_materialize_as_columns(self, session):
        rows = session.execute(
            "SELECT ds, COUNT(*) FROM p GROUP BY ds ORDER BY ds").rows
        assert rows == [(d, 20) for d in range(5)]

    def test_static_pruning_reads_fewer_partitions(self, session):
        result = session.execute("SELECT COUNT(*) FROM p WHERE ds = 3")
        assert result.rows == [(20,)]
        scan = rel.find_scans(result.optimized.root)[0]
        assert scan.pruned_partitions == ((3,),)

    def test_pruning_reduces_io(self, session):
        session.server.llap_cache.clear()
        session.server.llap_factory._metadata.clear()
        full = session.execute("SELECT SUM(v) FROM p")
        session.server.llap_cache.clear()
        session.server.llap_factory._metadata.clear()
        pruned = session.execute("SELECT SUM(v) FROM p WHERE ds = 0")
        assert pruned.metrics.disk_bytes < full.metrics.disk_bytes

    def test_filter_on_partition_and_data_column(self, session):
        rows = session.execute(
            "SELECT v FROM p WHERE ds = 1 AND v < 10 ORDER BY v").rows
        assert rows == [(1,), (6,)]

    def test_empty_partition_set(self, session):
        assert session.execute(
            "SELECT COUNT(*) FROM p WHERE ds = 99").rows == [(0,)]


class TestSargConversion:
    SCHEMA = Schema([Column("a", INT), Column("b", STRING),
                     Column("d", DATE)])

    def test_comparison_forms(self):
        sarg = _rex_to_sarg(make_call(">", RexInputRef(0, INT),
                                      RexLiteral(5, INT)), self.SCHEMA)
        assert (sarg.column, sarg.op, sarg.value) == ("a", ">", 5)
        flipped = _rex_to_sarg(make_call("<", RexLiteral(5, INT),
                                         RexInputRef(0, INT)), self.SCHEMA)
        assert (flipped.column, flipped.op) == ("a", ">")

    def test_date_literal_converted_to_storage(self):
        day = datetime.date(2020, 1, 10)
        sarg = _rex_to_sarg(
            make_call("=", RexInputRef(2, DATE),
                      RexLiteral(day, DATE)), self.SCHEMA)
        assert sarg.value == DATE.to_storage(day)

    def test_in_list(self):
        sarg = _rex_to_sarg(
            make_call("IN", RexInputRef(1, STRING),
                      RexLiteral("x", STRING), RexLiteral("y", STRING)),
            self.SCHEMA)
        assert sarg.op == "in" and sarg.value == ("x", "y")

    def test_null_literal_not_sargable(self):
        assert _rex_to_sarg(
            make_call("=", RexInputRef(0, INT), RexLiteral(None, INT)),
            self.SCHEMA) is None

    def test_non_ref_not_sargable(self):
        expr = make_call("=", RexCall("+", (RexInputRef(0, INT),
                                            RexLiteral(1, INT)), INT),
                         RexLiteral(5, INT))
        assert _rex_to_sarg(expr, self.SCHEMA) is None


class TestSemijoinFilter:
    def test_from_vector(self):
        from repro.common.vector import ColumnVector
        vector = ColumnVector.from_values(INT, [5, 1, 9, None, 5])
        sj = SemijoinFilter.from_vector("k", vector, 0.05)
        assert (sj.min_value, sj.max_value) == (1, 9)
        assert sj.build_rows == 3
        assert sj.bloom.might_contain(5)
        assert sj.bloom.might_contain(9)

    def test_nan_build_key_stays_out_of_bounds_and_bloom(self):
        # NaN never equi-joins; as a bound it would make the range test
        # reject every probe row
        from repro.common.types import DOUBLE
        from repro.common.vector import ColumnVector
        nan = float("nan")
        for keys in ([nan, 3.0, 1.0], [3.0, nan, 1.0], [3.0, 1.0, nan]):
            sj = SemijoinFilter.from_vector(
                "k", ColumnVector.from_values(DOUBLE, keys), 0.05)
            assert (sj.min_value, sj.max_value) == (1.0, 3.0)
            assert sj.build_rows == 2
            assert not sj.bloom.might_contain(nan)
            probe = ColumnVector.from_values(DOUBLE, [1.0, nan, 3.0, None])
            assert sj.might_match(probe).tolist() == [
                True, False, True, False]

    def test_all_nan_or_all_null_build_side_is_empty(self):
        from repro.common.types import DOUBLE
        from repro.common.vector import ColumnVector
        probe = ColumnVector.from_values(DOUBLE, [1.0, None])
        for keys in ([], [None, None], [float("nan")] * 3):
            sj = SemijoinFilter.from_vector(
                "k", ColumnVector.from_values(DOUBLE, keys), 0.05)
            assert (sj.min_value, sj.max_value) == (None, None)
            assert sj.build_rows == 0
            assert not sj.might_match(probe).any()

    def test_negative_zero_probes_equal_to_zero(self):
        from repro.common.types import DOUBLE
        from repro.common.vector import ColumnVector
        sj = SemijoinFilter.from_vector(
            "k", ColumnVector.from_values(DOUBLE, [-0.0]), 0.05)
        probe = ColumnVector.from_values(DOUBLE, [0.0, -0.0])
        assert sj.might_match(probe).all()

    def test_probe_is_brought_to_the_build_sides_kind(self):
        from repro.common.types import BOOLEAN, DOUBLE
        from repro.common.vector import ColumnVector
        ints = SemijoinFilter.from_vector(
            "k", ColumnVector.from_values(INT, [1, 7]), 0.0001)
        assert ints.might_match(ColumnVector.from_values(
            DOUBLE, [7.0, 7.5, 1.0, 3.0, None])).tolist() == [
                True, False, True, False, False]
        assert ints.might_match(ColumnVector.from_values(
            BOOLEAN, [True, False])).tolist() == [True, False]
        doubles = SemijoinFilter.from_vector(
            "k", ColumnVector.from_values(DOUBLE, [1.0, 7.0, 2.5]), 0.0001)
        assert doubles.might_match(ColumnVector.from_values(
            INT, [7, 2, 1, None])).tolist() == [True, False, True, False]
        # strings and numbers never join
        assert not ints.might_match(ColumnVector.from_values(
            STRING, ["1", "7"])).any()

    @pytest.mark.parametrize("fact_type, dim_type, dim_key", [
        ("INT", "DOUBLE", "{i}.0"), ("DOUBLE", "INT", "{i}"),
        ("INT", "INT", "{i}"), ("DOUBLE", "DOUBLE", "{i}.0")])
    def test_mixed_type_keys_join_the_same_with_reduction_on_and_off(
            self, fact_type, dim_type, dim_key):
        # the Bloom hashes repr: 7 and 7.0 join, but print differently
        s = repro.HiveServer2(HiveConf.v3_profile()).connect()
        s.conf.results_cache_enabled = False
        s.execute(f"CREATE TABLE fact (k {fact_type}, v INT)")
        s.execute(f"CREATE TABLE dim (d {dim_type}, name STRING)")
        s.execute("INSERT INTO fact VALUES " + ", ".join(
            f"({i % 50}, {i})" for i in range(5000)))
        s.execute("INSERT INTO dim VALUES " + ", ".join(
            f"({dim_key.format(i=i)}, 'n{i}')" for i in range(50)))
        # a fractional fact key can equal no dimension key of either type
        s.execute("INSERT INTO fact VALUES (7.5, -1)"
                  if fact_type == "DOUBLE" else
                  "INSERT INTO dim VALUES (7.5, 'n7')"
                  if dim_type == "DOUBLE" else
                  "INSERT INTO fact VALUES (NULL, -1)")
        query = ("SELECT COUNT(*), SUM(v) FROM fact JOIN dim ON k = d "
                 "WHERE name = 'n7'")
        counts = {}
        for setting in ("true", "false"):
            s.execute(f"SET hive.optimize.semijoin.reduction={setting}")
            result = s.execute(query)
            counts[setting] = result.rows
            assert bool(result.optimized.semijoin_reducers) == (
                setting == "true")
        assert counts["true"] == counts["false"]
        assert counts["true"][0][0] == 100

    def test_empty_build_side_filters_everything(self, session):
        # a dimension filter matching nothing: the fact scan must return
        # zero rows without error
        session.execute("CREATE TABLE d (ds INT, tag STRING)")
        session.execute("INSERT INTO d VALUES (1, 'only')")
        result = session.execute(
            "SELECT COUNT(*) FROM p, d WHERE p.ds = d.ds "
            "AND d.tag = 'no-such-tag'")
        assert result.rows == [(0,)]

    def test_metrics_report_filtered_rows(self, session):
        session.execute("CREATE TABLE dim2 (ds INT, keep STRING)")
        session.execute("INSERT INTO dim2 VALUES (2, 'y')")
        result = session.execute(
            "SELECT COUNT(*) FROM p, dim2 WHERE p.ds = dim2.ds "
            "AND keep = 'y'")
        assert result.rows == [(20,)]
        assert result.optimized.semijoin_reducers


class TestScanMetrics:
    def test_merge(self):
        a = ScanMetrics(rows=10, disk_bytes=100, cache_bytes=5,
                        files_opened=2)
        b = ScanMetrics(rows=4, disk_bytes=50, cache_bytes=0,
                        files_opened=1, external_time_s=0.5)
        a.merge(b)
        assert a.rows == 14 and a.disk_bytes == 150
        assert a.files_opened == 3 and a.external_time_s == 0.5

    def test_cache_attribution_llap_vs_direct(self, session):
        server = session.server
        server.llap_cache.clear()
        server.llap_factory._metadata.clear()
        cold = session.execute("SELECT SUM(v) FROM p")
        warm = session.execute("SELECT SUM(v) FROM p")
        assert cold.metrics.disk_bytes > 0
        assert warm.metrics.cache_bytes > 0
        assert warm.metrics.disk_bytes == 0
        # container mode attributes everything to disk, every time
        session.conf.llap_enabled = False
        session.conf.llap_cache_enabled = False
        direct = session.execute("SELECT SUM(v) FROM p")
        assert direct.metrics.cache_bytes == 0
        assert direct.metrics.disk_bytes > 0

    @pytest.mark.parametrize("llap", [True, False], ids=["llap", "direct"])
    def test_text_table_is_charged_every_byte_it_reads(self, session, llap):
        """No indexes, no cache: a text scan costs its files' lengths
        from disk on every run — the contrast with ORC ([39])."""
        session.conf.llap_enabled = session.conf.llap_cache_enabled = llap
        session.execute(
            "CREATE TABLE x (a INT, b STRING) STORED AS TEXTFILE")
        rows = ", ".join(f"({i}, 'b{i}')" for i in range(500))
        session.execute(f"INSERT INTO x VALUES {rows}")
        files = session.fs.list_files(
            session.hms.get_table("x").location, recursive=True)
        for _ in range(2):
            result = session.execute("SELECT COUNT(*), MAX(b) FROM x")
            assert result.rows == [(500, "b99")]
            assert result.metrics.disk_bytes == sum(
                f.length for f in files) > 0
            assert result.metrics.cache_bytes == 0
            assert result.metrics.io_s > 0
            scan, = [run.scan for vm in result.metrics.vertices
                     for run in vm.operators if run.scan is not None]
            assert scan.files_opened == len(files)
        series = dict(session.execute(
            "SELECT labels, value FROM sys.metrics "
            "WHERE name = 'scan.disk_bytes'").rows)
        assert series["table=default.x"] == 2 * result.metrics.disk_bytes


class TestConcurrentAttribution:
    """A statement is charged its own bytes when another runs beside it:
    the readers charge the ledger of the read that asked, never a
    counter the other caller can move."""

    SQL = "SELECT ds, COUNT(*), SUM(v) FROM r GROUP BY ds"

    @staticmethod
    def load(session):
        session.execute(
            "CREATE TABLE r (v INT, w STRING) PARTITIONED BY (ds INT)")
        rows = ", ".join(f"({i}, 'w{i}', {i % 30})" for i in range(600))
        session.execute(f"INSERT INTO r VALUES {rows}")

    @staticmethod
    def race(workers):
        threads = [threading.Thread(target=w) for w in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_two_sessions_one_server(self, switch_interval):
        server = repro.HiveServer2(HiveConf.v3_profile())
        sessions = [server.connect(), server.connect()]
        for s in sessions:
            s.conf.results_cache_enabled = False
        self.load(sessions[0])

        def charge(session):
            m = session.execute(self.SQL).metrics
            return m.disk_bytes, m.cache_bytes, m.total_s

        for s in sessions:
            charge(s)                               # warm cache and plans
        alone = charge(sessions[0])
        assert alone[0] == 0 and alone[1] > 0
        seen = [[], []]
        switch_interval(5e-4)
        self.race([lambda i=i: seen[i].extend(
            charge(sessions[i]) for _ in range(150)) for i in range(2)])
        assert set(seen[0] + seen[1]) == {alone}

    def test_two_tenants_through_the_service(self, switch_interval):
        service = HiveService(conf=HiveConf.v3_profile())
        try:
            self.load(service.server.connect())
            handles = []
            for tenant in ("alice", "bob"):
                service.register_tenant(tenant)
                handle = service.open_session(token=tenant)
                handle.driver.conf.results_cache_enabled = False
                service.execute(handle.session_id, self.SQL)    # warm
                handles.append(handle)

            def run(handle):
                for _ in range(150):
                    op = service.submit(handle.session_id, self.SQL)
                    assert op.done.wait(30) and op.state == "finished"

            run_alone = service.execute(handles[0].session_id, self.SQL)
            log = service.server.obs.query_log
            alone = log.last()
            assert alone.query_id == run_alone.query_id
            m = alone.metrics
            assert m.disk_bytes == 0 and m.cache_bytes > 0
            switch_interval(5e-4)
            self.race([lambda h=h: run(h) for h in handles])
            raced = [e for e in log.entries()
                     if e.query_id > alone.query_id]
            assert len(raced) == 300
            assert {(e.metrics.disk_bytes, e.metrics.cache_bytes,
                     e.total_s) for e in raced} == {
                (m.disk_bytes, m.cache_bytes, m.total_s)}
        finally:
            service.shutdown()
