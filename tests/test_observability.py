"""The repro.obs subsystem: metrics registry, tracing, query log,

EXPLAIN ANALYZE, and the SQL-queryable ``sys`` catalog."""

import json
import threading

import pytest

import repro
from repro.config import HiveConf
from repro.errors import HiveError, WorkloadManagementError
from repro.llap.workload import (Pool, QueryAdmission, ResourcePlan,
                                 Trigger, TriggerAction, WorkloadManager)
from repro.obs import MetricsRegistry, Observability, QueryTrace
from repro.obs.export import BenchObsCollector


# --------------------------------------------------------------------------- #
# metrics registry

class TestMetricsRegistry:
    def test_counter_labels_and_total(self):
        reg = MetricsRegistry()
        reg.counter("scan.rows", table="t").inc(10)
        reg.counter("scan.rows", table="t").inc(5)
        reg.counter("scan.rows", table="u").inc(3)
        assert reg.value("scan.rows", table="t") == 15
        assert reg.total("scan.rows") == 18
        assert reg.total("scan.rows", table="u") == 3

    def test_counter_is_monotonic(self):
        reg = MetricsRegistry()
        with pytest.raises(HiveError):
            reg.counter("c").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(7)
        reg.gauge("g").inc(-2)
        assert reg.value("g") == 5

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in [0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002,
                  0.002, 0.002, 10.0]:
            h.observe(v)
        assert h.count == 10
        assert h.mean == pytest.approx(1.0018, rel=1e-3)
        assert h.percentile(50) < h.percentile(95)
        assert h.min == 0.002 and h.max == 10.0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(HiveError):
            reg.gauge("m")

    def test_missing_series_is_none(self):
        reg = MetricsRegistry()
        assert reg.value("nope") is None

    def test_callback_gauge_reads_live_value(self):
        reg = MetricsRegistry()
        state = {"n": 1}
        reg.register_callback("live", lambda: state["n"], part="x")
        assert reg.value("live", part="x") == 1
        state["n"] = 42
        assert reg.value("live", part="x") == 42

    @pytest.mark.parametrize("read", ["value", "total"])
    def test_callbacks_run_outside_the_registry_lock(self, read):
        """A callback takes its owner's lock, and owners reach the
        registry while holding it (QueryStore._lock ->
        MetricsRegistry._lock): reading the gauge under the registry
        lock would be the inverted order."""
        reg = MetricsRegistry()
        owner = threading.Lock()
        in_callback = threading.Event()

        def callback():
            in_callback.set()
            with owner:
                return 1.0

        def owner_thread():
            with owner:
                holding.set()
                in_callback.wait(timeout=10)
                reg.counter("owner.events").inc()

        reg.register_callback("live", callback)
        holding = threading.Event()
        seen = []
        threads = [
            threading.Thread(target=owner_thread, daemon=True),
            threading.Thread(
                target=lambda: seen.append(getattr(reg, read)("live")),
                daemon=True)]
        threads[0].start()
        assert holding.wait(timeout=10)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1.0]

    def test_drop_removes_one_series(self):
        reg = MetricsRegistry()
        reg.gauge("wm.query.rt", query="1").set(5)
        reg.gauge("wm.query.rt", query="2").set(6)
        reg.drop("wm.query.rt", query="1")
        assert reg.value("wm.query.rt", query="1") is None
        assert reg.value("wm.query.rt", query="2") == 6

    def test_snapshot_and_json(self):
        reg = MetricsRegistry()
        reg.counter("c", a="1").inc(2)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["c"][0]["value"] == 2
        assert snap["c"][0]["labels"] == {"a": "1"}
        assert snap["h"][0]["count"] == 1
        json.loads(reg.to_json())  # round-trips


# --------------------------------------------------------------------------- #
# tracing

class TestQueryTrace:
    def test_nested_spans(self):
        trace = QueryTrace(1, "SELECT 1")
        with trace.span("parse"):
            pass
        with trace.span("execute") as ex:
            trace.add("scan t", virtual_s=0.5, rows=10)
            ex.virtual_s = 2.0
        trace.finish()
        assert trace.find("parse") is not None
        scan = trace.find("scan t")
        assert scan.virtual_s == 0.5 and scan.attrs["rows"] == 10
        assert scan in trace.find("execute").children
        assert trace.root.wall_s > 0
        assert "scan t" in trace.render()

    def test_to_dict_shape(self):
        trace = QueryTrace(3, "Q")
        with trace.span("a"):
            pass
        d = trace.to_dict()
        assert d["query_id"] == 3
        assert d["root"]["children"][0]["name"] == "a"


# --------------------------------------------------------------------------- #
# the full stack: query log, sys tables, EXPLAIN ANALYZE

class TestQueryLogEndToEnd:
    def test_one_row_per_executed_query(self, loaded_session):
        session = loaded_session
        before = len(session.server.obs.query_log)
        session.execute("SELECT COUNT(*) FROM t")
        session.execute("SELECT a FROM t WHERE a > 2")
        result = session.execute("SELECT * FROM sys.query_log")
        # every statement so far is logged, except the sys query itself
        # (its entry lands after its own scan)
        assert len(result.rows) == before + 2
        names = result.column_names
        by_name = [dict(zip(names, row)) for row in result.rows]
        last = by_name[-1]
        assert last["statement"] == "SELECT a FROM t WHERE a > 2"
        assert last["operation"] == "select"
        assert last["status"] == "ok"
        assert last["rows_produced"] == 3
        assert last["total_s"] > 0

    def test_failed_statement_logged_with_error(self, session):
        with pytest.raises(HiveError):
            session.execute("SELECT * FROM missing_table")
        entry = session.server.obs.query_log.last()
        assert entry.status == "error"
        assert "missing_table" in entry.error
        rows = session.execute(
            "SELECT status, COUNT(*) FROM sys.query_log "
            "GROUP BY status").rows
        assert ("error", 1) in rows

    @pytest.mark.parametrize("operation, ok, failing", [
        ("select", "SELECT a FROM t", "SELECT a FROM missing_table"),
        ("drop_table", "DROP TABLE u", "DROP TABLE missing_table"),
        ("set", "SET hive.cbo.enable=false", "SET no.such.key=1"),
        ("insert", "INSERT INTO u VALUES (7, 70, 'ux7')",
         "INSERT INTO u VALUES (7)")])
    def test_one_operation_name_per_statement_kind(
            self, loaded_session, operation, ok, failing):
        # a failed statement used to be labelled with its AST class
        # name (selectstatement, droptable, setconfig)
        session = loaded_session
        audit_before = len(session.server.obs.audit_log)
        assert session.execute(ok).operation == operation
        with pytest.raises(HiveError):
            session.execute(failing)
        logged = session.execute(
            "SELECT statement, operation, status FROM sys.query_log").rows
        assert [row[1:] for row in logged if row[0] in (ok, failing)] == [
            (operation, "ok"), (operation, "error")]
        audited = session.server.obs.audit_log.entries()[audit_before:]
        assert [(r.operation, r.status) for r in audited[:2]] == [
            (operation, "ok"), (operation, "error")]
        reg = session.server.obs.registry
        for status in ("ok", "error"):
            assert reg.value("queries.total", operation=operation,
                             status=status) >= 1

    def test_cache_hit_flagged(self, loaded_session):
        loaded_session.execute("SELECT COUNT(*) FROM t")
        loaded_session.execute("SELECT COUNT(*) FROM t")
        entry = loaded_session.server.obs.query_log.last()
        assert entry.from_cache
        reg = loaded_session.server.obs.registry
        assert reg.value("queries.results_cache_hits") == 1

    def test_result_carries_query_id_and_trace(self, loaded_session):
        result = loaded_session.execute("SELECT a FROM t")
        assert result.query_id > 0
        trace = result.trace
        for name in ("parse", "analyze", "optimize", "execute"):
            assert trace.find(name) is not None, name
        scan = trace.find("scan default.t")
        assert scan is not None
        assert scan.attrs["rows"] == 5
        assert trace.find("execute").virtual_s == pytest.approx(
            result.metrics.total_s)


class TestSysTables:
    def test_sys_database_is_lazy(self, session):
        assert "sys" not in session.hms.list_databases()
        session.execute("SELECT * FROM sys.query_log")
        assert "sys" in session.hms.list_databases()

    def test_cache_stats_components(self, loaded_session):
        loaded_session.execute("SELECT SUM(a) FROM t")
        rows = loaded_session.execute(
            "SELECT component, metric, value FROM sys.cache_stats").rows
        components = {r[0] for r in rows}
        assert components == {"llap", "results", "plan"}
        metrics = {r[1] for r in rows if r[0] == "llap"}
        assert {"hits", "misses", "evictions"} <= metrics

    def test_metrics_table_reflects_registry(self, loaded_session):
        loaded_session.execute("SELECT * FROM t")
        rows = loaded_session.execute(
            "SELECT name, labels, value FROM sys.metrics "
            "WHERE name = 'scan.rows'").rows
        assert rows and rows[0][1] == "table=default.t"
        assert rows[0][2] == 5.0

    def test_pools_table(self):
        server = repro.HiveServer2(HiveConf.v3_profile())
        session = server.connect()
        for sql in [
            "CREATE RESOURCE PLAN daytime",
            "CREATE POOL daytime.bi WITH alloc_fraction=0.8, "
            "query_parallelism=5",
            "CREATE POOL daytime.etl WITH alloc_fraction=0.2, "
            "query_parallelism=20",
            "ALTER PLAN daytime SET DEFAULT POOL = etl",
            "ALTER RESOURCE PLAN daytime ENABLE ACTIVATE",
        ]:
            session.execute(sql)
        result = session.execute("SELECT * FROM sys.pools")
        pools = {row[result.column_names.index("pool")]:
                 dict(zip(result.column_names, row)) for row in result.rows}
        assert pools["bi"]["alloc_fraction"] == 0.8
        assert pools["bi"]["is_default"] is False
        assert pools["etl"]["alloc_fraction"] == 0.2
        assert pools["etl"]["is_default"] is True

    def test_compactions_table(self, session):
        session.execute("CREATE TABLE acid_t (a INT)")
        for i in range(12):
            session.execute(f"INSERT INTO acid_t VALUES ({i})")
        session.server.run_compaction()
        rows = session.execute(
            "SELECT table_name, type, state, merged_rows "
            "FROM sys.compactions").rows
        assert rows
        assert rows[0][0] == "default.acid_t"
        assert rows[0][3] > 0    # the worker reported what it merged

    def test_sys_queries_not_results_cached(self, session):
        session.execute("SELECT COUNT(*) FROM sys.query_log")
        again = session.execute("SELECT COUNT(*) FROM sys.query_log")
        assert not again.from_cache
        # and the counts differ: each run logs the previous statement
        assert again.rows[0][0] > 0

    def test_sys_tables_read_only(self, session):
        session.execute("SELECT * FROM sys.query_log")
        with pytest.raises(HiveError):
            session.execute("INSERT INTO sys.query_log VALUES (1)")


class TestExplainAnalyze:
    def test_annotated_plan(self, loaded_session):
        result = loaded_session.execute(
            "EXPLAIN ANALYZE SELECT b, COUNT(*) FROM t "
            "WHERE a > 1 GROUP BY b")
        assert result.operation == "explain_analyze"
        text = "\n".join(r[0] for r in result.rows)
        # per-operator row counts on the actual executed plan
        assert "rows=" in text
        assert "TableScan" in text
        # the virtual-time and io breakdowns
        assert "-- time: total=" in text
        assert "-- io: disk=" in text
        assert "-- vertex" in text
        # the query really ran: its metrics came back too
        assert result.metrics is not None and result.metrics.total_s > 0

    def test_scan_annotations_show_pruning(self, session):
        session.execute("CREATE TABLE p (a INT, v STRING) "
                        "PARTITIONED BY (d STRING)")
        session.execute(
            "INSERT INTO p PARTITION (d='x') VALUES (1, 'a'), (2, 'b')")
        session.execute(
            "INSERT INTO p PARTITION (d='y') VALUES (3, 'c')")
        result = session.execute(
            "EXPLAIN ANALYZE SELECT * FROM p WHERE d = 'x'")
        text = "\n".join(r[0] for r in result.rows)
        assert "partitions=1/2" in text

    def test_plain_explain_does_not_execute(self, loaded_session):
        before = len(loaded_session.server.obs.query_log)
        result = loaded_session.execute("EXPLAIN SELECT * FROM t")
        assert result.operation == "explain"
        text = "\n".join(r[0] for r in result.rows)
        assert "rows=" not in text       # nothing ran, nothing measured
        assert len(loaded_session.server.obs.query_log) == before + 1

    def test_explain_analyze_unparse_roundtrip(self, conf):
        from repro.sql.parser import parse_statement
        stmt = parse_statement("EXPLAIN ANALYZE SELECT 1", conf)
        assert stmt.analyze
        assert stmt.unparse().startswith("EXPLAIN ANALYZE")
        # ANALYZE TABLE is still its own statement
        table_stmt = parse_statement("EXPLAIN ANALYZE TABLE t "
                                     "COMPUTE STATISTICS", conf)
        assert not table_stmt.analyze


# --------------------------------------------------------------------------- #
# workload-manager triggers read from the registry

class TestTriggersViaRegistry:
    def make_wm(self, registry, action=TriggerAction.MOVE):
        plan = ResourcePlan("daytime")
        plan.add_pool(Pool("bi", 0.8, 5))
        plan.add_pool(Pool("etl", 0.2, 20))
        plan.default_pool = "etl"
        plan.enabled = True
        plan.pools["bi"].triggers.append(
            Trigger("downgrade", "total_runtime", 3.0, action, "etl"))
        return WorkloadManager(plan, registry=registry)

    def test_move_via_registry(self):
        reg = MetricsRegistry()
        wm = self.make_wm(reg)
        reg.gauge("wm.query.total_runtime", query="7").set(5.0)
        admission = QueryAdmission(pool="bi", capacity_fraction=0.8)
        wm.check_triggers_from_registry(reg, admission, 7)
        assert admission.moved_to == "etl"
        assert reg.value("wm.trigger.moves", pool="bi") == 1

    def test_missing_series_means_no_fire(self):
        reg = MetricsRegistry()
        wm = self.make_wm(reg)
        admission = QueryAdmission(pool="bi", capacity_fraction=0.8)
        wm.check_triggers_from_registry(reg, admission, 99)
        assert admission.moved_to is None

    def test_kill_via_registry_counted(self):
        reg = MetricsRegistry()
        wm = self.make_wm(reg, TriggerAction.KILL)
        reg.gauge("wm.query.total_runtime", query="7").set(9.0)
        admission = QueryAdmission(pool="bi", capacity_fraction=0.8)
        with pytest.raises(WorkloadManagementError):
            wm.check_triggers_from_registry(reg, admission, 7)
        assert reg.value("wm.trigger.kills", pool="bi") == 1

    def test_end_to_end_scratch_series_dropped(self):
        """The runner publishes wm.query.* gauges, the WM reads them from

        the registry, and the scratch series are dropped afterwards."""
        server = repro.HiveServer2(HiveConf.v3_profile())
        session = server.connect(application="slowapp")
        for sql in [
            "CREATE RESOURCE PLAN prod",
            "CREATE POOL prod.fast WITH alloc_fraction=0.9, "
            "query_parallelism=4",
            "CREATE POOL prod.slow WITH alloc_fraction=0.1, "
            "query_parallelism=4",
            "CREATE RULE demote IN prod WHEN total_runtime > 0 "
            "THEN MOVE slow",
            "ADD RULE demote TO fast",
            "CREATE APPLICATION MAPPING slowapp IN prod TO fast",
            "ALTER RESOURCE PLAN prod ENABLE ACTIVATE",
        ]:
            session.execute(sql)
        session.execute("CREATE TABLE w (x INT)")
        session.execute("INSERT INTO w VALUES (1)")
        result = session.execute("SELECT COUNT(*) FROM w")
        assert result.metrics.moved_to_pool == "slow"
        reg = server.obs.registry
        assert reg.value("wm.trigger.moves", pool="fast") == 1
        # per-query scratch gauges must not accumulate
        assert reg.total("wm.query.total_runtime") == 0
        assert reg.total("wm.query.rows_produced") == 0


# --------------------------------------------------------------------------- #
# absorption of the pre-existing stats fragments + runtime counters

class TestRegistryAbsorption:
    def test_llap_cache_stats_mirrored(self, conf):
        conf.llap_cache_capacity_bytes = 1 << 20
        server = repro.HiveServer2(conf)
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("SET hive.query.results.cache.enabled=false")
        session.execute("SELECT * FROM t")
        session.execute("SELECT * FROM t")
        reg = server.obs.registry
        assert reg.value("cache.hits", component="llap") == \
            server.llap_cache.stats.hits
        assert reg.value("cache.used_bytes", component="llap") == \
            server.llap_cache.used_bytes

    def test_runtime_counters_published(self, loaded_session):
        loaded_session.execute("SELECT * FROM t")
        reg = loaded_session.server.obs.registry
        assert reg.value("runtime.queries") >= 1
        assert reg.value("runtime.rows_produced") >= 5
        assert reg.value("scan.rows", table="default.t") == 5

    def test_query_latency_histogram(self, loaded_session):
        loaded_session.execute("SELECT COUNT(*) FROM t")
        reg = loaded_session.server.obs.registry
        hist = reg.histogram("query.latency_s", pool="unmanaged")
        assert hist.count >= 1
        assert hist.sum > 0

    def test_federation_counters(self, conf):
        from repro.federation.jdbc import JdbcStorageHandler
        server = repro.HiveServer2(conf)
        server.register_storage_handler("jdbc", JdbcStorageHandler())
        session = server.connect()
        session.execute(
            "CREATE EXTERNAL TABLE j (a INT, b STRING) STORED BY "
            "'org.apache.hive.storage.jdbc.JdbcStorageHandler'")
        session.execute("INSERT INTO j VALUES (1, 'x'), (2, 'y')")
        session.execute("SELECT * FROM j")
        reg = server.obs.registry
        assert reg.total("federation.calls", engine="jdbc") >= 1
        assert reg.total("federation.rows", engine="jdbc") >= 2

    def test_snapshot_export(self, loaded_session):
        loaded_session.execute("SELECT * FROM t")
        payload = json.loads(loaded_session.server.obs.to_json())
        assert payload["queries"]["logged"] >= 1
        assert "scan.rows" in payload["metrics"]


# --------------------------------------------------------------------------- #
# bench export

class TestBenchObsExport:
    def test_collector_summary_and_write(self, tmp_path):
        collector = BenchObsCollector()
        collector.record("warm", "q1", seconds=1.5, rows=10,
                         breakdown={"io_s": 0.5})
        collector.record("warm", "q2", seconds=None, error="Boom")
        out = tmp_path / "BENCH_obs.json"
        payload = collector.write(str(out))
        assert payload["summary"]["warm"]["queries"] == 2
        assert payload["summary"]["warm"]["failed"] == 1
        assert payload["summary"]["warm"]["total_s"] == 1.5
        reread = json.loads(out.read_text())
        assert reread["records"][0]["breakdown"]["io_s"] == 0.5

    def test_harness_feeds_collector(self, loaded_session):
        from repro.bench.harness import run_query_set
        from repro.obs.export import BENCH_COLLECTOR
        BENCH_COLLECTOR.clear()
        run = run_query_set(loaded_session,
                            [("q1", "SELECT COUNT(*) FROM t"),
                             ("bad", "SELECT * FROM nope")],
                            label="smoke", warm_runs=0)
        records = BENCH_COLLECTOR.records()
        BENCH_COLLECTOR.clear()
        assert len(records) == 2
        ok = next(r for r in records if r["query"] == "q1")
        assert ok["seconds"] == run.timing("q1").seconds
        assert ok["breakdown"]["rows_produced"] == 1
        bad = next(r for r in records if r["query"] == "bad")
        assert bad["seconds"] is None and bad["error"]


# --------------------------------------------------------------------------- #
# Chrome trace-event export (chrome://tracing / Perfetto)

class TestChromeTrace:
    def test_empty_export(self):
        doc = json.loads(Observability().to_chrome_trace())
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_events_cover_pipeline_spans(self, loaded_session):
        loaded_session.execute("SELECT a FROM t WHERE a > 1")
        doc = json.loads(loaded_session.server.obs.to_chrome_trace())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"query", "parse", "optimize", "execute"} <= names
        assert any(n.startswith("optimize.") for n in names)
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "virtual_ms" in event["args"]

    def test_one_track_per_query_with_metadata(self, loaded_session):
        loaded_session.execute("SELECT count(*) FROM t")
        loaded_session.execute("SELECT count(*) FROM u")
        doc = json.loads(loaded_session.server.obs.to_chrome_trace())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        tids = {e["tid"] for e in meta}
        assert len(meta) >= 2 and len(tids) == len(meta)
        for event in meta:
            assert event["args"]["name"].startswith("query ")

    def test_child_spans_start_within_parent(self, loaded_session):
        loaded_session.execute("SELECT a FROM t")
        trace = loaded_session.server.obs.traces[-1]
        optimize = trace.find("optimize")
        for child in optimize.children:
            assert child.start_s >= optimize.start_s

    def test_span_start_offsets_recorded(self):
        trace = QueryTrace(1, "SELECT 1")
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        leaf = trace.add("leaf")
        outer, inner = trace.root.children[0], \
            trace.root.children[0].children[0]
        assert inner.start_s >= outer.start_s
        assert leaf.start_s >= inner.start_s


# --------------------------------------------------------------------------- #
# concurrency regressions: these mutations raced before they were moved
# under Observability._lock (found by reprolint RL001)

class TestObservabilityThreadSafety:
    def test_concurrent_bind_cache_registers_everything(self):
        import threading

        class Stats:
            hits = 0

        obs = Observability()
        barrier = threading.Barrier(8)

        def bind(i):
            barrier.wait()
            obs.bind_cache(f"component-{i}", Stats())

        threads = [threading.Thread(target=bind, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(obs.cache_components()) == 8

    def test_concurrent_start_trace_unique_ids(self):
        import threading

        obs = Observability(trace_capacity=512)
        barrier = threading.Barrier(8)
        ids = []
        ids_lock = threading.Lock()

        def go():
            barrier.wait()
            for _ in range(25):
                trace = obs.start_trace("SELECT 1")
                with ids_lock:
                    ids.append(trace.query_id)

        threads = [threading.Thread(target=go) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(ids) == len(set(ids)) == 200
        assert len(obs.traces) == 200
