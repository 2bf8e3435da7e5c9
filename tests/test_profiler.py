"""Sub-query profiling pipeline: per-vertex/per-operator profiles, skew
and straggler analysis, percentile WM triggers, query-log retention, and
the ``sys.vertex_log``/``sys.operator_log``/``sys.wm_events`` tables.
"""

import json

import pytest

from repro.config import HiveConf
from repro.errors import ConfigError, ParseError
from repro.llap.workload import (Pool, QueryAdmission, ResourcePlan,
                                 Trigger, TriggerAction, WmEventLog,
                                 WorkloadManager)
from repro.obs import MetricsRegistry
from repro.obs.query_log import RingLog, StatementRecord
from repro.obs.report import (perf_gate, render_bench_report,
                              update_experiments)
from repro.runtime.tez import QueryMetrics, VertexMetrics
from repro.server.driver import HiveServer2


def make_server(data_scale=1.0, **conf_overrides):
    conf = HiveConf.v3_profile()
    for key, value in conf_overrides.items():
        setattr(conf, key, value)
    conf.cost.data_scale = data_scale
    return HiveServer2(conf)


def load_skewed_join(session, hot_rows=400, cold_rows=100, keys=20):
    """A fact/dim pair where join key 0 dominates the fact side."""
    session.execute("CREATE TABLE dim (k INT, name STRING)")
    session.execute("CREATE TABLE fact (k INT, v INT)")
    session.execute("INSERT INTO dim VALUES " + ", ".join(
        f"({i}, 'n{i}')" for i in range(keys)))
    values = [f"(0, {i})" for i in range(hot_rows)]
    values += [f"({1 + i % (keys - 1)}, {i})" for i in range(cold_rows)]
    session.execute("INSERT INTO fact VALUES " + ", ".join(values))


SKEWED_JOIN_SQL = ("SELECT d.name, COUNT(*) FROM fact f "
                   "JOIN dim d ON f.k = d.k GROUP BY d.name")


# --------------------------------------------------------------------------- #
# vertex profiling: task distributions, skew, stragglers

class TestVertexProfiling:
    def test_skewed_join_has_skew_factor_over_two(self):
        server = make_server(data_scale=2000.0)
        session = server.connect()
        load_skewed_join(session)
        result = session.execute(SKEWED_JOIN_SQL)
        reducers = [vm for vm in result.metrics.vertices
                    if vm.name.startswith("Reducer") and vm.tasks > 1]
        assert reducers, "expected multi-task reducers at this scale"
        assert any(vm.skew_factor > 2.0 for vm in reducers)
        assert any(vm.straggler for vm in reducers)

    def test_task_durations_match_task_count(self):
        server = make_server(data_scale=2000.0)
        session = server.connect()
        load_skewed_join(session)
        result = session.execute(SKEWED_JOIN_SQL)
        for vm in result.metrics.vertices:
            assert len(vm.task_durations) == vm.tasks
            assert vm.max_task_s >= vm.median_task_s

    def test_uniform_query_is_not_a_straggler(self):
        server = make_server()
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1), (2), (3)")
        result = session.execute("SELECT a FROM t")
        for vm in result.metrics.vertices:
            assert vm.skew_factor == pytest.approx(1.0)
            assert not vm.straggler

    def test_skew_threshold_conf_knob(self):
        with pytest.raises(ConfigError):
            HiveConf.v3_profile().copy(straggler_skew_threshold=0.5)

    def test_operator_profiles_attached_to_vertices(self):
        server = make_server()
        session = server.connect()
        load_skewed_join(session, hot_rows=50, cold_rows=20)
        result = session.execute(SKEWED_JOIN_SQL)
        kinds = {op.operator for vm in result.metrics.vertices
                 for op in vm.operators}
        assert "TableScan" in kinds
        assert "Join" in kinds
        assert "Aggregate" in kinds
        total_attr = sum(op.virtual_s for vm in result.metrics.vertices
                        for op in vm.operators)
        modeled = sum(vm.io_s + vm.cpu_s + vm.shuffle_s
                      for vm in result.metrics.vertices)
        assert total_attr == pytest.approx(modeled, rel=1e-6)


# --------------------------------------------------------------------------- #
# sys.vertex_log / sys.operator_log

class TestVertexAndOperatorSysTables:
    def test_vertex_log_joins_query_log_with_skew(self):
        server = make_server(data_scale=2000.0)
        session = server.connect()
        load_skewed_join(session)
        session.execute(SKEWED_JOIN_SQL)
        rows = session.execute(
            "SELECT v.name, v.skew_factor "
            "FROM sys.vertex_log v JOIN sys.query_log q "
            "ON v.query_id = q.query_id").rows
        assert rows, "vertex_log join produced no rows"
        assert any(skew is not None and skew > 2.0
                   for _name, skew in rows)

    def test_vertex_log_columns(self):
        server = make_server()
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("SELECT a FROM t")
        rows = session.execute(
            "SELECT name, tasks, duration_s, straggler "
            "FROM sys.vertex_log").rows
        assert rows
        for name, tasks, duration_s, straggler in rows:
            assert tasks >= 1
            assert duration_s >= 0.0
            assert straggler in (True, False)

    def test_operator_log_rows_and_join(self):
        server = make_server()
        session = server.connect()
        load_skewed_join(session, hot_rows=50, cold_rows=20)
        session.execute(SKEWED_JOIN_SQL)
        rows = session.execute(
            "SELECT o.operator, o.rows_out, o.virtual_s "
            "FROM sys.operator_log o JOIN sys.query_log q "
            "ON o.query_id = q.query_id").rows
        operators = {r[0] for r in rows}
        assert "Join" in operators
        assert "TableScan" in operators

    def test_sys_query_log_select_star_width(self):
        server = make_server()
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("SELECT COUNT(*) FROM t")
        result = session.execute("SELECT * FROM sys.query_log")
        # vertices/operators ride the entry, not the sys.query_log row
        assert len(result.column_names) == 26
        assert result.column_names[-1] == "fingerprint"


# --------------------------------------------------------------------------- #
# percentile triggers + sys.wm_events

WM_DDL = [
    "CREATE RESOURCE PLAN daytime",
    "CREATE POOL daytime.bi WITH alloc_fraction=0.8, "
    "query_parallelism=5",
    "CREATE POOL daytime.etl WITH alloc_fraction=0.2, "
    "query_parallelism=20",
    "CREATE APPLICATION MAPPING bi_app IN daytime TO bi",
    "CREATE APPLICATION MAPPING etl_app IN daytime TO etl",
]


def activate(session, *rules):
    for ddl in WM_DDL:
        session.execute(ddl)
    for rule_ddl in rules:
        session.execute(rule_ddl)
    session.execute("ALTER RESOURCE PLAN daytime ENABLE ACTIVATE")


def run_warmup(session, n=4):
    """A few moderately heavy queries to heat the bi pool's p95."""
    for i in range(n):
        session.execute(
            f"SELECT a, SUM(b) FROM t WHERE b > {i} GROUP BY a")


def make_wm_server():
    server = make_server(data_scale=3000.0)
    session = server.connect(application="bi_app")
    session.execute("CREATE TABLE t (a INT, b INT)")
    session.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i * 2})" for i in range(500)))
    return server, session


CHEAP_SQL = "SELECT COUNT(*) FROM t WHERE a = 1"


class TestPercentileTriggers:
    def test_p95_moves_query_a_gauge_trigger_would_not(self):
        # gauge phase: per-query runtime trigger at the same threshold
        # never fires — every query is individually under 2s
        server, session = make_wm_server()
        activate(session,
                 "CREATE RULE shed IN daytime WHEN total_runtime > 2 "
                 "THEN MOVE etl", "ADD RULE shed TO bi")
        run_warmup(session)
        gauge_result = session.execute(CHEAP_SQL)
        assert gauge_result.metrics.total_s < 2.0
        assert gauge_result.metrics.moved_to_pool is None

        # percentile phase: identical workload, but the trigger watches
        # the pool's p95 latency — the cheap query is moved because the
        # *distribution* is hot, not because the query itself is
        server, session = make_wm_server()
        activate(session,
                 "CREATE RULE shed IN daytime WHEN "
                 "p95(query.latency_s) > 2 THEN MOVE etl",
                 "ADD RULE shed TO bi")
        run_warmup(session)
        p95_result = session.execute(CHEAP_SQL)
        assert p95_result.metrics.moved_to_pool == "etl"

    def test_mixed_pools_only_triggered_pool_moves(self):
        server, session = make_wm_server()
        activate(session,
                 "CREATE RULE shed IN daytime WHEN "
                 "p95(query.latency_s) > 2 THEN MOVE etl",
                 "ADD RULE shed TO bi")
        run_warmup(session)
        etl_session = server.connect(application="etl_app")
        etl_result = etl_session.execute(
            "SELECT COUNT(*) FROM t WHERE a = 2")
        # etl has no triggers and its own latency distribution
        assert etl_result.metrics.pool == "etl"
        assert etl_result.metrics.moved_to_pool is None
        moved = session.execute(CHEAP_SQL)
        assert moved.metrics.moved_to_pool == "etl"

    def test_wm_events_logged_and_sql_queryable(self):
        server, session = make_wm_server()
        activate(session,
                 "CREATE RULE shed IN daytime WHEN "
                 "p95(query.latency_s) > 2 THEN MOVE etl",
                 "ADD RULE shed TO bi")
        run_warmup(session)
        session.execute(CHEAP_SQL)
        events = server.obs.wm_events.entries()
        assert events
        last = events[-1]
        assert last.trigger_name == "shed"
        assert last.metric == "p95(query.latency_s)"
        assert last.action == "move"
        assert last.target_pool == "etl"
        rows = session.execute(
            "SELECT trigger_name, metric, action, target_pool "
            "FROM sys.wm_events").rows
        assert ("shed", "p95(query.latency_s)", "move", "etl") in rows

    def test_percentile_syntax_requires_p_prefix(self):
        server, session = make_wm_server()
        session.execute("CREATE RESOURCE PLAN p2")
        with pytest.raises(ParseError):
            session.execute("CREATE RULE bad IN p2 WHEN "
                            "quantile(query.latency_s) > 2 THEN KILL")

    def test_percentile_trigger_unit(self):
        # direct WorkloadManager evaluation without a server
        plan = ResourcePlan("plan")
        plan.add_pool(Pool("bi", 0.8, 5))
        plan.add_pool(Pool("etl", 0.2, 20))
        plan.enabled = True
        trigger = Trigger("shed", "p95(query.latency_s)", 1.0,
                          TriggerAction.MOVE, "etl")
        assert trigger.percentile == (95.0, "query.latency_s")
        plan.pools["bi"].triggers.append(trigger)
        events = WmEventLog()
        registry = MetricsRegistry()
        wm = WorkloadManager(plan, registry=registry, event_log=events)
        for _ in range(10):
            registry.histogram("query.latency_s", pool="bi").observe(3.0)
        admission = QueryAdmission(pool="bi", capacity_fraction=0.8)
        wm.check_triggers_from_registry(registry, admission, query_id=7)
        assert admission.moved_to == "etl"
        assert len(events) == 1
        assert events.entries()[0].query_id == 7

    def test_plain_gauge_triggers_still_work(self):
        plan = ResourcePlan("plan")
        plan.add_pool(Pool("bi", 0.8, 5))
        plan.add_pool(Pool("etl", 0.2, 20))
        plan.enabled = True
        plan.pools["bi"].triggers.append(
            Trigger("slow", "total_runtime", 10.0,
                    TriggerAction.MOVE, "etl"))
        registry = MetricsRegistry()
        registry.gauge("wm.query.total_runtime", query="3").set(99.0)
        wm = WorkloadManager(plan, registry=registry)
        admission = QueryAdmission(pool="bi", capacity_fraction=0.8)
        wm.check_triggers_from_registry(registry, admission, query_id=3)
        assert admission.moved_to == "etl"
        assert admission.fired_trigger == "slow"


# --------------------------------------------------------------------------- #
# registry percentile read API

class TestRegistryPercentile:
    def test_percentile_reads_histogram_series(self):
        registry = MetricsRegistry()
        for _ in range(20):
            registry.histogram("lat", pool="bi").observe(0.003)
        registry.histogram("lat", pool="bi").observe(10.0)
        p50 = registry.percentile("lat", 50, pool="bi")
        p99 = registry.percentile("lat", 99, pool="bi")
        assert p50 is not None and p99 is not None
        assert p50 < p99

    def test_percentile_missing_or_wrong_kind_is_none(self):
        registry = MetricsRegistry()
        assert registry.percentile("nope", 95) is None
        registry.gauge("g").set(1)
        assert registry.percentile("g", 95) is None


# --------------------------------------------------------------------------- #
# query-log retention

class TestQueryLogRetention:
    def test_eviction_spills_to_overflow(self):
        log = RingLog(capacity=3)
        for i in range(10):
            log.append(StatementRecord(query_id=i, statement=f"q{i}"))
        assert len(log) == 3
        assert log.overflow.spilled == 7
        everything = log.all_entries()
        assert [e.query_id for e in everything] == list(range(10))

    def test_file_backed_overflow_round_trip(self, tmp_path):
        path = str(tmp_path / "overflow.jsonl")
        log = RingLog(capacity=1, overflow_path=path)
        first = StatementRecord(query_id=1, statement="a",
                                metrics=QueryMetrics(vertices=[VertexMetrics(
                                    "Map 1", tasks=2, rows=10, io_s=0.1,
                                    cpu_s=0.2, task_durations=[0.2, 0.1],
                                    skew_factor=2.0, straggler=True)]))
        log.append(first)
        log.append(StatementRecord(query_id=2, statement="b"))
        restored = log.overflow.entries()
        assert [e.query_id for e in restored] == [1]
        assert restored[0].vertex_rows() == first.vertex_rows()
        assert restored[0].vertex_rows()[0][2] == "Map 1"

    def test_set_capacity_spills_excess(self):
        log = RingLog(capacity=10)
        for i in range(10):
            log.append(StatementRecord(query_id=i, statement=f"q{i}"))
        log.set_capacity(4)
        assert len(log) == 4
        assert log.overflow.spilled == 6
        assert len(log.all_entries()) == 10

    def test_conf_knob_sets_server_capacity(self):
        server = make_server(obs_query_log_capacity=2)
        assert server.obs.query_log.capacity == 2
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("SELECT a FROM t")
        session.execute("SELECT COUNT(*) FROM t")
        assert len(server.obs.query_log) == 2
        assert server.obs.query_log.overflow.spilled >= 2
        # sys.query_log reads ring + overflow: nothing disappears
        rows = session.execute(
            "SELECT COUNT(*) FROM sys.query_log").rows
        assert rows[0][0] >= 4

    def test_set_statement_resizes_live_log(self):
        server = make_server()
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("SET hive.obs.query.log.capacity = 3")
        assert server.obs.query_log.capacity == 3
        with pytest.raises(ConfigError):
            session.execute("SET hive.obs.query.log.capacity = 0")
        assert server.obs.query_log.capacity == 3

    def test_snapshot_reports_spill_count(self):
        server = make_server(obs_query_log_capacity=1)
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("SELECT COUNT(*) FROM t")
        snap = server.obs.snapshot()
        assert snap["queries"]["spilled"] >= 1


# --------------------------------------------------------------------------- #
# EXPLAIN ANALYZE tree

class TestExplainAnalyzeTree:
    def test_vertex_time_bars_and_operator_lines(self):
        server = make_server(data_scale=2000.0)
        session = server.connect()
        load_skewed_join(session)
        result = session.execute("EXPLAIN ANALYZE " + SKEWED_JOIN_SQL)
        text = "\n".join(r[0] for r in result.rows)
        assert "-- vertex" in text
        assert "[#" in text                  # time bar
        assert "--   op " in text            # nested operator rows
        assert "skew=" in text
        assert "STRAGGLER" in text


# --------------------------------------------------------------------------- #
# chrome trace: nested vertex/operator spans

class TestChromeTraceNesting:
    def test_operator_spans_nest_under_vertices(self):
        server = make_server()
        session = server.connect()
        load_skewed_join(session, hot_rows=50, cold_rows=20)
        session.execute(SKEWED_JOIN_SQL)
        payload = json.loads(server.obs.to_chrome_trace())
        names = [e["name"] for e in payload["traceEvents"]]
        vertex_events = [n for n in names if n.startswith("vertex ")]
        op_events = [n for n in names if n.startswith("op ")]
        assert vertex_events
        assert any("op Join" == n for n in op_events)
        assert any("op TableScan" == n for n in op_events)
        # vertex spans carry the skew attrs into the trace args
        vertex_args = [e["args"] for e in payload["traceEvents"]
                       if e["name"].startswith("vertex ")]
        assert all("skew_factor" in a for a in vertex_args)

    def test_span_tree_nests_operators(self):
        server = make_server()
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        result = session.execute("SELECT a FROM t")
        execute_span = result.trace.find("execute")
        vertex = next(s for s in execute_span.children
                      if s.name.startswith("vertex "))
        assert vertex.children, "operator spans missing"
        assert vertex.children[0].name.startswith("op ")


# --------------------------------------------------------------------------- #
# bench report + perf gate

SAMPLE_EXPORT = {
    "summary": {"llap": {"queries": 2, "failed": 0, "total_s": 10.0}},
    "records": [
        {"scenario": "llap", "query": "q1", "seconds": 4.0, "rows": 5,
         "from_cache": False,
         "breakdown": {"startup_s": 0.1, "io_s": 1.0, "cpu_s": 2.0,
                       "shuffle_s": 0.5, "cache_hit_fraction": 0.25}},
        {"scenario": "llap", "query": "q2", "seconds": None,
         "error": "boom"},
    ],
}


class TestBenchReport:
    def test_render_contains_markers_and_rows(self):
        text = render_bench_report(SAMPLE_EXPORT)
        assert text.startswith("<!-- BENCH_OBS:BEGIN -->")
        assert text.endswith("<!-- BENCH_OBS:END -->")
        assert "| q1 | 4.000 |" in text
        assert "FAIL (boom)" in text
        assert "| llap | 2 | 0 | 10.000 |" in text

    def test_update_experiments_is_idempotent(self):
        doc = "# EXPERIMENTS\n\nprose stays.\n"
        once = update_experiments(doc, SAMPLE_EXPORT)
        assert "prose stays." in once
        twice = update_experiments(once, SAMPLE_EXPORT)
        assert twice == once
        assert twice.count("<!-- BENCH_OBS:BEGIN -->") == 1

    def test_perf_gate_passes_within_tolerance(self):
        current = {"summary": {"llap": {"queries": 2, "failed": 0,
                                        "total_s": 11.0}}}
        assert perf_gate(SAMPLE_EXPORT, current) == []

    def test_perf_gate_fails_on_regression(self):
        current = {"summary": {"llap": {"queries": 2, "failed": 0,
                                        "total_s": 13.0}}}
        problems = perf_gate(SAMPLE_EXPORT, current)
        assert problems and "llap" in problems[0]

    def test_perf_gate_fails_on_missing_scenario_or_new_failures(self):
        assert perf_gate(SAMPLE_EXPORT, {"summary": {}})
        current = {"summary": {"llap": {"queries": 2, "failed": 1,
                                        "total_s": 9.0}}}
        assert perf_gate(SAMPLE_EXPORT, current)

    def test_perf_gate_wall_clock(self):
        baseline = {"summary": {"llap": {"queries": 2, "failed": 0,
                                         "total_s": 10.0,
                                         "wall_s": 1.0}}}
        # 2x wall growth sits inside the generous default tolerance
        current = {"summary": {"llap": {"queries": 2, "failed": 0,
                                        "total_s": 10.0,
                                        "wall_s": 2.0}}}
        assert perf_gate(baseline, current) == []
        # a 6x blowup fails; a tighter knob catches the 2x too
        blowup = {"summary": {"llap": {"queries": 2, "failed": 0,
                                       "total_s": 10.0,
                                       "wall_s": 6.0}}}
        problems = perf_gate(baseline, blowup)
        assert problems and "wall time" in problems[0]
        assert perf_gate(baseline, current, wall_tolerance=0.5)

    def test_perf_gate_wall_skipped_without_baseline_data(self):
        # pre-wall baselines (no wall_s) must not fail the gate
        current = {"summary": {"llap": {"queries": 2, "failed": 0,
                                        "total_s": 10.0,
                                        "wall_s": 99.0}}}
        assert perf_gate(SAMPLE_EXPORT, current) == []
