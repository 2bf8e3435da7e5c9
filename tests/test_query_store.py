"""Query Store: fingerprint-level workload history (repro.obs.query_store).

Covers the identity layer (canonicalization, fingerprints, plan
hashes), the per-(fingerprint, plan) aggregation with exact bounded
percentiles, the two event kinds (plan changes with structural diffs,
latency regressions against the windowed baseline), the SQL surfaces
(``sys.query_store*``, ``EXPLAIN HISTORY``, the SET knobs), the WM
``regression(...)`` trigger path, and the two hard cases: determinism
under seeded fault injection and exact counts under 16-way concurrency.
"""

import threading

import pytest

import repro
from repro.config import HiveConf
from repro.errors import WorkloadManagementError
from repro.obs import fingerprint as fp
from repro.obs.query_log import StatementRecord
from repro.obs.query_store import QueryStore
from repro.obs.registry import METRIC_HELP
from repro.runtime.tez import QueryMetrics


# --------------------------------------------------------------------------- #
# identity: canonicalization / fingerprints / plan hashes

class TestFingerprint:
    def test_literals_stripped_and_case_folded(self):
        assert fp.canonicalize(
            "SELECT a, b FROM T where A = 5 AND b = 'x';") == \
            "SELECT a , b FROM t WHERE a = ? AND b = ?"

    def test_same_shape_same_fingerprint(self):
        assert fp.fingerprint("SELECT * FROM t WHERE a = 5") == \
            fp.fingerprint("select * from T where a = 99")

    def test_different_shape_different_fingerprint(self):
        assert fp.fingerprint("SELECT a FROM t") != \
            fp.fingerprint("SELECT b FROM t")

    def test_unparseable_falls_back_to_text(self):
        # parse failures canonicalize by whitespace only — still a
        # stable identity, never an exception
        assert fp.canonicalize("SELECT   FROM\n WHERE !!!") == \
            "SELECT FROM WHERE ! ! !"
        assert len(fp.fingerprint("not sql at all")) == 12

    def test_plan_diff_structural(self):
        diff = fp.plan_diff("a\nb\nc", "a\nX\nc")
        assert "-b" in diff and "+X" in diff
        assert fp.plan_diff("same", "same") == ""

    def test_plan_hash_stable(self):
        assert fp.hash_plan_text("TableScan t") == \
            fp.hash_plan_text("TableScan t")
        assert fp.hash_plan_text("TableScan t") != \
            fp.hash_plan_text("TableScan u")


# --------------------------------------------------------------------------- #
# the store itself, fed synthetic entries

def entry(i, total_s, *, started_s=None, status="ok", from_cache=False,
          reexecuted=False, rows=10, fingerprint="", plan_hash="",
          plan_explain=""):
    return StatementRecord(
        query_id=i, statement="SELECT ...", status=status,
        fingerprint=fingerprint, plan_hash=plan_hash,
        plan_explain=plan_explain,
        from_cache=from_cache, reexecuted=reexecuted, rows_produced=rows,
        started_s=total_s * i if started_s is None else started_s,
        wall_ms=1.0, metrics=QueryMetrics(
            total_s=total_s, queue_s=0.01, disk_bytes=100, cache_bytes=50))


class TestQueryStoreUnit:
    def test_aggregation_counts(self):
        store = QueryStore()
        for i in range(4):
            store.record(entry(i, 1.0, fingerprint="fp1", plan_hash="p1"))
        store.record(entry(4, 1.0, status="error", fingerprint="fp1",
                           plan_hash="p1"))
        store.record(entry(5, 1.0, from_cache=True, fingerprint="fp1",
                           plan_hash="p1"))
        store.record(entry(6, 1.0, reexecuted=True, fingerprint="fp1",
                           plan_hash="p1"))
        (row,) = store.rows_store()
        fingerprint, _stmt, plans, execs, errors, retries, rc_hits = \
            row[:7]
        assert (fingerprint, plans, execs) == ("fp1", 1, 7)
        assert (errors, retries, rc_hits) == (1, 1, 1)
        assert store.recorded == 7

    def test_cached_and_failed_not_in_latency_window(self):
        store = QueryStore(window_s=1000.0)
        store.record(entry(0, 1.0, fingerprint="f"))
        store.record(entry(1, 50.0, status="error", fingerprint="f"))
        store.record(entry(2, 50.0, from_cache=True, fingerprint="f"))
        (row,) = store.rows_store()
        p95 = row[12]
        assert p95 == 1.0      # the poison samples were excluded

    def test_window_rollover_builds_baseline(self):
        store = QueryStore(window_s=10.0, regression_min_samples=1)
        # bucket 0
        store.record(entry(0, 1.0, started_s=1.0, fingerprint="f"))
        # bucket 1 -> the old current becomes baseline
        store.record(entry(1, 1.0, started_s=11.0, fingerprint="f"))
        stats = store._fps["f"]
        assert list(stats.baseline) == [1.0]
        assert stats.current == [1.0]

    def test_regression_event_deduped(self):
        store = QueryStore(window_s=10.0, regression_threshold=1.5,
                           regression_min_samples=2)
        for i in range(4):       # bucket 0: the fast baseline
            store.record(entry(i, 1.0, started_s=float(i),
                               fingerprint="f"))
        for i in range(4, 8):    # bucket 1: 4x slower
            store.record(entry(i, 4.0, started_s=10.0 + i,
                               fingerprint="f"))
        events = [e for e in store.events() if e.kind == "regression"]
        assert len(events) == 1
        event = events[0]
        assert event.before_p95_s == 1.0
        assert event.after_p95_s == 4.0
        assert event.factor == pytest.approx(4.0)
        assert event.count >= 2          # repeat detections bumped it
        assert store.regressions == 1

    def test_no_regression_below_threshold(self):
        store = QueryStore(window_s=10.0, regression_threshold=1.5,
                           regression_min_samples=2)
        for i in range(4):
            store.record(entry(i, 1.0, started_s=float(i),
                               fingerprint="f"))
        for i in range(4, 8):    # 1.2x — inside the threshold
            store.record(entry(i, 1.2, started_s=10.0 + i,
                               fingerprint="f"))
        assert [e for e in store.events()
                if e.kind == "regression"] == []

    def test_plan_change_event_with_diff(self):
        store = QueryStore()
        store.record(entry(0, 1.0, fingerprint="f", plan_hash="old",
                           plan_explain="TableScan t\n  Filter a > ?"))
        store.record(entry(1, 1.0, fingerprint="f", plan_hash="new",
                           plan_explain="TableScan t\n  MV rewrite mv1"))
        (event,) = [e for e in store.events()
                    if e.kind == "plan_change"]
        assert (event.old_plan_hash, event.new_plan_hash) == \
            ("old", "new")
        assert "Filter" in event.detail and "MV rewrite" in event.detail
        assert store.plan_changes == 1
        # flapping back and forth dedups per (old, new) direction
        store.record(entry(2, 1.0, fingerprint="f", plan_hash="old",
                           plan_explain="x"))
        store.record(entry(3, 1.0, fingerprint="f", plan_hash="new",
                           plan_explain="y"))
        changes = [e for e in store.events() if e.kind == "plan_change"]
        assert len(changes) == 2
        assert changes[0].count == 2     # old->new seen twice

    def test_capacity_eviction_lru(self):
        store = QueryStore(capacity=2)
        store.record(entry(0, 1.0, fingerprint="a"))
        store.record(entry(1, 1.0, fingerprint="b"))
        store.record(entry(2, 1.0, fingerprint="c"))
        assert store.evictions == 1
        assert {row[0] for row in store.rows_store()} == {"b", "c"}

    def test_max_events_bounded(self):
        store = QueryStore(max_events=2)
        for i in range(4):
            store.record(entry(2 * i, 1.0, fingerprint=f"f{i}",
                               plan_hash="p1", plan_explain="a"))
            store.record(entry(2 * i + 1, 1.0, fingerprint=f"f{i}",
                               plan_hash="p2", plan_explain="b"))
        assert len(store.events()) == 2
        assert store.events_retained() == 2

    def test_disabled_store_records_nothing(self):
        store = QueryStore()
        store.enabled = False
        store.record(entry(0, 1.0, fingerprint="f"))
        store.note_plan_cache("default", "SELECT 1", True)
        assert store.rows_store() == []
        assert len(store) == 0

    def test_plan_rows_shape(self):
        store = QueryStore()
        store.record(entry(0, 2.0, fingerprint="f", plan_hash="p1"))
        (row,) = store.rows_plans()
        assert row[0] == "f" and row[1] == "p1"
        assert row[2] == 1               # executions
        assert row[9] == 2.0             # p95
        assert row[11] == 2.0            # mean_s


# --------------------------------------------------------------------------- #
# through the session: sys tables, EXPLAIN HISTORY, knobs

RECURRING = "SELECT a, COUNT(*) FROM t WHERE a > 0 GROUP BY a"


def run_workload(session, times=6, sql=RECURRING):
    session.execute("SET hive.query.results.cache.enabled=false")
    for _ in range(times):
        session.execute(sql)


class TestSysTables:
    def test_query_store_row(self, loaded_session):
        run_workload(loaded_session)
        rows = loaded_session.execute(
            "SELECT fingerprint, plans, executions, plan_cache_hits, "
            "plan_cache_misses FROM sys.query_store "
            "WHERE executions >= 6").rows
        assert len(rows) == 1
        fingerprint, plans, execs, hits, misses = rows[0]
        assert plans == 1 and execs == 6
        # first execution compiles (miss), the rest hit the plan cache
        assert misses >= 1 and hits == execs - misses

    def test_literals_conflate_to_one_fingerprint(self, loaded_session):
        loaded_session.execute(
            "SET hive.query.results.cache.enabled=false")
        for threshold in (0, 1, 2):
            loaded_session.execute(
                f"SELECT a, COUNT(*) FROM t WHERE a > {threshold} "
                "GROUP BY a")
        rows = loaded_session.execute(
            "SELECT executions FROM sys.query_store "
            "WHERE executions >= 3").rows
        assert rows == [(3,)]

    def test_joinable_to_query_log(self, loaded_session):
        run_workload(loaded_session, times=3)
        rows = loaded_session.execute(
            "SELECT COUNT(*) FROM sys.query_log l "
            "JOIN sys.query_store s ON l.fingerprint = s.fingerprint "
            "WHERE s.executions >= 3").rows
        assert rows == [(3,)]

    def test_plans_table(self, loaded_session):
        run_workload(loaded_session, times=2)
        rows = loaded_session.execute(
            "SELECT fingerprint, plan_hash, executions "
            "FROM sys.query_store_plans WHERE executions >= 2").rows
        assert len(rows) == 1
        assert len(rows[0][1]) == 12     # a plan hash, not empty

    def test_events_table_empty_without_findings(self, loaded_session):
        run_workload(loaded_session, times=2)
        assert loaded_session.execute(
            "SELECT COUNT(*) FROM sys.query_store_events").rows == [(0,)]


class TestExplainHistory:
    def test_renders_history(self, loaded_session):
        run_workload(loaded_session, times=4)
        lines = [row[0] for row in loaded_session.execute(
            "EXPLAIN HISTORY " + RECURRING).rows]
        text = "\n".join(lines)
        assert "fingerprint:" in text
        assert "executions: 4" in text
        assert "plans: 1" in text
        assert "latency p50/p95/p99" in text
        assert "[current]" in text

    def test_unknown_statement(self, loaded_session):
        lines = [row[0] for row in loaded_session.execute(
            "EXPLAIN HISTORY SELECT x FROM u WHERE k = 7777").rows]
        assert len(lines) == 1
        assert lines[0].startswith("no history for fingerprint")

    def test_explain_history_unparses(self):
        from repro.sql.parser import parse_statement
        stmt = parse_statement("EXPLAIN HISTORY SELECT a FROM t")
        assert stmt.history
        assert stmt.unparse().startswith("EXPLAIN HISTORY")


class TestKnobs:
    def test_set_pushes_live(self, loaded_session, server):
        loaded_session.execute(
            "SET hive.query.store.regression.threshold=2.5")
        assert server.obs.query_store.regression_threshold == 2.5
        loaded_session.execute("SET hive.query.store.capacity=64")
        assert server.obs.query_store.capacity == 64

    def test_disable_stops_recording(self, loaded_session, server):
        run_workload(loaded_session, times=2)
        before = server.obs.query_store.recorded
        loaded_session.execute("SET hive.query.store.enabled=false")
        loaded_session.execute(RECURRING)
        assert server.obs.query_store.recorded == before

    def test_capacity_shrink_trims(self, loaded_session, server):
        run_workload(loaded_session, times=2)
        assert len(server.obs.query_store) > 1
        loaded_session.execute("SET hive.query.store.capacity=1")
        assert len(server.obs.query_store) == 1

    def test_conf_validation(self):
        conf = HiveConf.v3_profile()
        conf.qstore_regression_threshold = 1.0
        with pytest.raises(Exception):
            conf.validate()


# --------------------------------------------------------------------------- #
# the acceptance demos: plan change and regression, end to end

class TestPlanChangeE2E:
    def test_mv_rewrite_changes_plan(self, loaded_session, server):
        sql = "SELECT a, COUNT(*) FROM t GROUP BY a"
        loaded_session.execute(
            "SET hive.query.results.cache.enabled=false")
        for _ in range(3):
            loaded_session.execute(sql)
        loaded_session.execute(
            "CREATE MATERIALIZED VIEW mv_pc AS "
            "SELECT a, COUNT(*) FROM t GROUP BY a")
        loaded_session.execute(sql)
        events = [e for e in server.obs.query_store.events()
                  if e.kind == "plan_change"]
        assert len(events) == 1
        event = events[0]
        assert event.old_plan_hash and event.new_plan_hash
        assert event.old_plan_hash != event.new_plan_hash
        assert event.detail.strip()      # a non-empty structural diff
        # EXPLAIN HISTORY shows both plans and the diff
        text = "\n".join(row[0] for row in loaded_session.execute(
            "EXPLAIN HISTORY " + sql).rows)
        assert event.old_plan_hash in text
        assert event.new_plan_hash in text
        assert "plans: 2" in text
        assert "plan diff:" in text


class TestRegressionE2E:
    def test_slowdown_fires_exactly_one_event(self, loaded_session,
                                              server):
        # one bucket per execution: the tiny window turns every run
        # into "current" and all predecessors into baseline
        loaded_session.execute("SET hive.query.store.window.s=0.0001")
        loaded_session.execute(
            "SET hive.query.store.regression.min.samples=1")
        run_workload(loaded_session, times=6)
        # slow the runtime down (virtual cost, deterministic)
        loaded_session.execute(
            "SET hive.vectorized.execution.enabled=false")
        loaded_session.execute("SET hive.llap.enabled=false")
        for _ in range(3):
            loaded_session.execute(RECURRING)
        events = [e for e in server.obs.query_store.events()
                  if e.kind == "regression"]
        assert len(events) == 1          # deduped across repeats
        event = events[0]
        assert event.factor > 1.5
        assert event.after_p95_s > event.before_p95_s > 0.0
        rows = loaded_session.execute(
            "SELECT kind, before_p95_s, after_p95_s, factor "
            "FROM sys.query_store_events").rows
        assert rows == [("regression", event.before_p95_s,
                         event.after_p95_s, event.factor)]
        text = "\n".join(row[0] for row in loaded_session.execute(
            "EXPLAIN HISTORY " + RECURRING).rows)
        assert "regression: p95" in text

    def test_wm_regression_trigger_kills(self, server):
        session = server.connect(application="bi_app")
        for sql in [
            "CREATE RESOURCE PLAN guard",
            "CREATE POOL guard.bi WITH alloc_fraction=1.0, "
            "query_parallelism=4",
            "CREATE RULE stop_regressed IN guard "
            "WHEN regression(query.latency_s) > 2 THEN KILL",
            "ADD RULE stop_regressed TO bi",
            "CREATE APPLICATION MAPPING bi_app IN guard TO bi",
            "ALTER RESOURCE PLAN guard ENABLE ACTIVATE",
        ]:
            session.execute(sql)
        session.execute("CREATE TABLE r (a INT)")
        session.execute("INSERT INTO r VALUES (1), (2), (3)")
        session.execute("SET hive.query.results.cache.enabled=false")
        session.execute("SET hive.query.store.window.s=0.0001")
        session.execute(
            "SET hive.query.store.regression.min.samples=1")
        sql = "SELECT COUNT(*) FROM r WHERE a > 0"
        for _ in range(5):
            session.execute(sql)
        # slow the cluster down without leaving LLAP (an unmanaged
        # query would skip WM trigger checks entirely)
        session.execute("SET hive.faults.slow.node.rate=1.0")
        session.execute("SET hive.faults.slow.node.multiplier=30")
        # first slow run records the regressed sample...
        session.execute(sql)
        # ...the next one sees regression_factor > 2 mid-flight: KILL
        with pytest.raises(WorkloadManagementError):
            session.execute(sql)


# --------------------------------------------------------------------------- #
# determinism and concurrency

class TestDeterminismUnderFaults:
    def _run(self):
        conf = HiveConf.v3_profile()
        conf.faults_seed = 42
        conf.faults_task_fail_rate = 0.5
        conf.validate()
        server = repro.HiveServer2(conf)
        session = server.connect()
        session.conf.results_cache_enabled = False
        session.execute("CREATE TABLE s (region STRING, amount INT)")
        # separate INSERTs -> separate files -> multi-task vertices,
        # so injected task failures have sites to strike
        for values in ("('east', 10), ('west', 20)",
                       "('east', 30), ('north', 5)",
                       "('west', 40), ('south', 15)",
                       "('north', 25), ('east', 50)"):
            session.execute(f"INSERT INTO s VALUES {values}")
        for _ in range(6):
            session.execute("SELECT region, SUM(amount) FROM s "
                            "GROUP BY region ORDER BY region")
        rows = [row for row in server.obs.query_store.rows_store()
                if row[3] >= 6]
        return server, rows

    def test_retries_never_double_count(self):
        server, rows = self._run()
        assert len(rows) == 1
        executions = rows[0][3]
        # injected task retries happen *inside* an execution; the
        # store must still see exactly six
        assert executions == 6
        assert server.obs.registry.total("runtime.failed_task_attempts") \
            > 0          # the faults actually struck
        log_count = sum(
            1 for e in server.obs.query_log.all_entries()
            if e.fingerprint == rows[0][0])
        assert log_count == 6

    def test_same_seed_same_store(self):
        _, first = self._run()
        _, second = self._run()
        # identical seed -> identical aggregates, percentiles included;
        # mean_wall_ms (index 15) is wall clock and legitimately varies
        def virtual(rows):
            return [row[:15] + row[16:] for row in rows]
        assert virtual(first) == virtual(second)


class TestConcurrentExactCounts:
    def test_sixteen_threads_exact_counts(self):
        server = repro.HiveServer2(HiveConf.v3_profile())
        setup = server.connect()
        setup.conf.results_cache_enabled = False
        setup.execute("CREATE TABLE c (a INT, b INT)")
        setup.execute("INSERT INTO c VALUES (1, 10), (2, 20), (3, 30)")
        setup.execute("SELECT SUM(b) FROM c WHERE a > 0")
        setup.execute("SELECT COUNT(*) FROM c WHERE b < 100")
        sum_fp = [e.fingerprint
                  for e in server.obs.query_log.all_entries()
                  if "SUM" in e.statement][-1]
        count_fp = [e.fingerprint
                    for e in server.obs.query_log.all_entries()
                    if "COUNT" in e.statement][-1]
        errors = []

        def worker(index):
            try:
                own = server.connect()
                own.conf.results_cache_enabled = False
                for seq in range(3):
                    # distinct literals, same fingerprints
                    own.execute(f"SELECT SUM(b) FROM c "
                                f"WHERE a > {index % 3}")
                    own.execute(f"SELECT COUNT(*) FROM c "
                                f"WHERE b < {100 + index + seq}")
            except Exception as error:   # pragma: no cover - surfaced
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        by_fp = {row[0]: row for row in
                 server.obs.query_store.rows_store()}
        # exact: 1 warm-up + 16 threads x 3 each, nothing lost or
        # double-counted under contention
        assert by_fp[sum_fp][3] == 1 + 16 * 3
        assert by_fp[count_fp][3] == 1 + 16 * 3
        assert by_fp[sum_fp][4] == 0     # no errors


# --------------------------------------------------------------------------- #
# metrics exposure + help audit (satellite: no undocumented series)

class TestMetricsAndUi:
    def test_qstore_gauges(self, loaded_session, server):
        run_workload(loaded_session, times=3)
        registry = server.obs.registry
        assert registry.value("qstore.fingerprints") >= 1
        assert registry.value("qstore.recorded") >= 3
        assert registry.value("qstore.plans") >= 1

    def test_qstore_metrics_documented(self):
        for name in ("qstore.fingerprints", "qstore.plans",
                     "qstore.events", "qstore.recorded",
                     "qstore.plan_changes", "qstore.regressions",
                     "qstore.evictions"):
            assert METRIC_HELP.get(name), name

    def test_every_registered_metric_has_help(self, loaded_session,
                                              server):
        """The METRIC_HELP coverage audit: after a real workload has
        touched every instrumentation site reachable here, no metric
        may expose an empty HELP string."""
        run_workload(loaded_session, times=2)
        registry = server.obs.registry
        undocumented = [name for name in registry.names()
                        if not registry.describe(name)]
        assert undocumented == []
        for name, rows in registry.snapshot().items():
            for row in rows:
                assert row["help"], name

    def test_ui_section(self, loaded_session, server):
        from repro.obs.exposition import render_ui
        run_workload(loaded_session, times=3)
        section = render_ui(server.obs)["query_store"]
        assert section["fingerprints"] >= 1
        assert section["top"][0]["executions"] >= 3
        assert "events" in section
