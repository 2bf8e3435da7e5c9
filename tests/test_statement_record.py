"""One statement record, one completion path (ISSUE 18).

Every statement — executed, killed in the admission queue or denied —
is described by one ``StatementRecord`` and ends in
``Observability.record_query``, whose sinks (query log, query store,
metrics, lineage, provenance, audit, user hooks) are ordinary hooks.
These are the invariants that gives, stated once.
"""

import time

import pytest

from repro.config import HiveConf
from repro.errors import HiveError, QueryKilledError, ServiceError
from repro.exec.operators import OperatorRun
from repro.obs.hooks import ON_FAILURE, POST_EXEC, PRE_EXEC
from repro.obs.query_log import RingLog, StatementRecord
from repro.runtime.scan import ScanMetrics
from repro.runtime.tez import QueryMetrics, VertexMetrics
from repro.server.driver import HiveServer2
from repro.service import HiveService

SCRIPT = [
    "CREATE TABLE t (a INT, b INT)",
    "INSERT INTO t VALUES (1, 10), (2, 20), (1, 30), (3, 5), (2, 7)",
    "SET hive.query.results.cache.enabled=false",
    "SELECT a, SUM(b) FROM t GROUP BY a",            # plan-cache miss
    "SELECT a, SUM(b) FROM t GROUP BY a",            # raw plan-cache hit
    "select a,  SUM(b) from t group by a",           # spelled differently
    "SET hive.query.results.cache.enabled=true",
    "SELECT a FROM t WHERE b > 6",                   # computes, publishes
    "SELECT a FROM t WHERE b > 6",                   # results-cache hit
    "SET hive.query.results.cache.enabled=false",
    "SELECT nope FROM t",                            # analysis error
    "SELEC a FROM t",                                # parse error
    "EXPLAIN SELECT a FROM t WHERE b > 6",
    "EXPLAIN ANALYZE SELECT a, COUNT(*) FROM t GROUP BY a",
    "EXPLAIN VALIDATE SELECT a FROM t",
    "EXPLAIN LINEAGE SELECT a, SUM(b) AS sb FROM t GROUP BY a",
    "EXPLAIN HISTORY SELECT a, SUM(b) FROM t GROUP BY a",
    "CREATE TABLE c AS SELECT a, b FROM t WHERE a > 1",
    "CREATE TABLE d (a INT, sb INT)",
    "INSERT INTO d SELECT a, SUM(b) FROM c GROUP BY a",
    "UPDATE t SET b = b + 1 WHERE a = 1",
    "DELETE FROM t WHERE a = 3",
    "CREATE MATERIALIZED VIEW mv AS "
    "SELECT a, SUM(sb) AS s FROM d GROUP BY a",
    "ALTER TABLE c RENAME TO c2",
    "SHOW TABLES",
    "DROP TABLE c2",
]
PARSE_ERRORS = 1
KILLED = "SELECT b, COUNT(*) FROM t GROUP BY b"


def wait_until(predicate, timeout_s=10.0, interval_s=0.002):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class Spy:
    """An all-phase user hook remembering what it was shown."""

    def __init__(self, server):
        self.calls = []
        server.register_hook("spy", self)

    def __call__(self, phase, record):
        self.calls.append((phase, record.query_id))

    def phases(self, query_id):
        return [phase for phase, seen in self.calls if seen == query_id]


def log_rows(server):
    """The columns sys.query_log and sys.audit_log have in common."""
    reader = server.connect()
    common = "query_id, operation, status, fingerprint, {}, total_s"
    return (reader.execute("SELECT " + common.format("rows_produced")
                           + " FROM sys.query_log").rows,
            reader.execute("SELECT " + common.format("rows_returned")
                           + " FROM sys.audit_log").rows)


def test_both_logs_and_the_hooks_agree_on_every_statement():
    server = HiveServer2(conf=HiveConf.v3_profile())
    spy = Spy(server)
    session = server.connect()
    for sql in SCRIPT:
        try:
            session.execute(sql)
        except HiveError:
            pass
    live = server.obs.live_queries

    def assassin(entry):
        live.remove_checkpoint_hook(assassin)
        live.request_kill(entry.query_id, reason="test")

    live.add_checkpoint_hook(assassin)
    with pytest.raises(QueryKilledError):
        session.execute(KILLED)
    statements = len(SCRIPT) + 1

    query_log, audit_log = log_rows(server)
    # the reader's own first SELECT finished before its second ran
    assert query_log == audit_log[:statements]
    assert [row[0] for row in query_log] == list(range(1, statements + 1))
    assert query_log[-1][1:3] == ("select", "killed")
    assert [row[2] for row in query_log].count("error") >= 2

    for query_id, _, status, *_ in query_log:
        seen = spy.phases(query_id)
        terminal = POST_EXEC if status == "ok" else ON_FAILURE
        assert seen in ([PRE_EXEC, terminal], [terminal]), (query_id, seen)
    unparsed = [row[0] for row in query_log
                if PRE_EXEC not in spy.phases(row[0])]
    assert len(unparsed) == PARSE_ERRORS


def test_statements_that_never_reach_the_driver_end_the_same_way():
    """Denied open, kill in the queue, admission timeout, then a normal
    statement: one row per case in both tables, one on_failure each."""
    conf = HiveConf.v3_profile()
    conf.server2_max_sessions_per_tenant = 1
    service = HiveService(conf=conf)
    try:
        server = service.server
        admin = server.connect()
        admin.execute("CREATE TABLE t (a INT)")
        admin.execute("INSERT INTO t VALUES (1), (2)")
        service.register_tenant("bi", token="bi-token")
        spy = Spy(server)
        session = service.open_session(token="bi-token")
        with pytest.raises(ServiceError):
            service.open_session(token="bi-token")
        server.conf.server2_default_parallelism = 1
        service.admission.acquire("default", query_id=10**9,
                                  arrival_s=0.0)
        killed = service.submit(session.session_id, "SELECT a FROM t")
        assert wait_until(
            lambda: service.admission.queue_depth("default") == 1)
        assert service.cancel(killed.op_id, reason="test")
        assert wait_until(lambda: killed.finished)
        server.conf.server2_queue_timeout_s = 0.05
        timed_out = service.submit(session.session_id, "SELECT a FROM t")
        assert wait_until(lambda: timed_out.finished)
        service.admission.release("default", 0.0)
        server.conf.server2_queue_timeout_s = 30.0
        normal = service.execute(session.session_id, "SELECT a FROM t")
        assert normal.state == "finished"
        # no fingerprint, so the query store skips the three: it holds
        # the CREATE, the INSERT and the normal SELECT
        assert server.obs.query_store.recorded == 3

        expected = [(0, "open_session", "denied"),
                    (killed.query_id, "", "killed"),
                    (timed_out.query_id, "", "denied"),
                    (normal.query_id, "select", "ok")]
        for rows in log_rows(server):
            assert [row[:3] for row in rows
                    if row[0] in {e[0] for e in expected}] == expected
            assert all(row[5] == 0.0 for row in rows
                       if row[2] in ("killed", "denied"))
        for query_id, _, _ in expected[:3]:
            assert spy.phases(query_id) == [ON_FAILURE]
        assert spy.phases(normal.query_id) == [PRE_EXEC, POST_EXEC]
        registry = server.obs.registry
        assert registry.total("queries.total", status="denied") == 2
        assert registry.total("queries.total", status="killed") == 1
    finally:
        service.shutdown()


def test_spilled_record_projects_to_the_same_rows(tmp_path):
    log = RingLog(capacity=1, overflow_path=str(tmp_path / "spill.jsonl"))
    scan = ScanMetrics(table="default.t", rows=10, raw_rows=10,
                       disk_bytes=640, files_opened=1)
    record = StatementRecord(
        query_id=7, statement="INSERT INTO d SELECT a, b FROM t",
        tenant="bi", session="s000001", application="etl",
        operation="insert", fingerprint="abc", rows_affected=3,
        admission_wait_s=0.5, started_s=1.0, wall_ms=4.0, plan_hash="p1",
        output_tables={"default.d"}, metrics=QueryMetrics(
            total_s=2.0, compile_s=0.25, io_s=0.1, cpu_s=0.2, pool="etl",
            disk_bytes=640, vertices=[VertexMetrics(
                "Map 1", tasks=2, rows=10, io_s=0.1, cpu_s=0.2,
                task_durations=[0.15, 0.15], operators=[OperatorRun(
                    "TableScan", "d1", rows_out=10, calls=1,
                    wall_s=0.0005, virtual_s=0.1, scan=scan)])]))
    record.add_input("default.t", ["b", "a"])
    before = (record.as_query_log_row(), record.as_audit_row(),
              record.vertex_rows(), record.operator_rows())
    log.append(record)
    log.append(StatementRecord(query_id=8))
    (restored,) = log.overflow.entries()
    assert (restored.as_query_log_row(), restored.as_audit_row(),
            restored.vertex_rows(), restored.operator_rows()) == before
    assert restored.as_audit_row()[9:12] == (
        "default.t", "default.d", "default.t.a,default.t.b")
    assert restored.metrics.vertices[0].operators[0].scan == scan
    assert restored.plan_hash == "p1" and restored.at_s == 3.0


def test_the_retained_record_does_not_keep_the_plan_alive():
    server = HiveServer2(conf=HiveConf.v3_profile())
    shown = []
    server.register_hook(
        "spy", lambda phase, record: shown.append(
            (record.optimized is not None, bool(record.plan_explain))),
        phases=(POST_EXEC,))
    session = server.connect()
    session.execute("CREATE TABLE t (a INT)")
    result = session.execute("SELECT a FROM t")
    assert shown[-1] == (True, True)        # the sinks saw the plan
    retained = server.obs.query_log.last()
    assert retained is server.obs.audit_log.last()
    assert retained.query_id == result.query_id
    assert retained.optimized is None and retained.plan_explain == ""
    assert retained.plan_hash               # the identity is kept
