"""One record per operator run.

``execute`` keeps one ``OperatorRun`` per plan node: rows in and out,
executions, wall time, the shuffle-key histogram, the scan's IO and a
memoised result.  The cost model, re-optimization, ``EXPLAIN ANALYZE``
and ``sys.operator_log`` read it, and the statement record holds the
run's ``QueryMetrics`` instead of copying it field by field.
"""

import dataclasses

import pytest

from repro.common.rows import Column, Schema
from repro.common.types import INT
from repro.common.vector import VectorBatch
from repro.config import HiveConf
from repro.errors import OutOfMemoryError
from repro.exec.operators import ExecutionContext, execute
from repro.plan import relnodes as rel
from repro.plan.rexnodes import RexInputRef, make_call
from repro.runtime.scan import ScanExecutor
from repro.server.driver import HiveServer2

SCHEMA = Schema([Column("k", INT), Column("v", INT)])
ROWS = [(1, 10), (2, 20), (1, 30), (3, 5)]


@pytest.fixture
def session():
    server = HiveServer2(conf=HiveConf.v3_profile())
    session = server.connect()
    session.conf.results_cache_enabled = False
    session.execute("CREATE TABLE t (k INT, v INT)")
    session.execute("INSERT INTO t VALUES (1, 10), (2, 20), (1, 30), (3, 5)")
    return session


def runs_of(metrics):
    return [run for vm in metrics.vertices for run in vm.operators]


def test_the_record_holds_the_metrics_it_reports(session):
    result = session.execute("SELECT k, SUM(v) FROM t GROUP BY k")
    record = session.server.obs.query_log.last()
    m = result.metrics
    assert record.metrics is m
    assert (record.total_s, record.pool) == (m.total_s, m.pool)
    assert record.as_query_log_row()[13:24] == (
        m.total_s, m.queue_s, m.compile_s, m.startup_s, m.io_s, m.cpu_s,
        m.shuffle_s, m.external_s, m.disk_bytes, m.cache_bytes,
        m.cache_hit_fraction)
    logged = session.execute(
        "SELECT vertex, operator, rows_in, rows_out, calls "
        f"FROM sys.operator_log WHERE query_id = {record.query_id}").rows
    assert logged == [(vm.name, run.operator, run.rows_in, run.rows_out,
                       run.calls)
                      for vm in m.vertices for run in vm.operators]
    assert {"TableScan", "Aggregate"} <= {row[1] for row in logged}


def test_retained_runs_keep_no_batch_and_no_histogram(session):
    # the self-join memoises its scan, the join and the aggregate keep
    # key histograms: none of it may outlive the query in the record
    result = session.execute(
        "SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k")
    assert sorted(result.rows) == [(1, 4), (2, 1), (3, 1)]
    runs = runs_of(session.server.obs.query_log.last().metrics)
    assert {"TableScan", "Join", "Aggregate"} <= {r.operator for r in runs}
    assert all(r.batch is None and r.key_counts is None for r in runs)


def test_a_scan_run_carries_its_io(session):
    result = session.execute("SELECT COUNT(*) FROM t WHERE v > 6")
    scan, = [run for run in runs_of(result.metrics)
             if run.operator == "TableScan"]
    assert scan.calls == 1 and scan.scan.table == "default.t"
    assert scan.scan.rows == scan.rows_out
    m = result.metrics
    assert m.disk_bytes + m.cache_bytes == \
        scan.scan.disk_bytes + scan.scan.cache_bytes > 0


def test_reoptimization_sees_only_finished_operators():
    batch = VectorBatch.from_rows(SCHEMA, ROWS)
    left, right = rel.TableScan("l", SCHEMA), rel.TableScan("r", SCHEMA)
    join = rel.Join(left, right, "inner",
                    make_call("=", RexInputRef(0, INT), RexInputRef(2, INT)))
    ctx = ExecutionContext(scan_executor=lambda node: batch,
                           hash_join_memory_rows=2)
    with pytest.raises(OutOfMemoryError):
        execute(join, ctx)
    # the join started but never finished: it must not read as 0 rows
    assert ctx.row_counts() == {left.digest: 4, right.digest: 4}
    assert ctx.runs[join.digest].calls == 0


def test_a_digest_scanned_twice_adds_up_on_one_run(session):
    # a context that does not memoise a digest scans it again (DML runs
    # a plan per partition): the IO merges on the one run
    hms = session.server.hms
    table = hms.get_table("t")
    valid = {table.qualified_name: hms.txn_manager.valid_write_ids(
        hms.txn_manager.get_snapshot(), table.qualified_name)}
    scans = ScanExecutor(hms, session.server.fs, None, valid, {})
    node = rel.TableScan(table.qualified_name, table.schema)
    ctx = ExecutionContext(scans, runs=scans.runs)
    execute(node, ctx)
    once = dataclasses.replace(ctx.runs[node.digest].scan)
    execute(node, ctx)
    run = ctx.runs[node.digest]
    assert (run.calls, run.rows_out) == (2, 4)
    assert (run.scan.rows, run.scan.files_opened, run.scan.disk_bytes) == (
        2 * once.rows, 2 * once.files_opened, 2 * once.disk_bytes)
    assert scans.metrics == {node.digest: run.scan}
