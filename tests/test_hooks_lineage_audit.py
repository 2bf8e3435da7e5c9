"""Execution hooks, column lineage and the per-tenant audit log
(ISSUE 10 tentpole).

Covers the hook registry (isolation: raising and over-budget hooks
never change a statement's outcome), EXPLAIN LINEAGE and the lineage
graph (column-level edges for every output column, determinism under
the concurrent serving harness), metastore table provenance (CTAS →
INSERT → MV chains, rename survival, drop tombstones) and the audit
log (exactly one row per statement with tenant attribution, denied
and killed statements included), plus the RL013 lint rule.
"""

import json
import threading
import time

import pytest

from repro.config import HiveConf
from repro.errors import (AnalysisError, CatalogError, QueryKilledError,
                          ServiceError)
from repro.lint.reprolint import lint_source
from repro.server.driver import HiveServer2
from repro.service import HiveService, LoadClient, run_load


@pytest.fixture
def server():
    return HiveServer2(conf=HiveConf.v3_profile())


@pytest.fixture
def service():
    svc = HiveService(conf=HiveConf.v3_profile())
    yield svc
    svc.shutdown()


def seed_tables(session):
    session.execute(
        "CREATE TABLE store_sales (ss_item_sk INT, ss_store_sk INT, "
        "ss_quantity INT, ss_net_paid DOUBLE)")
    session.execute(
        "CREATE TABLE item (i_item_sk INT, i_brand STRING)")
    session.execute(
        "INSERT INTO store_sales VALUES (1, 10, 2, 19.9), "
        "(2, 10, 1, 5.0), (1, 11, 4, 39.8)")
    session.execute(
        "INSERT INTO item VALUES (1, 'acme'), (2, 'zenith')")


JOIN_AGG = ("SELECT i.i_brand, SUM(s.ss_net_paid) AS paid, "
            "COUNT(*) AS cnt "
            "FROM store_sales s JOIN item i "
            "ON s.ss_item_sk = i.i_item_sk "
            "WHERE s.ss_quantity > 1 "
            "GROUP BY i.i_brand")


# --------------------------------------------------------------------------- #
class TestHookIsolation:
    def test_raising_hook_leaves_results_bit_identical(self):
        """ISSUE 10 acceptance: a raising hook leaves results
        bit-identical with hooks.errors incremented."""
        def run(install_bad_hook):
            conf = HiveConf.v3_profile()
            conf.faults_seed = 42
            conf.faults_task_fail_rate = 0.05
            server = HiveServer2(conf=conf)
            if install_bad_hook:
                def bad_hook(phase, ctx):
                    raise RuntimeError("boom")
                server.register_hook("bad", bad_hook)
            session = server.connect()
            seed_tables(session)
            outputs = []
            for _ in range(4):
                outputs.append(session.execute(JOIN_AGG).rows)
            return outputs, server

        clean, _ = run(install_bad_hook=False)
        hooked, server = run(install_bad_hook=True)
        assert hooked == clean
        errors = server.obs.registry.total("hooks.errors", hook="bad")
        assert errors > 0
        # the raising hook is NOT quarantined — errors alone never
        # disable a hook, only timeouts do
        entry = {h.name: h for h in server.obs.hooks.hooks()}["bad"]
        assert entry.disabled is False
        assert entry.failures > 0

    def test_blocking_hook_is_quarantined_not_fatal(self, server):
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("SET hive.hook.timeout.s = 0.01")

        def slow_hook(phase, ctx):
            time.sleep(0.05)

        server.register_hook("slow", slow_hook, phases=("post_exec",))
        result = session.execute("INSERT INTO t VALUES (1)")
        assert result.rows_affected == 1    # statement unaffected
        entry = {h.name: h for h in server.obs.hooks.hooks()}["slow"]
        assert entry.disabled is True       # quarantined after the run
        assert server.obs.registry.total("hooks.timeouts",
                                         hook="slow") == 1.0
        # subsequent statements skip it entirely
        session.execute("INSERT INTO t VALUES (2)")
        entry = {h.name: h for h in server.obs.hooks.hooks()}["slow"]
        assert entry.calls == 1
        # re-registering lifts the quarantine
        server.register_hook("slow", slow_hook)
        entry = {h.name: h for h in server.obs.hooks.hooks()}["slow"]
        assert entry.disabled is False

    def test_hook_failure_status_fires_on_failure_phase(self, server):
        phases = []

        def spy(phase, ctx):
            phases.append((phase, ctx.status))

        server.register_hook("spy", spy)
        session = server.connect()
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM missing_table")
        assert ("pre_exec", "ok") in phases
        assert ("on_failure", "error") in phases

    def test_unregister_builtin_disables_auditing(self, server):
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        before = len(server.obs.audit_log)
        assert server.obs.hooks.unregister("audit") is True
        session.execute("INSERT INTO t VALUES (1)")
        assert len(server.obs.audit_log) == before


# --------------------------------------------------------------------------- #
class TestExplainLineage:
    def test_join_agg_covers_every_output_column(self, server):
        """ISSUE 10 acceptance: EXPLAIN LINEAGE on a TPC-DS-style
        join+agg renders column-level edges for every output column."""
        session = server.connect()
        seed_tables(session)
        result = session.execute(f"EXPLAIN LINEAGE {JOIN_AGG}")
        text = "\n".join(row[0] for row in result.rows)
        for column in ("i_brand", "paid", "cnt"):
            assert f"column {column}" in text
        assert "default.item.i_brand [PROJECTION]" in text
        assert "default.store_sales.ss_net_paid [AGGREGATION]" in text
        # join keys and the filter land in the predicates section
        assert "default.store_sales.ss_item_sk [JOIN-KEY]" in text
        assert "default.item.i_item_sk [JOIN-KEY]" in text
        assert "default.store_sales.ss_quantity [FILTER]" in text

    def test_expression_kind_upgrade(self, server):
        session = server.connect()
        seed_tables(session)
        result = session.execute(
            "EXPLAIN LINEAGE SELECT ss_quantity * 2 AS q2 "
            "FROM store_sales")
        text = "\n".join(row[0] for row in result.rows)
        assert "default.store_sales.ss_quantity [EXPRESSION]" in text

    def test_sys_lineage_edges_matches_explain(self, server):
        session = server.connect()
        seed_tables(session)
        session.execute(JOIN_AGG)
        rows = session.execute(
            "SELECT dst_column, src_table, src_column, kind "
            "FROM sys.lineage_edges "
            "WHERE dst_column = 'paid'").rows
        assert ("paid", "default.store_sales", "ss_net_paid",
                "AGGREGATION") in rows

    def test_lineage_disabled_by_knob(self, server):
        session = server.connect()
        seed_tables(session)
        session.execute("SET hive.lineage.enabled = false")
        session.execute(JOIN_AGG)
        assert len(server.obs.lineage_graph) == 0
        session.execute("SET hive.lineage.enabled = true")
        # a repeat of JOIN_AGG would hit the results cache and skip
        # compilation; a fresh statement records again
        session.execute("SELECT i_brand FROM item")
        assert len(server.obs.lineage_graph) > 0

    def test_graph_is_bounded_lru(self, server):
        session = server.connect()
        session.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        session.execute("SET hive.lineage.capacity = 2")
        # literals are fingerprint-normalized, so vary the column set
        for column in ("a", "b", "c", "d"):
            session.execute(f"SELECT {column} FROM t")
        assert len(server.obs.lineage_graph) <= 2
        assert server.obs.lineage_graph.evictions > 0


# --------------------------------------------------------------------------- #
class TestTableProvenance:
    def test_ctas_insert_mv_three_node_path(self, server):
        """ISSUE 10 acceptance: a CTAS → INSERT → MV chain yields a
        queryable 3-node provenance path in sys.lineage_tables."""
        session = server.connect()
        seed_tables(session)
        session.execute("CREATE TABLE sales_copy AS "
                        "SELECT ss_item_sk, ss_net_paid "
                        "FROM store_sales")
        session.execute("CREATE TABLE daily_agg (k INT, paid DOUBLE)")
        session.execute("INSERT INTO daily_agg "
                        "SELECT ss_item_sk, SUM(ss_net_paid) "
                        "FROM sales_copy GROUP BY ss_item_sk")
        session.execute("CREATE MATERIALIZED VIEW mv_agg AS "
                        "SELECT k, SUM(paid) AS paid FROM daily_agg "
                        "GROUP BY k")
        rows = session.execute(
            "SELECT dst_table, src_table, kind "
            "FROM sys.lineage_tables").rows
        chain = {(d, s, k) for d, s, k in rows}
        assert ("default.sales_copy", "default.store_sales",
                "ctas") in chain
        assert ("default.daily_agg", "default.sales_copy",
                "insert") in chain
        assert ("default.mv_agg", "default.daily_agg", "mv") in chain
        # walk the 3-node path store_sales -> ... -> mv_agg
        hops, node = [], "default.mv_agg"
        for _ in range(3):
            parents = [s for d, s, _ in chain if d == node]
            assert parents, f"no upstream for {node}"
            node = parents[0]
            hops.append(node)
        assert hops[-1] == "default.store_sales"

    def test_provenance_survives_rename(self, server):
        session = server.connect()
        seed_tables(session)
        session.execute("CREATE TABLE c AS SELECT * FROM item")
        session.execute("ALTER TABLE c RENAME TO c2")
        rows = session.execute(
            "SELECT dst_table, src_table, tombstoned "
            "FROM sys.lineage_tables").rows
        assert ("default.c2", "default.item", False) in rows
        assert not any(dst == "default.c" for dst, _, _ in rows)

    def test_drop_tombstones_edges(self, server):
        session = server.connect()
        seed_tables(session)
        session.execute("CREATE TABLE c AS SELECT * FROM item")
        session.execute("DROP TABLE c")
        rows = session.execute(
            "SELECT dst_table, tombstoned FROM sys.lineage_tables").rows
        assert ("default.c", True) in rows

    def test_rename_invalidates_cached_plans(self, server):
        session = server.connect()
        session.execute("CREATE TABLE r1 (a INT)")
        session.execute("INSERT INTO r1 VALUES (1)")
        session.execute("SELECT a FROM r1")
        session.execute("ALTER TABLE r1 RENAME TO r2")
        with pytest.raises(Exception):
            session.execute("SELECT a FROM r1")
        assert session.execute("SELECT a FROM r2").rows == [(1,)]

    def test_src_plan_version_tracks_ddl(self, server):
        session = server.connect()
        seed_tables(session)
        session.execute("CREATE TABLE c AS SELECT * FROM item")
        v1 = session.execute(
            "SELECT src_plan_version FROM sys.lineage_tables "
            "WHERE dst_table = 'default.c'").rows[0][0]
        session.execute("INSERT INTO item VALUES (3, 'newco')")
        v2 = session.execute(
            "SELECT src_plan_version FROM sys.lineage_tables "
            "WHERE dst_table = 'default.c'").rows[0][0]
        assert v2 > v1


# --------------------------------------------------------------------------- #
class TestAuditLog:
    def test_one_row_per_statement_with_tenant(self, service):
        service.register_tenant("bi", token="bi-token")
        admin = service.server.connect()
        admin.execute("CREATE TABLE t (a INT)")
        admin.execute("INSERT INTO t VALUES (1), (2)")
        session = service.open_session(token="bi-token")
        op = service.execute(session.session_id, "SELECT a FROM t")
        rows = [r for r in service.server.obs.audit_log.all_entries()
                if r.query_id == op.query_id]
        assert len(rows) == 1
        record = rows[0]
        assert record.tenant == "bi"
        assert record.session == session.session_id
        assert record.status == "ok"
        assert record.rows_produced == 2
        assert record.inputs() == ["default.t"]
        assert "default.t.a" in record.column_refs()

    def test_denied_session_open_is_audited(self, service):
        service.register_tenant("bi", token="bi-token")
        with pytest.raises(ServiceError):
            service.open_session(token="wrong-token")
        denied = [r for r in service.server.obs.audit_log.entries()
                  if r.status == "denied"]
        assert len(denied) == 1
        assert denied[0].operation == "open_session"

    def test_killed_statement_is_audited(self, server):
        """A statement killed mid-flight is audited with the inputs its
        already-optimised plan resolved."""
        session = server.connect()
        session.execute("CREATE TABLE t (a INT, b INT)")
        live = server.obs.live_queries

        def assassin(entry):
            live.remove_checkpoint_hook(assassin)
            live.request_kill(entry.query_id, reason="test")

        live.add_checkpoint_hook(assassin)
        with pytest.raises(QueryKilledError):
            session.execute("SELECT a, SUM(b) FROM t GROUP BY a")
        (row,) = session.execute(
            "SELECT input_tables, `columns` FROM sys.audit_log "
            "WHERE status = 'killed'").rows
        assert row == ("default.t", "default.t.a,default.t.b")

    def test_failed_kill_query_is_audited_as_an_error(self, server):
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        with pytest.raises(AnalysisError):
            session.execute("KILL QUERY 99999")
        failed = [r for r in server.obs.audit_log.entries()
                  if r.status == "error" and "99999" in r.error]
        assert len(failed) == 1

    def test_results_cache_hit_is_audited_with_its_inputs(self, server):
        """A results-cache hit runs no plan, but it read the tables the
        computing statement read — on the raw plan-cache-hit path and on
        the parsed path alike; lineage stays untouched."""
        session = server.connect()
        session.execute("CREATE TABLE u2 (a INT, b INT)")
        session.execute("INSERT INTO u2 VALUES (1, 1), (2, 2), (3, 3), "
                        "(4, 4), (5, 5)")
        session.execute("SET hive.query.results.cache.enabled=true")
        session.execute("SELECT a FROM u2")             # computes
        lineage_recorded = server.obs.lineage_graph.recorded
        raw = session.execute("SELECT a FROM u2")       # raw-text hit
        session.execute("SET hive.server2.plan.cache.enabled=false")
        parsed = session.execute("select a from u2")    # parsed, no plan
        assert raw.from_cache and raw.plan_cached
        assert parsed.from_cache and not parsed.plan_cached
        assert server.obs.lineage_graph.recorded == lineage_recorded
        for result in (raw, parsed):
            (row,) = session.execute(
                "SELECT rows_returned, input_tables, `columns` "
                "FROM sys.audit_log "
                f"WHERE query_id = {result.query_id}").rows
            assert row == (5, "default.u2", "default.u2.a")

    def test_sys_audit_log_queryable_by_tenant(self, service):
        service.register_tenant("bi", token="bi-token")
        service.register_tenant("etl", token="etl-token")
        admin = service.server.connect()
        admin.execute("CREATE TABLE t (a INT)")
        s1 = service.open_session(token="bi-token")
        s2 = service.open_session(token="etl-token")
        service.execute(s1.session_id, "SELECT COUNT(*) FROM t")
        service.execute(s2.session_id, "SELECT COUNT(*) FROM t")
        rows = admin.execute(
            "SELECT tenant, COUNT(*) FROM sys.audit_log "
            "WHERE operation = 'select' AND status = 'ok' "
            "GROUP BY tenant ORDER BY tenant").rows
        assert ("bi", 1) in rows and ("etl", 1) in rows

    def test_ring_overflow_spills_not_drops(self, server):
        session = server.connect()
        session.execute("CREATE TABLE t (a INT)")
        session.execute("SET hive.audit.capacity = 4")
        for i in range(10):
            session.execute(f"INSERT INTO t VALUES ({i})")
        log = server.obs.audit_log
        assert len(log) <= 4
        assert log.overflow.spilled > 0
        assert len(log.all_entries()) == log.recorded

    def test_explain_analyze_footer_matches_audit(self, server):
        """Satellite: the EXPLAIN ANALYZE inputs/outputs footer comes
        from the same hook-context resolution the audit log records."""
        session = server.connect()
        seed_tables(session)
        result = session.execute(f"EXPLAIN ANALYZE {JOIN_AGG}")
        text = "\n".join(row[0] for row in result.rows)
        assert ("-- inputs: default.item, default.store_sales"
                in text)
        record = server.obs.audit_log.entries()[-1]
        assert record.inputs() == ["default.item",
                                   "default.store_sales"]

    def test_trace_attrs_carry_fingerprint_and_tenant(self, server):
        """Satellite: spans join against sys.query_store and
        sys.audit_log via fingerprint/tenant attrs."""
        session = server.connect()
        session.tenant = "bi"
        session.execute("CREATE TABLE t (a INT)")
        result = session.execute("SELECT a FROM t")
        attrs = result.trace.root.attrs
        assert attrs["tenant"] == "bi"
        assert attrs["fingerprint"]
        record = [r for r in server.obs.audit_log.entries()
                  if r.query_id == result.query_id][0]
        assert record.fingerprint == attrs["fingerprint"]
        trace_doc = json.loads(server.obs.to_chrome_trace())
        joined = [e for e in trace_doc["traceEvents"]
                  if e.get("args", {}).get("fingerprint")
                  == record.fingerprint
                  and e["args"].get("tenant") == "bi"]
        assert joined, "no span joins audit row by fingerprint+tenant"


# --------------------------------------------------------------------------- #
class TestConcurrentAuditAndLineage:
    def test_exactly_one_audit_row_per_statement_64_threads(self):
        """ISSUE 10 acceptance: every statement through the 64-thread
        service test produces exactly one audit row, correctly
        attributed, none lost or duplicated."""
        conf = HiveConf.v3_profile()
        conf.faults_seed = 42
        conf.audit_capacity = 5000
        service = HiveService(conf=conf)
        try:
            admin = service.server.connect()
            admin.execute("CREATE TABLE t (a INT, b STRING)")
            admin.execute("INSERT INTO t VALUES " + ", ".join(
                f"({i}, 'v{i}')" for i in range(20)))
            for tenant in ("bi", "etl", "adhoc"):
                service.register_tenant(tenant)
            clients = [
                LoadClient(token=("bi", "etl", "adhoc")[i % 3],
                           statements=[
                               f"SELECT a FROM t WHERE a > {i % 5}",
                               "SELECT b, COUNT(*) FROM t GROUP BY b",
                           ])
                for i in range(64)
            ]
            report = run_load(service, clients, repeat=2,
                              timeout_s=240.0)
            assert report.lost == 0 and report.duplicates == 0
            assert report.errors == 0, report.error_messages[:3]
            audit = [r for r in
                     service.server.obs.audit_log.all_entries()
                     if r.operation == "select"]
            assert len(audit) == report.submitted
            ids = [r.query_id for r in audit]
            assert len(ids) == len(set(ids))    # no duplicates
            by_tenant = {}
            for r in audit:
                by_tenant[r.tenant] = by_tenant.get(r.tenant, 0) + 1
            # 64 clients round-robin 3 tenants: 22/21/21 x 2 stmts x 2
            assert set(by_tenant) == {"bi", "etl", "adhoc"}
            assert sum(by_tenant.values()) == report.submitted
        finally:
            service.shutdown()

    def test_lineage_deterministic_across_16_threads(self, service):
        """Satellite: lineage extraction is deterministic across the
        16-thread service harness — one fingerprint, one edge set."""
        admin = service.server.connect()
        admin.execute("CREATE TABLE t (a INT, b INT)")
        admin.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
        sql = "SELECT a, SUM(b) AS sb FROM t GROUP BY a"
        baseline = service.server.connect()
        baseline.execute(sql)
        graph = service.server.obs.lineage_graph
        assert len(graph.records()) >= 1
        expected = {r.fingerprint: list(r.edges)
                    for r in graph.records()}
        errors = []

        def worker(index):
            try:
                session = service.open_session(token=f"u{index}")
                for _ in range(2):
                    service.execute(session.session_id, sql)
                service.close_session(session.session_id)
            except Exception as error:   # pragma: no cover - surfaced
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,),
                                    daemon=True) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []
        after = {r.fingerprint: list(r.edges)
                 for r in graph.records()}
        for fingerprint, edges in expected.items():
            assert after[fingerprint] == edges


# --------------------------------------------------------------------------- #
class TestRL013:
    def test_flags_stray_registration(self):
        findings = lint_source(
            "server.obs.hooks.register('mine', fn)\n",
            "repro/service/rogue.py")
        assert [f.rule for f in findings] == ["RL013"]

    def test_allows_hooks_module_builtins(self):
        findings = lint_source(
            "registry.register('lineage', fn, builtin=True)\n",
            "src/repro/obs/hooks.py")
        assert findings == []

    def test_allows_register_hook_wrapper(self):
        source = ("def register_hook(self, name, fn):\n"
                  "    return self.obs.hooks.register(name, fn)\n")
        findings = lint_source(source, "repro/server/driver.py")
        assert findings == []

    def test_ignores_unrelated_register_calls(self):
        findings = lint_source(
            "atexit.register(cleanup)\n"
            "registry.register_callback('x.y', fn, help='h')\n",
            "repro/service/foo.py")
        assert findings == []

    def test_suppression_comment_works(self):
        findings = lint_source(
            "hooks.register('x', fn)  # reprolint: disable=RL013\n",
            "repro/service/foo.py")
        assert findings == []
