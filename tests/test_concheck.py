"""Concurrency analysis: static lock-order pass + runtime sanitizer.

The seeded fixtures — a deliberate ABBA deadlock, an unguarded read of
a write-guarded attribute, and a clean module — must be caught (or
passed) by *both* layers: ``repro.lint.concurrency`` from the AST, and
``repro.lint.sanitizer`` from real interleavings.  The merge gates:
``tools/concheck`` exits 0 on ``src/`` and its JSON report is
byte-identical across runs.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.common import sync
from repro.lint.concurrency import (RULES, analyze_paths,
                                    analyze_source)
from repro.lint.concurrency import main as concheck_main
from repro.lint.sanitizer import (WAIT_ALLOWED_HOLDING, LockSanitizer,
                                  current, install_instance,
                                  install_sanitizer,
                                  uninstall_sanitizer)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def analyze(code, path="x.py", rules=None):
    return analyze_source(textwrap.dedent(code), path, rules)


def rule_ids(report):
    return [f.rule for f in report.findings]


# --------------------------------------------------------------------------- #
# the seeded fixtures

ABBA_FIXTURE = """
    import threading

    class Ledger:
        def __init__(self):
            self._lock = threading.Lock()
            self.journal = None

        def post(self):
            with self._lock:
                self.journal.append_entry()

        def balance(self):
            with self._lock:
                return 0


    class Journal:
        def __init__(self):
            self._lock = threading.Lock()
            self.ledger = None

        def append_entry(self):
            with self._lock:
                pass

        def replay(self):
            with self._lock:
                self.ledger.balance()
    """

UNGUARDED_READ_FIXTURE = """
    import threading

    class Meter:
        def __init__(self):
            self._lock = threading.Lock()
            self._total = 0

        def add(self, n):
            with self._lock:
                self._total += n

        def snapshot(self):
            return self._total
    """

CLEAN_FIXTURE = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def put(self, item):
            with self._lock:
                self._items.append(item)

        def drain(self):
            with self._lock:
                out = list(self._items)
                self._items.clear()
                return out
    """


# --------------------------------------------------------------------------- #
# static pass

class TestStaticAnalysis:
    def test_abba_fixture_reports_cycle(self):
        report = analyze(ABBA_FIXTURE, "abba.py")
        assert "CC001" in rule_ids(report)
        (finding,) = [f for f in report.findings if f.rule == "CC001"]
        assert "Ledger._lock" in finding.message
        assert "Journal._lock" in finding.message

    def test_abba_edges_in_both_directions(self):
        report = analyze(ABBA_FIXTURE, "abba.py")
        pairs = report.edge_pairs()
        assert ("Ledger._lock", "Journal._lock") in pairs
        assert ("Journal._lock", "Ledger._lock") in pairs

    def test_unguarded_read_fixture_reports_cc002(self):
        report = analyze(UNGUARDED_READ_FIXTURE, "meter.py")
        assert rule_ids(report) == ["CC002"]
        (finding,) = report.findings
        assert "_total" in finding.message
        assert "snapshot" in finding.message

    def test_clean_fixture_passes(self):
        report = analyze(CLEAN_FIXTURE, "box.py")
        assert report.findings == []

    def test_self_deadlock_via_call_chain(self):
        report = analyze("""
            import threading

            class Q:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.helper()

                def helper(self):
                    with self._lock:
                        pass
        """)
        assert "CC003" in rule_ids(report)

    def test_rlock_self_nesting_is_not_cc003(self):
        # SimFileSystem.create() nests mkdirs() under an RLock by
        # design — re-entrancy is the point of the RLock kind
        report = analyze("""
            import threading

            class FS:
                def __init__(self):
                    self._lock = threading.RLock()

                def create(self):
                    with self._lock:
                        self.mkdirs()

                def mkdirs(self):
                    with self._lock:
                        pass
        """)
        assert "CC003" not in rule_ids(report)

    def test_effectively_locked_helper_not_flagged(self):
        # a private helper whose every call site holds the lock reads
        # guarded state legally ("caller holds self._lock" convention)
        report = analyze("""
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._slots = {}

                def grab(self):
                    with self._lock:
                        return self._pick()

                def put_back(self, s):
                    with self._lock:
                        self._slots[s] = True
                        self._pick()

                def _pick(self):
                    return next(iter(self._slots), None)
        """)
        assert report.findings == []

    def test_class_qualified_call_names_its_one_target(self):
        """``obj.merge()`` sprays an edge to every class defining
        ``merge``; ``Stats.merge(obj, other)`` resolves to that method
        alone, so the same-named method that takes a lock stays out."""
        template = """
            import threading

            class Stats:
                def merge(self, other):
                    return self

            class Writer:
                def __init__(self):
                    self._lock = threading.Lock()

                def merge(self, other):
                    with self._lock:
                        pass

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def update(self, existing, delta):
                    with self._lock:
                        return {call}
            """
        by_name = analyze(template.replace(
            "{call}", "existing.merge(delta)"))
        assert ("Store._lock", "Writer._lock") in by_name.edge_pairs()
        exact = analyze(template.replace(
            "{call}", "Stats.merge(existing, delta)"))
        assert exact.edge_pairs() == []

    def test_sync_seam_factories_declare_locks(self):
        report = analyze("""
            from repro.common import sync

            class S:
                def __init__(self):
                    self._lock = sync.new_lock("S._lock")
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n += 1

                def peek(self):
                    return self._n
        """)
        assert rule_ids(report) == ["CC002"]

    def test_line_suppression(self):
        code = UNGUARDED_READ_FIXTURE.replace(
            "return self._total",
            "return self._total  # concheck: disable=CC002")
        assert analyze(code).findings == []

    def test_file_suppression(self):
        code = ("# concheck: disable-file=CC002\n"
                + textwrap.dedent(UNGUARDED_READ_FIXTURE))
        assert analyze_source(code, "meter.py").findings == []

    def test_rules_filter(self):
        report = analyze(UNGUARDED_READ_FIXTURE, rules=["CC001"])
        assert report.findings == []

    def test_rule_catalog_shape(self):
        assert set(RULES) == {"CC001", "CC002", "CC003"}


class TestConcheckCli:
    def test_src_is_clean(self, capsys):
        assert concheck_main([SRC_REPRO]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_nonzero_exit_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent(UNGUARDED_READ_FIXTURE))
        assert concheck_main([str(bad)]) == 1
        assert "CC002" in capsys.readouterr().out

    def test_json_report_deterministic(self, tmp_path):
        # byte-identical across two separate processes: no
        # timestamps, no hash-order leakage, stable sort keys
        cmd = [sys.executable, os.path.join(REPO_ROOT, "tools",
                                            "concheck"),
               "--format", "json", SRC_REPRO]
        first = subprocess.run(cmd, capture_output=True, text=True,
                               check=True, cwd=REPO_ROOT)
        second = subprocess.run(cmd, capture_output=True, text=True,
                                check=True, cwd=REPO_ROOT)
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["tool"] == "concheck"
        assert payload["total"] == 0
        assert payload["lock_order_edges"]

    def test_graph_flag_prints_edges(self, tmp_path, capsys):
        mod = tmp_path / "two.py"
        mod.write_text(textwrap.dedent("""
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.b = None

                def go(self):
                    with self._lock:
                        self.b.poke()

            class B:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass
        """))
        concheck_main([str(mod), "--graph"])
        out = capsys.readouterr().out
        assert "A._lock -> B._lock" in out


# --------------------------------------------------------------------------- #
# runtime sanitizer

@pytest.fixture
def sanitizer():
    # save/restore: under CI's HIVE_SANITIZE=1 run an env-installed
    # sanitizer is already active and must keep observing afterwards
    previous = current()
    uninstall_sanitizer()
    san = install_sanitizer(longhold_s=5.0)
    yield san
    uninstall_sanitizer()
    if previous is not None:
        install_instance(previous)


class TestSanitizerRuntime:
    def test_abba_inversion_detected(self, sanitizer):
        """The ABBA fixture, executed: thread one takes ledger->journal,
        thread two journal->ledger.  Sequential threads (no real
        deadlock) — the order graph still crosses."""
        ledger = sync.new_lock("Ledger._lock")
        journal = sync.new_lock("Journal._lock")

        def post():          # ledger -> journal
            with ledger:
                with journal:
                    pass

        def replay():        # journal -> ledger  (the inversion)
            with journal:
                with ledger:
                    pass

        t1 = threading.Thread(target=post, daemon=True)
        t1.start(); t1.join()
        t2 = threading.Thread(target=replay, daemon=True)
        t2.start(); t2.join()

        findings = sanitizer.findings("order")
        assert len(findings) == 1
        assert set(findings[0].locks) == {"Ledger._lock",
                                          "Journal._lock"}

    def test_same_order_twice_is_clean(self, sanitizer):
        a = sync.new_lock("A._lock")
        b = sync.new_lock("B._lock")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert sanitizer.findings() == []
        assert ("A._lock", "B._lock") in sanitizer.edges()

    def test_inversion_against_static_graph(self, sanitizer):
        # the other order never executes in this run; the static
        # analysis proved it exists in the source
        sanitizer.merge_static_edges([("Hms._lock", "Txn._lock")])
        txn = sync.new_lock("Txn._lock")
        hms = sync.new_lock("Hms._lock")
        with txn:
            with hms:
                pass
        findings = sanitizer.findings("order")
        assert len(findings) == 1
        assert "static graph" in findings[0].detail

    def test_per_instance_locks_aggregate_by_site(self, sanitizer):
        # two gate instances share the "_Gate.cond" site: an order
        # observed on one instance applies to all of them
        gate1 = sync.new_lock("_Gate.cond")
        gate2 = sync.new_lock("_Gate.cond")
        reg = sync.new_lock("LiveQueryRegistry._lock")
        with gate1:
            with reg:
                pass
        with reg:
            with gate2:
                pass
        assert len(sanitizer.findings("order")) == 1

    def test_wait_while_holding_foreign_lock_flagged(self, sanitizer):
        other = sync.new_lock("TransactionManager._lock")
        cond = sync.new_condition("LockManager._cond")

        def waiter():
            with other:
                with cond:
                    cond.wait(timeout=0.01)

        t = threading.Thread(target=waiter, daemon=True)
        t.start(); t.join()
        findings = sanitizer.findings("blocking")
        assert len(findings) == 1
        assert "TransactionManager._lock" in findings[0].locks

    def test_wait_holding_session_lock_allowlisted(self, sanitizer):
        assert "ServiceSession.lock" in WAIT_ALLOWED_HOLDING
        session = sync.new_lock("ServiceSession.lock")
        cond = sync.new_condition("LockManager._cond")
        with session:
            with cond:
                cond.wait(timeout=0.01)
        assert sanitizer.findings("blocking") == []

    def test_condition_wait_notify_roundtrip(self, sanitizer):
        # the instrumented Condition must still *work*: full release
        # on wait, reacquire on wake, no spurious findings
        cond = sync.new_condition("LockManager._cond")
        ready = []

        def producer():
            with cond:
                ready.append(1)
                cond.notify_all()

        t = threading.Thread(target=producer, daemon=True)
        with cond:
            t.start()
            assert cond.wait_for(lambda: ready, timeout=5.0)
        t.join()
        assert sanitizer.findings() == []

    def test_longhold_detected(self):
        previous = current()
        uninstall_sanitizer()
        san = install_sanitizer(longhold_s=0.001)
        try:
            lock = sync.new_lock("SlowPath._lock")
            with lock:
                time.sleep(0.01)
            findings = san.findings("longhold")
            assert len(findings) == 1
            assert findings[0].locks == ("SlowPath._lock",)
        finally:
            uninstall_sanitizer()
            if previous is not None:
                install_instance(previous)

    def test_rlock_reentrancy_one_acquisition(self, sanitizer):
        rlock = sync.new_rlock("SimFileSystem._lock")
        with rlock:
            with rlock:        # create() nests mkdirs()
                pass
        (stats,) = sanitizer.site_rows()
        assert stats.acquisitions == 1
        assert sanitizer.findings() == []

    def test_contention_counted(self, sanitizer):
        lock = sync.new_lock("Busy._lock")
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                entered.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=holder, daemon=True)
        t.start()
        assert entered.wait(timeout=5.0)
        waiter = threading.Thread(target=lambda: lock.acquire()
                                  or lock.release(), daemon=True)
        waiter.start()
        time.sleep(0.02)       # let the waiter block on the held lock
        release.set()
        waiter.join(timeout=5.0)
        t.join(timeout=5.0)
        assert sanitizer.totals()["contended"] >= 1

    def test_unguarded_read_fixture_runtime(self, sanitizer):
        """Runtime view of the CC002 fixture: the writer thread takes
        the site lock on every update, the reader thread never touches
        it — the sanitizer's per-site ledger shows the bypass."""
        lock = sync.new_lock("Meter._lock")
        state = {"total": 0}

        def writer():
            for _ in range(50):
                with lock:
                    state["total"] += 1

        def reader():
            seen = 0
            for _ in range(50):
                seen = max(seen, state["total"])   # no lock: the bug
            return seen

        tw = threading.Thread(target=writer, daemon=True)
        tr = threading.Thread(target=reader, daemon=True)
        tw.start(); tr.start(); tw.join(); tr.join()
        (stats,) = sanitizer.site_rows()
        assert stats.name == "Meter._lock"
        assert stats.acquisitions == 50   # all of them from the writer

    def test_findings_deduplicate_with_count(self, sanitizer):
        a = sync.new_lock("A._lock")
        b = sync.new_lock("B._lock")

        def cross(first, second):
            with first:
                with second:
                    pass

        cross(a, b)
        for _ in range(3):
            cross(b, a)
        # an inversion edge is recorded once; repeats do not multiply
        assert len(sanitizer.findings("order")) == 1

    def test_uninstall_restores_raw_primitives(self):
        previous = current()
        uninstall_sanitizer()
        try:
            assert current() is None
            lock = sync.new_lock("X._lock")
            assert type(lock).__module__ == "_thread"
        finally:
            if previous is not None:
                install_instance(previous)


# --------------------------------------------------------------------------- #
# server integration: sys.lint_findings, lint.* metrics, SET knob

class TestServerIntegration:
    @pytest.fixture
    def sanitized_server(self):
        previous = current()
        uninstall_sanitizer()
        install_sanitizer(longhold_s=5.0)
        import repro
        server = repro.HiveServer2()
        try:
            yield server, server.connect()
        finally:
            uninstall_sanitizer()
            if previous is not None:
                install_instance(previous)

    def test_lint_metrics_live(self, sanitized_server):
        _, session = sanitized_server
        session.execute("CREATE TABLE t (a INT)")
        session.execute("INSERT INTO t VALUES (1)")
        rows = dict(session.execute(
            "SELECT name, value FROM sys.metrics "
            "WHERE name LIKE 'lint.sanitizer%'").rows)
        assert rows["lint.sanitizer.enabled"] == 1.0
        assert rows["lint.sanitizer.sites"] > 0
        assert rows["lint.sanitizer.acquisitions"] > 0

    def test_lint_findings_table(self, sanitized_server)  :
        _, session = sanitized_server
        # seed one inversion through the seam, then query it via SQL
        a = sync.new_lock("FixtureA._lock")
        b = sync.new_lock("FixtureB._lock")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        rows = session.execute(
            "SELECT source, kind, locks FROM sys.lint_findings").rows
        assert ("sanitizer", "order",
                "FixtureA._lock->FixtureB._lock") in rows \
            or ("sanitizer", "order",
                "FixtureB._lock->FixtureA._lock") in rows

    def test_longhold_knob_set_statement(self, sanitized_server):
        _, session = sanitized_server
        session.execute("SET hive.lint.sanitize.longhold.s = 0.25")
        assert current().longhold_s == 0.25
        with pytest.raises(Exception):
            session.execute("SET hive.lint.sanitize.longhold.s = 0")

    def test_suite_smoke_has_no_order_findings(self, sanitized_server):
        _, session = sanitized_server
        session.execute("CREATE TABLE t (a INT, b STRING)")
        session.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        session.execute("SELECT b, COUNT(*) FROM t GROUP BY b")
        session.execute("SELECT * FROM sys.query_log")
        assert current().findings("order") == []

    def test_metrics_zero_without_sanitizer(self):
        previous = current()
        uninstall_sanitizer()
        try:
            import repro
            server = repro.HiveServer2()
            session = server.connect()
            rows = dict(session.execute(
                "SELECT name, value FROM sys.metrics "
                "WHERE name = 'lint.sanitizer.enabled'").rows)
            assert rows["lint.sanitizer.enabled"] == 0.0
            assert session.execute(
                "SELECT COUNT(*) FROM sys.lint_findings").rows == [(0,)]
        finally:
            if previous is not None:
                install_instance(previous)


class TestEnvInstall:
    def test_hive_sanitize_env_installs(self):
        code = ("import repro\n"
                "from repro.lint.sanitizer import current\n"
                "assert current() is not None\n"
                "server = repro.HiveServer2()\n"
                "s = server.connect()\n"
                "s.execute('CREATE TABLE t (a INT)')\n"
                "assert current().findings('order') == []\n"
                "print('sanitized-ok')\n")
        env = dict(os.environ, HIVE_SANITIZE="1",
                   HIVE_SANITIZE_STATIC="1",
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "sanitized-ok" in proc.stdout

    def test_no_env_no_overhead(self):
        code = ("import repro\n"
                "from repro.lint.sanitizer import current\n"
                "from repro.common import sync\n"
                "assert current() is None\n"
                "assert sync.active() is None\n"
                "print('raw-ok')\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("HIVE_SANITIZE", None)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "raw-ok" in proc.stdout
