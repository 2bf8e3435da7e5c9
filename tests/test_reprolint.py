"""repro.lint layer 2: the reprolint AST linter and its CLI.

Each rule gets positive and negative cases, suppression syntax is
exercised at line and file level, and — the merge gate — ``src/`` must
lint clean.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import Finding, RULES, lint_paths, lint_source
from repro.lint.reprolint import main as reprolint_main
from repro.lint.reprolint import report_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def lint(code, path="x.py", rules=None):
    return lint_source(textwrap.dedent(code), path, rules)


def rule_ids(findings):
    return [f.rule for f in findings]


# --------------------------------------------------------------------------- #
class TestRL001LockDiscipline:
    def test_unguarded_mutation_flagged(self):
        findings = lint("""
            import threading
            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                def add(self, item):
                    self._items.append(item)
            """)
        assert rule_ids(findings) == ["RL001"]
        assert "self._items" in findings[0].message
        assert "Registry.add" in findings[0].message

    def test_guarded_mutation_ok(self):
        assert lint("""
            import threading
            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                def add(self, item):
                    with self._lock:
                        self._items.append(item)
            """) == []

    def test_constructor_exempt(self):
        assert lint("""
            class Registry:
                def __init__(self):
                    self._lock = object()
                    self._items = []
                    self._items.append(1)
            """) == []

    def test_class_without_lock_not_checked(self):
        assert lint("""
            class Bag:
                def __init__(self):
                    self.items = []
                def add(self, item):
                    self.items.append(item)
            """) == []

    def test_assignment_and_del_and_augassign(self):
        findings = lint("""
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def a(self):
                    self.x = 1
                def b(self):
                    self.n += 1
                def c(self):
                    del self.cache["k"]
            """)
        assert rule_ids(findings) == ["RL001"] * 3

    def test_nested_with_keeps_lock_held(self):
        assert lint("""
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def a(self, fh):
                    with self._lock:
                        with open("f") as handle:
                            self.x = 1
            """) == []

    def test_local_mutation_not_flagged(self):
        assert lint("""
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                def a(self):
                    items = []
                    items.append(1)
                    return items
            """) == []


class TestRL002WallClock:
    CODE = """
        import time
        def cost():
            return time.perf_counter()
        """

    def test_flagged_inside_scoped_modules(self):
        findings = lint(self.CODE, path="src/repro/optimizer/foo.py")
        assert rule_ids(findings) == ["RL002"]
        assert "perf_counter" in findings[0].message

    def test_not_flagged_elsewhere(self):
        assert lint(self.CODE, path="src/repro/obs/tracing.py") == []

    def test_datetime_now_flagged(self):
        findings = lint("""
            from datetime import datetime
            def stamp():
                return datetime.now()
            """, path="src/repro/runtime/tez.py")
        assert rule_ids(findings) == ["RL002"]


class TestRL008ScrapeClock:
    CODE = """
        import time
        def sample():
            return time.time() + time.monotonic()
        """

    def test_flagged_inside_obs_and_llap(self):
        for path in ("src/repro/obs/cluster.py",
                     "src/repro/llap/cache.py"):
            findings = lint(self.CODE, path=path)
            assert rule_ids(findings) == ["RL008", "RL008"]
            assert "scrape-clock" in findings[0].message

    def test_shim_itself_exempt(self):
        assert lint(self.CODE, path="src/repro/obs/clock.py") == []

    def test_not_flagged_elsewhere(self):
        assert lint(self.CODE, path="src/repro/server/driver.py") == []

    def test_perf_counter_still_allowed_for_tracing(self):
        assert lint("""
            import time
            def span():
                return time.perf_counter()
            """, path="src/repro/obs/tracing.py") == []

    def test_bare_names_flagged(self):
        findings = lint("""
            from time import monotonic
            def sample():
                return monotonic()
            """, path="src/repro/llap/elevator.py")
        assert rule_ids(findings) == ["RL008"]

    def test_exec_scope_flags_time_calls(self):
        findings = lint(self.CODE, path="src/repro/exec/compile.py")
        assert rule_ids(findings) == ["RL008", "RL008"]

    def test_datetime_factories_flagged_in_exec(self):
        findings = lint("""
            import datetime
            def current_date():
                return datetime.datetime.now()
            def today():
                return datetime.date.today()
            def short():
                from datetime import date, datetime
                return date.today(), datetime.utcnow()
            """, path="src/repro/exec/compile.py")
        assert rule_ids(findings) == ["RL008"] * 4
        assert "EvalContext" in findings[0].message

    def test_datetime_constructors_allowed(self):
        # explicit-argument constructors and arithmetic are not clock
        # reads — only the now/utcnow/today factories are banned
        assert lint("""
            import datetime
            EPOCH = datetime.date(1970, 1, 1)
            def to_date(days):
                return EPOCH + datetime.timedelta(days=days)
            def other(obj):
                return obj.clock.now()
            """, path="src/repro/exec/compile.py") == []

    def test_datetime_factories_flagged_in_obs(self):
        findings = lint("""
            import datetime
            def stamp():
                return datetime.datetime.utcnow()
            """, path="src/repro/obs/cluster.py")
        assert rule_ids(findings) == ["RL008"]


class TestRL009HttpServer:
    CODE = """
        from http.server import ThreadingHTTPServer
        def serve(handler):
            return ThreadingHTTPServer(("127.0.0.1", 0), handler)
        """

    def test_flagged_outside_endpoints(self):
        findings = lint(self.CODE, path="src/repro/obs/cluster.py")
        assert rule_ids(findings) == ["RL009"]
        assert "ThreadingHTTPServer" in findings[0].message

    def test_attribute_call_flagged(self):
        findings = lint("""
            import http.server
            def serve(handler):
                return http.server.ThreadingHTTPServer(
                    ("127.0.0.1", 0), handler)
            """, path="src/repro/server/driver.py")
        assert rule_ids(findings) == ["RL009"]

    def test_sanctioned_endpoints_exempt(self):
        for path in ("src/repro/obs/exposition.py",
                     "src/repro/service/endpoint.py"):
            assert lint(self.CODE, path=path) == []


class TestRL003FrozenMutation:
    def test_object_setattr_flagged_anywhere(self):
        findings = lint("""
            def patch(node):
                object.__setattr__(node, "schema", None)
            """, path="src/repro/server/driver.py")
        assert rule_ids(findings) == ["RL003"]

    def test_non_self_attr_assign_in_plan_pkg(self):
        findings = lint("""
            def tweak(node):
                node.count = 5
            """, path="src/repro/plan/relnodes.py")
        assert rule_ids(findings) == ["RL003"]

    def test_non_self_attr_assign_outside_plan_pkg_ok(self):
        assert lint("""
            def tweak(obj):
                obj.count = 5
            """, path="src/repro/server/driver.py") == []


class TestRL004BareExcept:
    def test_flagged(self):
        findings = lint("""
            def risky():
                try:
                    pass
                except:
                    pass
            """)
        assert rule_ids(findings) == ["RL004"]

    def test_typed_except_ok(self):
        assert lint("""
            def risky():
                try:
                    pass
                except ValueError:
                    pass
            """) == []


class TestRL005MutableDefaults:
    def test_list_literal_flagged(self):
        findings = lint("def f(items=[]):\n    return items\n")
        assert rule_ids(findings) == ["RL005"]

    def test_dict_call_flagged(self):
        findings = lint("def f(opts=dict()):\n    return opts\n")
        assert rule_ids(findings) == ["RL005"]

    def test_none_default_ok(self):
        assert lint("def f(items=None):\n    return items\n") == []

    def test_tuple_default_ok(self):
        assert lint("def f(items=()):\n    return items\n") == []


# --------------------------------------------------------------------------- #
class TestRL006ObsInternals:
    def test_reading_metric_internals_flagged(self):
        findings = lint(
            "def p95(hist):\n"
            "    return sorted(hist._values)[-1]\n",
            path="src/repro/llap/workload.py")
        assert rule_ids(findings) == ["RL006"]

    def test_registry_series_access_flagged(self):
        findings = lint(
            "def dump(registry):\n"
            "    return dict(registry._series)\n",
            path="src/repro/server/driver.py")
        assert rule_ids(findings) == ["RL006"]

    def test_self_access_ok(self):
        # a class managing its own state is not peeking at obs internals
        assert lint(
            "class Histogram:\n"
            "    def observe(self, v):\n"
            "        self._values.append(v)\n",
            path="src/repro/llap/cache.py") == []

    def test_inside_obs_package_ok(self):
        assert lint(
            "def p95(hist):\n"
            "    return sorted(hist._values)[-1]\n",
            path="src/repro/obs/registry.py") == []

    def test_snapshot_api_ok(self):
        assert lint(
            "def dump(registry):\n"
            "    return registry.snapshot()\n",
            path="src/repro/server/driver.py") == []

    def test_suppression(self):
        findings = lint(
            "def dump(registry):\n"
            "    return dict(registry._series)"
            "  # reprolint: disable=RL006\n",
            path="src/repro/server/driver.py")
        assert findings == []


# --------------------------------------------------------------------------- #
class TestRL010ManualLockCalls:
    def test_acquire_without_try_finally(self):
        findings = lint("""
            class C:
                def leak(self):
                    self._lock.acquire()
                    work()
                    self._lock.release()
        """, rules=["RL010"])
        assert rule_ids(findings) == ["RL010", "RL010"]

    def test_acquire_then_try_finally_release_ok(self):
        findings = lint("""
            class C:
                def good(self):
                    self._lock.acquire()
                    try:
                        work()
                    finally:
                        self._lock.release()
        """, rules=["RL010"])
        assert findings == []

    def test_acquire_inside_try_with_finally_release_ok(self):
        findings = lint("""
            class C:
                def good(self):
                    try:
                        self._lock.acquire()
                        work()
                    finally:
                        self._lock.release()
        """, rules=["RL010"])
        assert findings == []

    def test_release_in_except_handler_flagged(self):
        findings = lint("""
            class C:
                def bad(self):
                    try:
                        work()
                    except ValueError:
                        self._lock.release()
        """, rules=["RL010"])
        assert rule_ids(findings) == ["RL010"]

    def test_non_lock_receiver_ignored(self):
        findings = lint("""
            def f(sess):
                sess.pool.acquire()
                sess.pool.release()
        """, rules=["RL010"])
        assert findings == []

    def test_condition_receiver_covered(self):
        findings = lint("""
            class C:
                def bad(self):
                    self._cond.acquire()
                    work()
                    self._cond.release()
        """, rules=["RL010"])
        assert len(findings) == 2


class TestRL011ThreadConstruction:
    def test_thread_outside_sanctioned_modules(self):
        findings = lint("""
            import threading
            t = threading.Thread(target=work, daemon=True)
        """, path="src/repro/metastore/hms.py", rules=["RL011"])
        assert rule_ids(findings) == ["RL011"]

    def test_thread_in_service_with_daemon_ok(self):
        findings = lint("""
            import threading
            t = threading.Thread(target=work, daemon=True)
        """, path="src/repro/service/core.py", rules=["RL011"])
        assert findings == []

    def test_thread_in_service_without_daemon_flagged(self):
        findings = lint("""
            import threading
            t = threading.Thread(target=work)
        """, path="src/repro/service/core.py", rules=["RL011"])
        assert rule_ids(findings) == ["RL011"]

    def test_exposition_endpoint_sanctioned(self):
        findings = lint("""
            import threading
            t = threading.Thread(target=serve, daemon=True)
        """, path="src/repro/obs/exposition.py", rules=["RL011"])
        assert findings == []


# --------------------------------------------------------------------------- #
class TestRL012MetricHelp:
    def test_undocumented_metric_literal_flagged(self):
        findings = lint("""
            registry.counter("totally.new.metric", pool=p).inc()
        """, rules=["RL012"])
        assert rule_ids(findings) == ["RL012"]
        assert "totally.new.metric" in findings[0].message

    def test_catalog_entry_ok(self):
        findings = lint("""
            registry.counter("queries.total", op="select").inc()
        """, rules=["RL012"])
        assert findings == []

    def test_inline_help_ok(self):
        findings = lint("""
            registry.gauge("totally.new.metric",
                           help="documented inline").set(1)
        """, rules=["RL012"])
        assert findings == []

    def test_all_accessors_covered(self):
        code = """
            registry.counter("a.b")
            registry.gauge("c.d")
            registry.histogram("e.f")
            registry.register_callback("g.h", fn)
        """
        findings = lint(code, rules=["RL012"])
        assert rule_ids(findings) == ["RL012"] * 4

    def test_dynamic_name_is_blind_spot(self):
        # f-strings / variables are skipped by design (those sites
        # pass help= inline, which the runtime check still enforces)
        findings = lint("""
            registry.counter(f"dyn.{name}").inc()
            registry.counter(name).inc()
        """, rules=["RL012"])
        assert findings == []

    def test_undotted_literal_not_a_metric(self):
        findings = lint("""
            collections.Counter("abc")
        """, rules=["RL012"])
        assert findings == []

    def test_suppressible(self):
        findings = lint(
            'registry.counter("x.y")  # reprolint: disable=RL012\n',
            rules=["RL012"])
        assert findings == []


# --------------------------------------------------------------------------- #
class TestSuppression:
    def test_line_suppression(self):
        findings = lint(
            "def f(xs=[]):  # reprolint: disable=RL005\n"
            "    return xs\n")
        assert findings == []

    def test_line_suppression_wrong_rule_keeps_finding(self):
        findings = lint(
            "def f(xs=[]):  # reprolint: disable=RL001\n"
            "    return xs\n")
        assert rule_ids(findings) == ["RL005"]

    def test_file_suppression(self):
        findings = lint(
            "# reprolint: disable-file=RL005\n"
            "def f(xs=[]):\n"
            "    return xs\n")
        assert findings == []

    def test_rules_filter(self):
        code = ("def f(xs=[]):\n"
                "    try:\n"
                "        pass\n"
                "    except:\n"
                "        pass\n")
        assert rule_ids(lint(code, rules=["RL004"])) == ["RL004"]

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def f(:\n")
        assert rule_ids(findings) == ["RL000"]


class TestReportingAndCli:
    def test_json_report_shape(self):
        findings = [Finding("RL004", "a.py", 3, 0, "bare except")]
        doc = json.loads(report_json(findings))
        assert doc["tool"] == "reprolint"
        assert doc["total"] == 1
        assert doc["counts"] == {"RL004": 1}
        assert doc["findings"][0]["path"] == "a.py"
        assert set(doc["rules"]) == set(RULES)

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(x=None):\n    return x\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x=[]):\n    return x\n")
        assert reprolint_main([str(clean)]) == 0
        assert reprolint_main([str(dirty)]) == 1
        capsys.readouterr()
        assert reprolint_main(["--format", "json", str(dirty)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 1

    def test_cli_script_runs(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x=[]):\n    return x\n")
        tool = os.path.join(REPO_ROOT, "tools", "reprolint")
        proc = subprocess.run(
            [sys.executable, tool, "--format", "json", str(dirty)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["total"] == 1


# --------------------------------------------------------------------------- #
class TestRepoIsClean:
    def test_src_has_zero_findings(self):
        """The merge gate: the shipped source tree lints clean (real
        fixes or documented suppressions, never silent findings)."""
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_tools_reprolint_exists_and_is_executable(self):
        tool = os.path.join(REPO_ROOT, "tools", "reprolint")
        assert os.path.exists(tool)
        assert os.access(tool, os.X_OK)
