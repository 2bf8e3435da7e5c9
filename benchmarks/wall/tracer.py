"""Span tracer for the wall-clock benchmark, applied from outside ``src/``.

``Tracer.install()`` replaces the public entry points of every layer (the
``POINTS`` table) with a timing wrapper at the place callers look the name
up: methods on their class, module functions in every loaded ``repro``
module that imported them by name.  ``uninstall()`` puts the originals
back, so one process alternates traced and untraced cycles and reports the
tracing overhead itself.

A span is ``(id, name, start, end, parent, statement, value, thread)``.
Spans stay in memory; the first traced cycle's are written out once, at
the end of the run.  A span's self time is its duration minus the
durations of its direct children, which are always on the same thread.
``summarize`` sums self time by span name; ``layer_metrics`` maps those
sums onto the per-layer metrics of ``BENCHMARK.json``.

Nothing here wraps a per-row or per-value function: the finest spans are
one ORC column chunk and one file-system call.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

ROOT = "bench.op"

# -- what a span records beside its times ------------------------------------ #
# value hooks take (args, kwargs, result); args[0] is ``self`` for methods


def _rows_out(args, kwargs, result):
    return result.num_rows


def _scan_value(args, kwargs, result):
    executor, node = args[0], args[1]
    filtered = any(r in executor.semijoin_filters
                   for r in node.semijoin_sources)
    return [result.num_rows, int(filtered)]


def _tez_value(args, kwargs, result):
    """Totals of the statement's ScanMetrics and its result size."""
    executor = kwargs.get("scan_executor", args[2] if len(args) > 2 else None)
    scans = list(executor.metrics.values())
    return {"rows_out": result[0].num_rows,
            "raw_rows": sum(m.raw_rows for m in scans),
            "semijoin_filtered": sum(m.semijoin_filtered_rows
                                     for m in scans),
            "partitions_total": sum(m.partitions_total for m in scans),
            "partitions_read": sum(m.partitions_read for m in scans)}


def _read_value(args, kwargs, result):
    metrics = result[1]
    return {"dirs": len(metrics.directories),
            "delete_keys": metrics.delete_keys,
            "row_groups_total": metrics.row_groups_total,
            "row_groups_read": metrics.row_groups_read}


def _query_id(args, kwargs, result):
    return kwargs.get("query_id")


_EXEC_NAMES = {"Join": "exec.join", "Aggregate": "exec.aggregate",
               "Sort": "exec.sort", "Filter": "exec.filter_project",
               "Project": "exec.filter_project"}


def _execute_name(args) -> str:
    """``operators.execute`` spans are named by the node they run."""
    return _EXEC_NAMES.get(type(args[0]).__name__, "exec.other")


#: (module:Class or module, attribute, span name or a function of the call's
#: arguments giving it, value hook)
POINTS = [
    ("repro.sql.parser", "parse_statement", "sql.parse", None),
    ("repro.sql.analyzer:Analyzer", "analyze_query", "sql.analyze", None),
    ("repro.optimizer.planner:Optimizer", "optimize",
     "optimizer.optimize", None),
    # service
    ("repro.service.plan_cache:CompiledPlanCache", "lookup",
     "service.plan_cache.lookup", None),
    ("repro.service.plan_cache:CompiledPlanCache", "lookup_raw",
     "service.plan_cache.lookup_raw", None),
    ("repro.service.plan_cache:CompiledPlanCache", "store",
     "service.plan_cache.store", None),
    ("repro.service.plan_cache:CompiledPlanCache", "link_raw",
     "service.plan_cache.link_raw", None),
    ("repro.service.admission:AdmissionController", "acquire",
     "service.admission.acquire",
     lambda a, k, r: {"query_id": a[2] if len(a) > 2 else k["query_id"],
                      "virtual_wait_s": r}),
    ("repro.service.admission:AdmissionController", "release",
     "service.admission.release", None),
    ("repro.service.core:HiveService", "submit", "service.submit",
     lambda a, k, r: r.query_id),
    ("repro.service.core:HiveService", "poll", "service.fetch.poll", None),
    ("repro.service.operations:OperationRegistry", "wait",
     "service.wait", None),
    ("repro.service.operations:OperationRegistry", "fetch",
     "service.fetch.fetch", None),
    # server
    ("repro.server.driver:Session", "execute", "server.session.execute",
     _query_id),
    ("repro.server.driver:HiveServer2", "run_compaction",
     "server.run_compaction", None),
    ("repro.server.dml:TableWriter", "insert_rows",
     "server.dml.insert_rows", None),
    ("repro.server.dml:TableWriter", "update_where",
     "server.dml.update_where", None),
    ("repro.server.dml:TableWriter", "delete_where",
     "server.dml.delete_where", None),
    ("repro.server.dml:TableWriter", "merge", "server.dml.merge", None),
    # runtime
    ("repro.runtime.scan:ScanExecutor", "__call__", "runtime.scan",
     _scan_value),
    ("repro.runtime.scan:SemijoinFilter", "from_vector",
     "runtime.semijoin_build", None),
    ("repro.runtime.tez:TezRunner", "run", "runtime.tez", _tez_value),
    # exec
    ("repro.exec.operators", "execute", _execute_name, _rows_out),
    ("repro.exec.compile:KernelCache", "kernel",
     "exec.kernel_compile.kernel", None),
    ("repro.exec.compile:KernelCache", "predicate",
     "exec.kernel_compile.predicate", None),
    # acid
    ("repro.acid.reader:AcidReader", "read", "acid.read.read", _read_value),
    ("repro.acid.reader:AcidReader", "read_plain", "acid.read.read_plain",
     _read_value),
    ("repro.acid.writer:AcidWriter", "write_insert_delta",
     "acid.write.insert_delta", None),
    ("repro.acid.writer:AcidWriter", "write_delete_delta",
     "acid.write.delete_delta", None),
    ("repro.acid.writer:AcidWriter", "write_merged_delta",
     "acid.write.merged_delta", None),
    ("repro.acid.writer:AcidWriter", "write_base", "acid.write.base", None),
    ("repro.acid.writer:AcidWriter", "write_plain", "acid.write.plain",
     None),
    ("repro.acid.compactor:CompactionInitiator", "check_table",
     "acid.initiator", None),
    ("repro.acid.compactor:CompactionWorker", "run_one",
     "acid.compaction.run_one", lambda a, k, r: int(r is not None)),
    ("repro.acid.compactor:CompactionCleaner", "run",
     "acid.compaction.clean", None),
    # formats
    ("repro.formats.orc:OrcWriter", "write_rows",
     "formats.orc_encode.write_rows", None),
    ("repro.formats.orc:OrcWriter", "write_batch",
     "formats.orc_encode.write_batch", lambda a, k, r: a[1].num_rows),
    ("repro.formats.orc:OrcWriter", "finish", "formats.orc_encode.finish",
     lambda a, k, r: len(r)),
    ("repro.formats.orc:OrcReader", "__init__", "formats.orc_open", None),
    ("repro.formats.orc:OrcReader", "select_row_groups",
     "formats.orc_decode.select_row_groups", None),
    ("repro.formats.orc:OrcReader", "read_column",
     "formats.orc_decode.read_column", None),
    ("repro.formats.orc:OrcReader", "read_row_group",
     "formats.orc_decode.read_row_group", None),
    ("repro.formats.orc:OrcReader", "read_all",
     "formats.orc_decode.read_all", None),
    # fs
    ("repro.fs.filesystem:SimFileSystem", "create", "fs.create",
     lambda a, k, r: len(a[2] if len(a) > 2 else k["data"])),
    ("repro.fs.filesystem:SimFileSystem", "read", "fs.read",
     lambda a, k, r: len(r)),
    ("repro.fs.filesystem:SimFileSystem", "read_range", "fs.read_range",
     lambda a, k, r: len(r)),
    ("repro.fs.filesystem:SimFileSystem", "exists", "fs.exists", None),
    ("repro.fs.filesystem:SimFileSystem", "status", "fs.status", None),
    ("repro.fs.filesystem:SimFileSystem", "mkdirs", "fs.mkdirs", None),
    ("repro.fs.filesystem:SimFileSystem", "list_dirs", "fs.list_dirs",
     None),
    ("repro.fs.filesystem:SimFileSystem", "list_files", "fs.list_files",
     None),
    ("repro.fs.filesystem:SimFileSystem", "delete", "fs.delete", None),
    ("repro.fs.filesystem:SimFileSystem", "rename", "fs.rename", None),
    # llap
    ("repro.llap.elevator:LlapReaderFactory", "open", "llap.read.open",
     None),
    ("repro.llap.elevator:_CachedReader", "read_row_group",
     "llap.read.read_row_group", None),
    ("repro.llap.elevator:_CachedReader", "read_all", "llap.read.read_all",
     None),
    # metastore
    ("repro.metastore.stats:TableStatistics", "from_rows",
     "metastore.stats.from_rows", None),
    ("repro.metastore.stats:ColumnStatistics", "update_all",
     "metastore.stats.update_all", None),
    ("repro.metastore.hms:HiveMetastore", "update_statistics",
     "metastore.stats.update_statistics", None),
    ("repro.metastore.hms:HiveMetastore", "get_table",
     "metastore.catalog.get_table", None),
    ("repro.metastore.txn:TransactionManager", "open_transaction",
     "metastore.txn.open_transaction", None),
    ("repro.metastore.txn:TransactionManager", "commit",
     "metastore.txn.commit", None),
    ("repro.metastore.txn:TransactionManager", "allocate_write_id",
     "metastore.txn.allocate_write_id", None),
    ("repro.metastore.txn:TransactionManager", "get_snapshot",
     "metastore.txn.get_snapshot", None),
    ("repro.metastore.txn:TransactionManager", "valid_write_ids",
     "metastore.txn.valid_write_ids", None),
    ("repro.metastore.locks:LockManager", "acquire",
     "metastore.lock_wait", None),
    # common
    ("repro.common.vector:VectorBatch", "to_rows", "common.to_rows", None),
    # obs
    ("repro.obs.hooks:HookRegistry", "fire", "obs.hooks", None),
    ("repro.obs.service:Observability", "record_query",
     "obs.record_query", None),
    ("repro.obs.service:Observability", "start_trace", "obs.trace", None),
    ("repro.obs.service:Observability", "monitor_tick", "obs.monitor",
     None),
    ("repro.obs.live:LiveQueryRegistry", "register", "obs.live.register",
     None),
    ("repro.obs.live:LiveQueryRegistry", "update", "obs.live.update", None),
    ("repro.obs.live:LiveQueryRegistry", "finish", "obs.live.finish", None),
]


def repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def digest_properties():
    """``(class, property)`` for every plan node class defining ``digest``."""
    rel = importlib.import_module("repro.plan.relnodes")
    pending, seen = [rel.RelNode], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if isinstance(cls.__dict__.get("digest"), property):
            yield cls, cls.__dict__["digest"]


class _ThreadLog:
    """One thread's open-span stack and the spans it has closed.

    ``flat`` holds seven values per span, appended in one call.  A list of
    numbers and strings costs the garbage collector nothing, where a tuple
    per span (40k a cycle) made it run full collections inside the traced
    cycles and charged them to whichever span was open.
    """

    __slots__ = ("stack", "thread", "statement", "root", "flat")

    def __init__(self, thread: int):
        self.stack: list = []
        self.thread = thread
        self.statement = None
        self.root = None
        self.flat: list = []


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self):
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._threads = itertools.count(1)
        self._digest_calls = itertools.count()
        self._digest_reads = 0
        #: every thread that recorded a span (list.append is atomic)
        self._logs: list = []
        #: (owner, attribute, original) for every replaced attribute
        self._patched: list = []
        #: (attribute, original, wrapper) for every module function
        self._functions: list = []
        self.installed = False

    # -- patching -------------------------------------------------------- #
    def install(self, count_digests: bool = True) -> None:
        """Swap the wrappers in; ``count_digests`` also counts every
        ``RelNode.digest`` evaluation (140k a cycle on
        ``service_dashboards``, so only the cycle that reports counts)."""
        if self.installed:
            return
        for target, attr, name, value_of in POINTS:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                self._patch_method(getattr(module, class_name), attr, name,
                                   value_of)
            else:
                self._patch_function(getattr(module, attr), attr, name,
                                     value_of)
        if count_digests:
            self._patch_digests()
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # a module first imported during a traced cycle took the wrapper
        for attr, original, wrapper in self._functions:
            for module in repro_modules():
                if module.__dict__.get(attr) is wrapper:
                    setattr(module, attr, original)
        self._functions.clear()
        self.installed = False

    def _replace(self, owner, attr: str, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls, attr, name, value_of) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self._wrap(original.__func__, name, value_of))
        else:
            replacement = self._wrap(original, name, value_of)
        self._replace(cls, attr, original, replacement)

    def _patch_function(self, fn, attr, name, value_of) -> None:
        """Every loaded repro module that holds ``fn`` under ``attr``."""
        replacement = self._wrap(fn, name, value_of)
        self._functions.append((attr, fn, replacement))
        for module in repro_modules():
            if module.__dict__.get(attr) is fn:
                self._replace(module, attr, fn, replacement)

    def _patch_digests(self) -> None:
        """Count ``RelNode.digest`` evaluations on every node class."""
        counter = self._digest_calls
        for cls, original in list(digest_properties()):
            def fget(node, _get=original.fget):
                next(counter)
                return _get(node)
            self._replace(cls, "digest", original, property(fget))

    def digest_calls(self) -> int:
        """Digest evaluations so far (each reading consumes one tick)."""
        self._digest_reads += 1
        return next(self._digest_calls) - (self._digest_reads - 1)

    def _log(self) -> _ThreadLog:
        """This thread's log, made on its first span."""
        log = _ThreadLog(next(self._threads))
        self._logs.append(log)
        self._tls.log = log
        return log

    def _wrap(self, fn, name, value_of=None):
        name_of = name if callable(name) else None
        tls, ids = self._tls, self._ids
        clock, new_log = time.perf_counter, self._log

        def wrapper(*args, **kwargs):
            try:
                log = tls.log
            except AttributeError:
                log = new_log()
            stack = log.stack
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                log.flat.extend((span_id, name_of(args) if name_of else name,
                                 start, end, parent, log.statement, None))
                raise
            end = clock()
            stack.pop()
            log.flat.extend((span_id, name_of(args) if name_of else name,
                             start, end, parent, log.statement,
                             value_of(args, kwargs, result) if value_of
                             else None))
            return result

        return functools.wraps(fn)(wrapper)

    # -- the benchmark's own root span per operation ----------------------- #
    def begin_op(self, statement: str) -> None:
        try:
            log = self._tls.log
        except AttributeError:
            log = self._log()
        log.statement = statement
        log.root = (next(self._ids), time.perf_counter())
        log.stack.append(log.root[0])

    def end_op(self) -> None:
        end = time.perf_counter()
        log = self._tls.log
        span_id, start = log.root
        log.stack.pop()
        log.flat.extend((span_id, ROOT, start, end, 0, log.statement, None))
        log.statement = None

    def take_spans(self) -> list:
        """Hand over the spans recorded so far and start afresh.

        Call between cycles, when no traced thread is running.
        """
        taken = []
        for log in self._logs:
            flat, log.flat = log.flat, []
            taken.extend(tuple(flat[at:at + 7]) + (log.thread,)
                         for at in range(0, len(flat), 7))
        taken.sort(key=lambda span: span[END])
        return resolve_statements(taken)


# --------------------------------------------------------------------------- #
# reading spans

ID, NAME, START, END, PARENT, STATEMENT, VALUE, THREAD = range(8)


def resolve_statements(spans: list) -> list:
    """Give worker-thread spans the statement of the operation they serve.

    A service statement runs on its own thread, which the tracer first sees
    inside the program; ``HiveService.submit`` on the client thread and
    ``Session.execute`` / ``AdmissionController.acquire`` on the worker
    carry the same query id.
    """
    by_query = {s[VALUE]: s[STATEMENT] for s in spans
                if s[NAME] == "service.submit" and s[VALUE] is not None}
    by_thread = {}
    for s in spans:
        if s[STATEMENT] is None and s[VALUE] is not None:
            query_id = (s[VALUE] if s[NAME] == "server.session.execute"
                        else s[VALUE].get("query_id")
                        if s[NAME] == "service.admission.acquire" else None)
            if query_id in by_query:
                by_thread[s[THREAD]] = by_query[query_id]
    return [s if s[STATEMENT] is not None or s[THREAD] not in by_thread
            else s[:STATEMENT] + (by_thread[s[THREAD]],) + s[VALUE:]
            for s in spans]


def self_times(spans: list) -> dict:
    """span id -> duration minus the durations of its direct children."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def write_spans(spans: list, path: str) -> None:
    keys = ("id", "name", "start", "end", "parent", "statement", "value",
            "thread")
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _descendant_sum(spans: list, ancestor_prefix: str, name: str) -> float:
    """Sum of ``value`` over ``name`` spans below an ``ancestor`` span."""
    parent = {s[ID]: s[PARENT] for s in spans}
    inside = {s[ID] for s in spans if s[NAME].startswith(ancestor_prefix)}
    total = 0
    for s in spans:
        if s[NAME] != name or s[VALUE] is None:
            continue
        at = s[PARENT]
        while at and at not in inside:
            at = parent.get(at, 0)
        if at:
            total += s[VALUE]
    return total


def summarize(spans: list) -> dict:
    """Everything ``layer_metrics`` needs from one traced cycle."""
    own = self_times(spans)
    self_ms, calls = defaultdict(float), defaultdict(int)
    for s in spans:
        self_ms[s[NAME]] += own[s[ID]] * 1000.0
        calls[s[NAME]] += 1
    values = defaultdict(list)
    for s in spans:
        if s[VALUE] is not None:
            values[s[NAME]].append(s[VALUE])

    def total(name: str, key: str) -> float:
        return sum(v[key] for v in values[name])

    roots = [s for s in spans if s[NAME] == ROOT]
    executes = [s for s in spans if s[NAME] == "server.session.execute"]
    submits = {s[VALUE]: s[START] for s in spans
               if s[NAME] == "service.submit"}
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
    joins = [s for s in spans if s[NAME] == "exec.join"]
    reads = values["acid.read.read"] + values["acid.read.read_plain"]
    scans = values["runtime.scan"]
    probed = sum(rows for rows, filtered in scans if filtered) \
        + total("runtime.tez", "semijoin_filtered")
    compactions = [s for s in spans if s[NAME] == "server.run_compaction"]
    return {
        "self_ms": dict(self_ms), "calls": dict(calls),
        "root_wall_ms": sum(s[END] - s[START] for s in roots) * 1000.0,
        "root_self_ms": self_ms.get(ROOT, 0.0),
        "all_self_ms": sum(self_ms.values()),
        "statements": len(roots),
        "execute_wall_ms": sum(s[END] - s[START]
                               for s in executes) * 1000.0,
        "dispatch_ms": sum(s[START] - submits[s[VALUE]] for s in executes
                           if s[VALUE] in submits) * 1000.0,
        "admission_virtual_wait_ms": total(
            "service.admission.acquire", "virtual_wait_s") * 1000.0,
        "semijoin_rows_probed": probed,
        "semijoin_filtered": total("runtime.tez", "semijoin_filtered"),
        "partitions_total": total("runtime.tez", "partitions_total"),
        "partitions_read": total("runtime.tez", "partitions_read"),
        "raw_rows": total("runtime.tez", "raw_rows"),
        "result_rows": total("runtime.tez", "rows_out"),
        "join_rows_in": sum(c[VALUE] for j in joins
                            for c in children[j[ID]]
                            if c[NAME].startswith("exec.")
                            and isinstance(c[VALUE], int)),
        "join_rows_out": sum(j[VALUE] or 0 for j in joins),
        "acid_reads": len(reads),
        "acid_dirs": sum(v["dirs"] for v in reads),
        "delete_keys": sum(v["delete_keys"] for v in reads),
        "row_groups_total": sum(v["row_groups_total"] for v in reads),
        "row_groups_read": sum(v["row_groups_read"] for v in reads),
        "compaction_runs": sum(values["acid.compaction.run_one"]),
        "compaction_rewritten_bytes": _descendant_sum(
            spans, "acid.compaction.run_one", "fs.create"),
        "compaction_stall_max_ms": max(
            [s[END] - s[START] for s in compactions], default=0.0) * 1000.0,
        "encoded_bytes": sum(values["formats.orc_encode.finish"]),
        "encoded_rows": sum(values["formats.orc_encode.write_batch"]),
    }


# --------------------------------------------------------------------------- #
# per-layer metrics

#: metric -> span-name prefixes whose self time (ms per traced cycle) it is
SELF_MS = {
    "sql.parse_ms": ("sql.parse",),
    "sql.analyze_ms": ("sql.analyze",),
    "optimizer.optimize_ms": ("optimizer.optimize",),
    "service.plan_cache_ms": ("service.plan_cache.",),
    "service.admission_ms": ("service.admission.",),
    "service.fetch_ms": ("service.fetch.",),
    "server.session_self_ms": ("server.session.",),
    "server.dml_self_ms": ("server.dml.",),
    "runtime.scan_self_ms": ("runtime.scan",),
    "runtime.semijoin_build_ms": ("runtime.semijoin_build",),
    "runtime.tez_self_ms": ("runtime.tez",),
    "exec.join_ms": ("exec.join",),
    "exec.aggregate_ms": ("exec.aggregate",),
    "exec.sort_ms": ("exec.sort",),
    "exec.filter_project_ms": ("exec.filter_project",),
    "exec.other_ms": ("exec.other",),
    "exec.kernel_compile_ms": ("exec.kernel_compile.",),
    "acid.read_self_ms": ("acid.read.",),
    "acid.write_ms": ("acid.write.",),
    "acid.initiator_ms": ("acid.initiator",),
    "acid.compaction_ms": ("acid.compaction.", "server.run_compaction"),
    "formats.orc_encode_ms": ("formats.orc_encode.",),
    "formats.orc_open_ms": ("formats.orc_open",),
    "formats.orc_decode_ms": ("formats.orc_decode.",),
    "fs.self_ms": ("fs.",),
    "llap.read_ms": ("llap.read.",),
    "metastore.stats_ms": ("metastore.stats.",),
    "metastore.txn_ms": ("metastore.txn.",),
    "metastore.lock_wait_ms": ("metastore.lock_wait",),
    "metastore.catalog_ms": ("metastore.catalog.",),
    "common.to_rows_ms": ("common.to_rows",),
    "obs.hooks_ms": ("obs.hooks",),
    "obs.record_query_ms": ("obs.record_query",),
    "obs.trace_ms": ("obs.trace",),
    "obs.live_ms": ("obs.live.",),
    "obs.monitor_ms": ("obs.monitor",),
}


def _prefixed(table: dict, prefixes) -> float:
    return sum(v for name, v in table.items()
               if any(name == p or name.startswith(p) for p in prefixes))


def layer_metrics(summaries: list, counters: dict, digest_calls: int,
                  traced_walls: list, untraced_walls: list,
                  cold_cycle_s: float, kernels: dict) -> dict:
    """The per-layer metrics of ``BENCHMARK.json``.

    Times are medians over the traced cycles; counts and ratios come from
    the first traced cycle, whose work the seed fixes.  ``counters`` are the
    program's own counters (IOStats, CacheStats, PlanCacheStats) over that
    first traced cycle.
    """
    first = summaries[0]
    out = {metric: statistics.median(
        _prefixed(s["self_ms"], prefixes) for s in summaries)
        for metric, prefixes in SELF_MS.items()}

    def median_of(key: str) -> float:
        return statistics.median(s[key] for s in summaries)

    calls = first["calls"]
    out.update({
        "sql.parse_calls": calls.get("sql.parse", 0),
        "optimizer.optimize_calls": calls.get("optimizer.optimize", 0),
        "plan.digest_calls_per_stmt": _ratio(digest_calls,
                                             first["statements"]),
        "service.plan_cache_hit_ratio": _ratio(
            counters["plan.hits"],
            counters["plan.hits"] + counters["plan.misses"]),
        "service.plan_cache_evictions": counters["plan.evictions"],
        "service.admission_wait_ms": median_of("admission_virtual_wait_ms"),
        "service.dispatch_ms": median_of("dispatch_ms"),
        "server.cold_cycle_ms": cold_cycle_s * 1000.0,
        "runtime.scan_calls": calls.get("runtime.scan", 0),
        "runtime.semijoin_rows_probed": first["semijoin_rows_probed"],
        "runtime.semijoin_filtered_ratio": _ratio(
            first["semijoin_filtered"], first["semijoin_rows_probed"]),
        "runtime.partitions_read_ratio": _ratio(
            first["partitions_read"], first["partitions_total"]),
        "exec.join_rows_in": first["join_rows_in"],
        "exec.join_rows_out": first["join_rows_out"],
        "exec.rows_examined_per_result_row": _ratio(
            first["raw_rows"], first["result_rows"]),
        "acid.dirs_per_read": _ratio(first["acid_dirs"],
                                     first["acid_reads"]),
        "acid.delete_keys_merged": first["delete_keys"],
        "acid.compaction_runs": first["compaction_runs"],
        "acid.compaction_rewritten_bytes":
            first["compaction_rewritten_bytes"],
        "acid.compaction_stall_max_ms": median_of(
            "compaction_stall_max_ms"),
        "formats.row_groups_read_ratio": _ratio(
            first["row_groups_read"], first["row_groups_total"]),
        "formats.encoded_bytes_per_row": _ratio(
            first["encoded_bytes"], first["encoded_rows"]),
        "fs.calls": sum(n for name, n in calls.items()
                        if name.startswith("fs.")),
        "fs.bytes_read": counters["fs.bytes_read"],
        "fs.bytes_written": counters["fs.bytes_written"],
        "llap.cache_hit_ratio": _ratio(
            counters["llap.hits"],
            counters["llap.hits"] + counters["llap.misses"]),
        "llap.evictions": counters["llap.evictions"],
        "obs.share_of_stmt": _ratio(
            sum(out[m] for m in SELF_MS if m.startswith("obs.")),
            median_of("execute_wall_ms")),
        "bench.trace_overhead_share": _ratio(
            statistics.median(traced_walls)
            - statistics.median(untraced_walls),
            statistics.median(untraced_walls)),
        "bench.unattributed_share": _ratio(
            median_of("root_self_ms"), median_of("root_wall_ms")),
    })
    out.update(kernels)
    return out


# --------------------------------------------------------------------------- #
# common: per-value kernels, timed on fixed arrays outside any workload

KERNEL_VALUES = 100_000


def common_kernels(seed: int, values: int = KERNEL_VALUES) -> dict:
    """ns per value of the sketches and the RLE codec.

    The workloads never wrap these (they run per value); instead each is
    timed once over seeded int and string arrays of ``values`` elements.
    """
    import random

    import numpy as np
    from repro.common import rle
    from repro.common.bloom import BloomFilter
    from repro.common.hll import HyperLogLog

    rng = random.Random(seed)
    ints = [rng.randrange(values // 4) for _ in range(values // 2)]
    strings = [f"v{rng.randrange(values // 4):06d}"
               for _ in range(values // 2)]
    # runs of equal neighbours, as sorted or low-cardinality columns have
    runs = np.repeat(np.array(ints[:values // 8], dtype=np.int64), 4)
    labels = np.empty(len(runs), dtype=object)
    labels[:] = [strings[i // 4] for i in range(len(runs))]

    def ns_per_value(fn, count: int) -> float:
        start = time.perf_counter()
        fn()
        return (time.perf_counter() - start) * 1e9 / count

    bloom = BloomFilter(values)
    out = {"common.bloom_add_ns": ns_per_value(
        lambda: (bloom.add_all(ints), bloom.add_all(strings)), values)}
    probe_ints = np.array(ints, dtype=np.int64)
    probe_strings = np.empty(len(strings), dtype=object)
    probe_strings[:] = strings
    out["common.bloom_probe_ns"] = ns_per_value(
        lambda: (bloom.might_contain_many(probe_ints),
                 bloom.might_contain_many(probe_strings)), values)
    sketch = HyperLogLog()
    out["common.hll_add_ns"] = ns_per_value(
        lambda: (sketch.add_all(ints), sketch.add_all(strings)), values)
    encoded = []
    out["common.rle_encode_ns"] = ns_per_value(
        lambda: encoded.extend((rle.encode(runs), rle.encode(labels))),
        2 * len(runs))
    out["common.rle_decode_ns"] = ns_per_value(
        lambda: (rle.decode(encoded[0], runs.dtype),
                 rle.decode(encoded[1], labels.dtype)), 2 * len(runs))
    return out
