"""Warehouse configuration (the analogue of HiveConf).

A :class:`HiveConf` instance carries every tunable used across the stack:
optimizer feature flags, runtime/LLAP switches, ACID thresholds, and the
cost-model constants the cluster simulator charges for IO, network and
container start-up.

Two factory profiles reproduce the versions compared in the paper's
Figure 7:

* :func:`HiveConf.v3_profile` — Hive 3.1: CBO, shared-work optimization,
  dynamic semijoin reduction, vectorization, LLAP, result cache, full SQL.
* :func:`HiveConf.legacy_profile` — Hive 1.2: rule-based only, no LLAP, no
  vectorized execution, restricted SQL surface.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import AnalysisError, ConfigError

_BOOL_SPELLINGS = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}

#: accepted spellings of the ``check_plan`` mode, mapped to canon
_CHECK_PLAN_MODES = {
    "paranoid": "paranoid",
    **{word: "on" if flag else "off"
       for word, flag in _BOOL_SPELLINGS.items()},
}


def _optional_int(raw: str) -> Optional[int]:
    return None if raw.lower() in ("none", "null") else int(raw)


#: field annotation -> (parser of a SET value, raising ValueError or
#: KeyError on a bad one; what the error message says was expected)
_KNOB_TYPES = {
    "bool": (lambda raw: _BOOL_SPELLINGS[raw.lower()],
             "a boolean (true/false, 1/0, yes/no, on/off)"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
    "Optional[int]": (_optional_int, "an integer or none"),
}


@dataclass(frozen=True)
class Knob:
    """One ``SET``-able :class:`HiveConf` field, built from its
    :func:`knob` declaration.  SET lookup and coercion, the range checks
    of ``validate()``, mirroring into the server conf, the plan-cache
    digest's field list and the README reference all derive from these
    records."""

    attr: str
    type: str                  # the field's annotation, a _KNOB_TYPES key
    default: object
    doc: str
    names: tuple = ()          # hive.* SET names; ``attr`` always works too
    env: str = ""              # environment variable overriding the default
    scope: str = "session"     # "server": one live value for every session
    plan: bool = False         # changes the shape of an optimized plan
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None
    choices: tuple = ()

    def parse(self, key: str, raw: str):
        """Typed value of ``SET key=raw``."""
        parser, expected = _KNOB_TYPES[self.type]
        try:
            return parser(raw)
        except (KeyError, ValueError):
            raise AnalysisError(f"invalid value {raw!r} for {key}: "
                                f"expected {expected}") from None

    @property
    def bounds(self) -> str:
        """The accepted range, ``""`` when any value of the type is."""
        if self.choices:
            return "one of " + ", ".join(self.choices)
        low = self.gt if self.ge is None else self.ge
        high = self.lt if self.le is None else self.le
        if low is None:
            return ""
        if high is None:
            return f"{'>' if self.ge is None else '>='} {low}"
        return (f"{'(' if self.ge is None else '['}{low}, "
                f"{high}{')' if self.le is None else ']'}")

    def check(self, value) -> None:
        if self.choices:
            ok = value in self.choices
        else:
            ok = value is None or (
                (self.ge is None or value >= self.ge)
                and (self.gt is None or value > self.gt)
                and (self.le is None or value <= self.le)
                and (self.lt is None or value < self.lt))
        if not ok:
            raise ConfigError(
                f"{self.attr} must be {self.bounds}, got {value!r}")


def knob(default, *names: str, doc: str, env: str = "", **spec):
    """Declare a :class:`HiveConf` field as a knob (see :class:`Knob`).

    ``names`` are its ``hive.*`` SET names; ``env`` names an environment
    variable that, when set, replaces ``default`` for a whole process
    (CI replays the suite under plan checking and fault injection)."""
    meta = {"knob": dict(default=default, names=names, doc=doc, env=env,
                         **spec)}
    if env:
        return field(metadata=meta, default_factory=lambda: type(default)(
            os.environ.get(env, default)))
    return field(metadata=meta, default=default)


@dataclass
class CostModelConf:
    """Constants for the simulated-time cost model.

    All times are in (virtual) seconds; throughputs in bytes per second.
    Values are calibrated so that relative effects match the paper's
    cluster (10 nodes, 10 GbE, 2 x 6TB disks): the absolute scale is
    arbitrary, the ratios are what the experiments measure.
    """

    #: time to allocate and launch a YARN container (Section 5, bottleneck
    #: for low-latency queries when LLAP is disabled).  Containers for a
    #: query's DAG are allocated once, up front.
    container_startup_s: float = 2.5
    #: scheduling overhead to dispatch a fragment to an LLAP executor.
    llap_dispatch_s: float = 0.02
    #: disk scan throughput per node.
    disk_bytes_per_s: float = 200e6
    #: LLAP in-memory cache read throughput per node.
    cache_bytes_per_s: float = 4e9
    #: network shuffle throughput per node (10 GbE shared).
    network_bytes_per_s: float = 1.0e9
    #: per-row CPU cost for row-at-a-time (non-vectorized) operators.
    row_cpu_s: float = 1.0e-6
    #: per-row CPU cost under vectorized execution.
    vector_cpu_s: float = 2.5e-7
    #: multiplier applied to CPU work on cold JIT (fresh container); LLAP
    #: daemons are long-lived so their code is always warm.
    jit_cold_multiplier: float = 1.3
    #: fixed per-query compile/submit overhead in HS2.
    compile_overhead_s: float = 0.15
    #: compile/submit overhead when the serving layer's compiled plan
    #: cache hits: the statement skips parse/analyze/optimize and only
    #: pays the handle lookup + DAG submission.
    plan_cache_hit_compile_s: float = 0.01
    #: per-vertex task setup cost inside an already-running container.
    task_setup_s: float = 0.05
    #: per-file open cost (namenode round trip + footer read) — what
    #: makes uncompacted delta pile-ups expensive (Section 3.2).
    file_open_s: float = 0.05
    #: per-row cost of the merge-on-read anti-join against delete
    #: deltas; deliberately row-at-a-time (not vectorizable), matching
    #: the Section 8 discussion of the first ACID design's penalty.
    merge_row_s: float = 4.0e-7
    #: virtual dataset magnification: every byte and row the runtime
    #: observes is charged as ``data_scale`` of them.  Benchmarks use
    #: this to model the paper's 10 TB runs with laptop-sized inputs —
    #: the relative effects (startup vs IO vs CPU) then match large-
    #: scale behaviour (see DESIGN.md, substitutions).
    data_scale: float = 1.0


@dataclass
class HiveConf:
    """Complete configuration for one warehouse instance or session.

    Every scalar field is declared with :func:`knob` and is SET-able by
    its field name and its ``hive.*`` names; :data:`NOT_SETTABLE` lists
    the rest.  README's "Configuration reference" is generated from
    these declarations (``tools/knob_docs``).
    """

    # ------------------------------------------------------------------ #
    # identification
    name: str = "hive-3.1"

    # ------------------------------------------------------------------ #
    # SQL surface (Figure 7: legacy Hive 1.2 lacked these)
    support_setops: bool = knob(True, doc="INTERSECT / EXCEPT")
    support_nonequi_correlation: bool = knob(
        True, doc="correlated subqueries with non-equality predicates")
    support_interval_notation: bool = knob(
        True, doc="INTERVAL 'n' unit literals")
    support_order_by_unselected: bool = knob(
        True, doc="ORDER BY a column the select list dropped")
    support_grouping_sets: bool = knob(
        True, doc="GROUPING SETS / ROLLUP / CUBE")

    # ------------------------------------------------------------------ #
    # optimizer (Section 4)
    cbo_enabled: bool = knob(
        True, "hive.cbo.enable", plan=True,
        doc="Calcite-style cost-based stages")
    join_reordering: bool = knob(
        True, "hive.auto.convert.join", plan=True,
        doc="cost-based join reordering")
    filter_pushdown: bool = knob(
        True, plan=True, doc="push predicates towards the scans")
    project_pruning: bool = knob(
        True, plan=True, doc="drop unreferenced columns")
    constant_folding: bool = knob(
        True, plan=True, doc="evaluate constant expressions at compile")
    partition_pruning: bool = knob(
        True, plan=True, doc="skip partitions a predicate excludes")
    shared_work_optimization: bool = knob(
        True, "hive.optimize.shared.work", plan=True,
        doc="merge identical scan subtrees (Section 4.5)")
    semijoin_reduction: bool = knob(
        True, "hive.optimize.semijoin.reduction", plan=True,
        doc="dynamic semijoin reduction (Section 4.6)")
    semijoin_bloom_fpp: float = knob(
        0.05, plan=True, gt=0.0, lt=1.0,
        doc="false-positive rate of the semijoin Bloom filters")
    mv_rewriting: bool = knob(
        True, "hive.materializedview.rewriting", plan=True,
        doc="rewrite queries over materialized views (Section 4.4)")
    federation_pushdown: bool = knob(
        True, plan=True,
        doc="push computation to storage handlers (Section 6.2)")
    check_plan: str = knob(
        "off", "hive.check.plan", env="HIVE_CHECK_PLAN",
        doc="plan-invariant validation (repro.lint.plan_check): off, "
            "on (after every optimizer stage) or paranoid (after every "
            "individual rule too); true/false synonyms accepted")

    # ------------------------------------------------------------------ #
    # re-optimization (Section 4.2)
    reexecution_strategy: str = knob(
        "reoptimize", "hive.query.reexecution.strategy",
        choices=("overlay", "reoptimize", "off"),
        doc="what a retriable vertex failure triggers: re-run under "
            "reexecution_overlay, re-plan with the captured runtime "
            "statistics, or fail")
    #: config overrides applied on every re-execution (overlay strategy)
    reexecution_overlay: dict = field(default_factory=dict)
    runtime_stats_feedback: bool = knob(
        False,
        doc="feed runtime statistics persisted in HMS back into the "
            "optimizer on every compilation (§9 roadmap).  Off: "
            "observed cardinalities go stale when data changes, so "
            "opting in is a workload decision (LEO / Oracle adaptive "
            "stats)")
    hash_join_memory_rows: Optional[int] = knob(
        None, plan=True,
        doc="simulated per-query memory budget for hash-join build "
            "sides, in rows; none = unlimited.  Exceeding it raises "
            "OutOfMemoryError, which triggers re-execution")

    # ------------------------------------------------------------------ #
    # result cache (Section 4.3)
    results_cache_enabled: bool = knob(
        True, "hive.query.results.cache.enabled",
        doc="serve identical queries over unchanged data from the "
            "server-wide results cache")

    # ------------------------------------------------------------------ #
    # serving layer (repro.service — the HiveServer2 front door)
    server2_session_ttl_s: float = knob(
        600.0, "hive.server2.session.ttl.s", scope="server", gt=0.0,
        doc="virtual seconds a pooled session may sit idle before the "
            "housekeeper tick expires it")
    server2_max_sessions_per_tenant: int = knob(
        64, "hive.server2.tenant.max.sessions", scope="server", ge=1,
        doc="open-session quota per tenant")
    server2_queue_timeout_s: float = knob(
        30.0, "hive.server2.admission.queue.timeout.s", scope="server",
        gt=0.0,
        doc="wall-clock seconds a submission may wait in the admission "
            "queue before it is rejected")
    server2_default_parallelism: int = knob(
        8, "hive.server2.default.parallelism", scope="server", ge=1,
        doc="run-slot limit for pools with no active WM resource plan, "
            "and for the implicit default pool")
    plan_cache_enabled: bool = knob(
        True, "hive.server2.plan.cache.enabled",
        doc="compiled plan cache: repeated statements skip parse/"
            "analyze/optimize.  Session-scoped by design — it gates "
            "this session's lookups, like results_cache_enabled")
    plan_cache_max_entries: int = knob(
        256, "hive.server2.plan.cache.max.entries", scope="server", ge=1,
        doc="LRU bound on compiled plans")

    # ------------------------------------------------------------------ #
    # runtime (Section 5)
    vectorized_execution: bool = knob(
        True, "hive.vectorized.execution.enabled", plan=True,
        doc="columnar operator execution (cost-model era toggle)")
    llap_enabled: bool = knob(
        True, "hive.llap.execution.mode", "hive.llap.enabled", plan=True,
        doc="run fragments on long-lived LLAP daemons instead of fresh "
            "Tez containers")
    llap_cache_enabled: bool = knob(
        True, "hive.llap.io.enabled",
        doc="read through the LLAP in-memory data cache")
    llap_cache_capacity_bytes: int = knob(
        512 << 20, doc="LLAP data cache size, read at server start")

    # ------------------------------------------------------------------ #
    # observability (repro.obs)
    obs_query_log_capacity: int = knob(
        1000, "hive.obs.query.log.capacity", scope="server", ge=1,
        doc="ring-buffer capacity of the in-memory query log; evicted "
            "entries spill to the overflow store so sys.query_log "
            "stays complete")
    straggler_skew_threshold: float = knob(
        2.0, "hive.obs.straggler.skew.threshold", gt=1.0,
        doc="a vertex is flagged a straggler when its modeled max-task"
            "/median-task duration ratio reaches this factor")
    monitor_http_port: int = knob(
        0, "hive.monitor.http.port", scope="server", ge=0, le=65535,
        doc="monitor endpoint port; > 0 starts the HTTP server at that "
            "port, 0 leaves it to an explicit obs.start_http() (which "
            "binds an ephemeral port)")
    monitor_sample_interval_s: float = knob(
        5.0, "hive.monitor.sample.interval.s", scope="server",
        doc="virtual seconds between cluster-state timeseries samples "
            "(<= 0 disables interval sampling; /metrics scrapes still "
            "record scrape-time samples)")
    lint_sanitize_longhold_s: float = knob(
        5.0, "hive.lint.sanitize.longhold.s", scope="server", gt=0.0,
        doc="lock sanitizer long-hold threshold in wall seconds: a "
            "sanitized lock held longer is reported in "
            "sys.lint_findings.  Only consulted under HIVE_SANITIZE=1")
    qstore_enabled: bool = knob(
        True, "hive.query.store.enabled", scope="server",
        doc="record statements in the query store (sys.query_store) "
            "at all")
    qstore_capacity: int = knob(
        512, "hive.query.store.capacity", scope="server", ge=1,
        doc="fingerprints retained (LRU on last virtual use)")
    qstore_window_s: float = knob(
        300.0, "hive.query.store.window.s", scope="server", gt=0.0,
        doc="virtual seconds per latency window; samples from "
            "completed windows form the per-fingerprint regression "
            "baseline")
    qstore_regression_threshold: float = knob(
        1.5, "hive.query.store.regression.threshold", scope="server",
        gt=1.0,
        doc="a regression fires when current-window p95 exceeds "
            "baseline p95 by more than this factor")
    qstore_regression_min_samples: int = knob(
        5, "hive.query.store.regression.min.samples", scope="server",
        ge=1, doc="samples required on both sides before comparing")
    lineage_enabled: bool = knob(
        True, "hive.lineage.enabled", scope="server",
        doc="column-level lineage extraction; when off, post-exec "
            "hooks skip the plan walk")
    lineage_capacity: int = knob(
        512, "hive.lineage.capacity", scope="server", ge=1,
        doc="statement fingerprints retained in the lineage graph "
            "(LRU on last record)")
    audit_capacity: int = knob(
        1000, "hive.audit.capacity", scope="server", ge=1,
        doc="ring-buffer capacity of the per-tenant audit log; evicted "
            "records spill to the overflow store so sys.audit_log "
            "stays complete")
    hook_timeout_s: float = knob(
        1.0, "hive.hook.timeout.s", scope="server", gt=0.0,
        doc="wall-clock budget per execution hook; a hook exceeding "
            "it is quarantined for subsequent statements")

    # ------------------------------------------------------------------ #
    # ACID (Section 3.2)
    acid_enabled: bool = knob(
        True, doc="managed ORC tables are transactional unless "
                  "TBLPROPERTIES says otherwise")
    compaction_delta_threshold: int = knob(
        10, doc="delta directories that trigger a minor compaction")
    txn_timeout_s: float = knob(
        300.0, "hive.txn.timeout.s", scope="server", gt=0.0,
        doc="virtual seconds without a heartbeat before "
            "AcidHouseKeeper aborts an open transaction and releases "
            "its locks")

    # ------------------------------------------------------------------ #
    # fault injection & recovery (repro.faults; §3.2/§4 failure paths).
    # Rates are probabilities; decisions are deterministic in
    # ``faults_seed`` so injected runs are reproducible.
    faults_seed: int = knob(
        0, "hive.faults.seed", env="HIVE_FAULTS_SEED", scope="server",
        doc="seed for every fault decision")
    faults_task_fail_rate: float = knob(
        0.0, "hive.faults.task.fail.rate", env="HIVE_FAULTS_RATE",
        ge=0.0, le=1.0, doc="Tez task attempt failure probability")
    faults_io_error_rate: float = knob(
        0.0, "hive.faults.io.error.rate", env="HIVE_FAULTS_RATE",
        scope="server", ge=0.0, le=1.0,
        doc="file-read error probability (the re-read is charged)")
    faults_node_fail_rate: float = knob(
        0.0, "hive.faults.node.fail.rate", ge=0.0, le=1.0,
        doc="per-query LLAP daemon death probability")
    faults_slow_node_rate: float = knob(
        0.0, "hive.faults.slow.node.rate", ge=0.0, le=1.0,
        doc="per-task slow-node probability")
    faults_slow_node_multiplier: float = knob(
        4.0, "hive.faults.slow.node.multiplier", ge=1.0,
        doc="duration multiplier for slowed tasks")
    faults_lock_stall_rate: float = knob(
        0.0, "hive.faults.lock.stall.rate", ge=0.0, le=1.0,
        doc="probability a transaction's client stalls holding locks")
    speculative_execution: bool = knob(
        True, "hive.tez.speculative.execution",
        doc="launch a backup attempt for injected stragglers (Tez "
            "speculation); acts only on fault-injected slowness, never "
            "on data skew, so it is a no-op in fault-free runs")

    # ------------------------------------------------------------------ #
    # cluster shape (matches the paper's testbed by default)
    num_nodes: int = knob(10, ge=1, doc="worker nodes of the cluster")

    cost: CostModelConf = field(default_factory=CostModelConf)

    # ------------------------------------------------------------------ #
    def copy(self, **overrides) -> "HiveConf":
        """Return a copy with ``overrides`` applied (unknown keys raise)."""
        valid = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - valid
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        clone = dataclasses.replace(self, cost=dataclasses.replace(self.cost))
        for key, value in overrides.items():
            setattr(clone, key, value)
        clone.validate()
        return clone

    @property
    def plan_check_mode(self) -> str:
        """Canonical plan-check mode: "off" | "on" | "paranoid"."""
        mode = _CHECK_PLAN_MODES.get(str(self.check_plan).lower())
        if mode is None:
            raise ConfigError(
                f"invalid check_plan value {self.check_plan!r}: expected "
                "one of off/on/paranoid (or true/false synonyms)")
        return mode

    def validate(self) -> None:
        for checked in _BOUNDED_KNOBS:
            checked.check(getattr(self, checked.attr))
        # case-insensitive with synonyms: not a plain choice list
        self.plan_check_mode

    # ------------------------------------------------------------------ #
    @classmethod
    def v3_profile(cls) -> "HiveConf":
        """Hive 3.1 with LLAP — the fully featured system."""
        return cls(name="hive-3.1-llap")

    @classmethod
    def v3_container_profile(cls) -> "HiveConf":
        """Hive 3.1 running on plain Tez containers (Table 1 baseline)."""
        return cls(name="hive-3.1-container", llap_enabled=False,
                   llap_cache_enabled=False)

    @classmethod
    def legacy_profile(cls) -> "HiveConf":
        """Hive 1.2 on Tez 0.5 — the Figure 7 baseline.

        Rule-based optimizer only, row-at-a-time execution, fresh
        containers for every query, restricted SQL support.
        """
        return cls(
            name="hive-1.2",
            support_setops=False,
            support_nonequi_correlation=False,
            support_interval_notation=False,
            support_order_by_unselected=False,
            support_grouping_sets=False,
            cbo_enabled=False,
            join_reordering=False,
            shared_work_optimization=False,
            semijoin_reduction=False,
            mv_rewriting=False,
            federation_pushdown=False,
            reexecution_strategy="off",
            results_cache_enabled=False,
            plan_cache_enabled=False,
            vectorized_execution=False,
            llap_enabled=False,
            llap_cache_enabled=False,
            acid_enabled=False,
        )


#: HiveConf fields ``SET`` refuses: not scalars
NOT_SETTABLE = ("name", "reexecution_overlay", "cost")

#: every knob, in declaration order
KNOBS = tuple(Knob(attr=f.name, type=f.type, **f.metadata["knob"])
              for f in dataclasses.fields(HiveConf) if "knob" in f.metadata)

#: SET key (field name or ``hive.*`` name, lower case) -> its knob
SET_NAMES = {name: k for k in KNOBS for name in (k.attr, *k.names)}

_BOUNDED_KNOBS = tuple(k for k in KNOBS if k.bounds)
