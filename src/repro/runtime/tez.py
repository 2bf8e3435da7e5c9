"""Tez-style DAG runtime with a calibrated virtual-time cost model.

The logical plan is carved into a DAG of **vertices** at exchange
boundaries (joins, aggregations, sorts...), exactly how Hive's task
compiler produces Tez work (Section 2).  Fragments execute for real via
:mod:`repro.exec.operators`; the *latency* reported for the query is
virtual, computed from what actually happened (bytes read from disk vs
LLAP cache, rows processed, shuffle volumes) and the configured cluster
shape.  This is the substitution DESIGN.md documents: relative effects —
container start-up vs LLAP dispatch, cold vs warm JIT, vectorized vs
row-at-a-time CPU, cache hits vs disk — are charged explicitly, so the
experiment *shapes* survive even though absolute numbers are synthetic.

Dynamic semijoin reducers run before their target scans; shared-work
merging collapses vertices with identical digests so repeated
subexpressions are charged once (Section 4.5).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Optional

from ..config import HiveConf
from ..errors import ExecutionError
from ..exec.compile import EvalContext, KernelCache
from ..exec.operators import ExecutionContext, OperatorRun, execute, run_of
from ..llap.workload import QueryAdmission, WorkloadManager
from ..optimizer.planner import OptimizedPlan
from ..plan import relnodes as rel
from .scan import ScanExecutor, ScanMetrics, SemijoinFilter

_BREAKING = (rel.Join, rel.Aggregate, rel.Sort, rel.Limit, rel.Union,
             rel.SetOp, rel.Window)

#: split size for map-task parallelism (bytes per task)
SPLIT_BYTES = 64 << 20
#: rows per reducer task
ROWS_PER_REDUCER = 50_000
#: task slots per node: the paper's 8-core testbed machines run one
#: task per core, as LLAP executors or as plain Tez containers
SLOTS_PER_NODE = 8
#: bounded task attempts (1 initial + 3 retries); the final attempt
#: always succeeds (blacklisting), so injected faults cost time only
TASK_MAX_ATTEMPTS = 4


@dataclass
class Vertex:
    vertex_id: int
    name: str
    nodes: list[rel.RelNode]
    inputs: list[int] = field(default_factory=list)

    @property
    def root(self) -> rel.RelNode:
        return self.nodes[-1]

    @property
    def is_map(self) -> bool:
        return any(isinstance(n, (rel.TableScan, rel.Values))
                   for n in self.nodes)


@dataclass
class Dag:
    vertices: list[Vertex] = field(default_factory=list)

    def topological(self) -> list[Vertex]:
        order: list[Vertex] = []
        seen: set[int] = set()
        by_id = {v.vertex_id: v for v in self.vertices}

        def visit(v: Vertex):
            if v.vertex_id in seen:
                return
            seen.add(v.vertex_id)
            for i in v.inputs:
                visit(by_id[i])
            order.append(v)

        for v in self.vertices:
            visit(v)
        return order


def build_dag(root: rel.RelNode) -> Dag:
    """Carve the plan into vertices at exchange boundaries."""
    dag = Dag()
    counter = {"map": 0, "reducer": 0}

    def assign(node: rel.RelNode) -> int:
        if isinstance(node, (rel.Filter, rel.Project)):
            vid = assign(node.inputs[0])
            vertex = dag.vertices[vid]
            vertex.nodes.append(node)
            return vid
        if isinstance(node, (rel.TableScan, rel.Values)):
            counter["map"] += 1
            vertex = Vertex(len(dag.vertices),
                            f"Map {counter['map']}", [node])
            dag.vertices.append(vertex)
            return vertex.vertex_id
        if isinstance(node, _BREAKING):
            input_ids = [assign(child) for child in node.inputs]
            counter["reducer"] += 1
            vertex = Vertex(len(dag.vertices),
                            f"Reducer {counter['reducer']}", [node],
                            inputs=input_ids)
            dag.vertices.append(vertex)
            return vertex.vertex_id
        raise ExecutionError(
            f"cannot place node {type(node).__name__} in a DAG")

    assign(root)
    return dag


def merge_shared_vertices(dag: Dag, shared_digests: frozenset) -> Dag:
    """Collapse vertices whose fragments are identical (Section 4.5).

    Two vertices merge when their root digests are equal and that digest
    was flagged shared; consumers are repointed to the surviving vertex,
    so the work is executed — and charged — once.
    """
    if not shared_digests:
        return dag
    canonical: dict[str, int] = {}
    replacement: dict[int, int] = {}
    for vertex in dag.vertices:
        digest = vertex.root.digest
        if digest in shared_digests:
            if digest in canonical:
                replacement[vertex.vertex_id] = canonical[digest]
            else:
                canonical[digest] = vertex.vertex_id
    if not replacement:
        return dag
    survivors = [v for v in dag.vertices
                 if v.vertex_id not in replacement]
    for vertex in survivors:
        vertex.inputs = [replacement.get(i, i) for i in vertex.inputs]
    return Dag(survivors)


# --------------------------------------------------------------------------- #
# metrics

@dataclass(slots=True)
class VertexMetrics:
    name: str
    vertex_id: int = 0
    tasks: int = 0
    rows: int = 0
    startup_s: float = 0.0
    io_s: float = 0.0
    cpu_s: float = 0.0
    shuffle_s: float = 0.0
    external_s: float = 0.0
    start_s: float = 0.0
    finish_s: float = 0.0
    shuffle_bytes: int = 0
    #: modeled per-task durations (hash-partitioned key distribution);
    #: uniform when no shuffle-key histogram was observed
    task_durations: list[float] = field(default_factory=list)
    #: max-task / median-task duration (1.0 = perfectly balanced)
    skew_factor: float = 1.0
    #: True when the slowest task exceeds the configured skew threshold
    straggler: bool = False
    #: injected task-attempt failures that were retried (repro.faults)
    failed_attempts: int = 0
    #: backup attempts launched by speculative execution
    speculative_tasks: int = 0
    #: extra vertex latency from injected failures: re-run time plus
    #: exponential backoff, net of what speculation clawed back
    retry_s: float = 0.0
    #: extra cluster work (re-run + backup attempts) for the busy floor;
    #: not a sys.vertex_log column
    retry_work_s: float = 0.0
    #: the OperatorRun of each plan node in the vertex, carrying the
    #: share of the vertex's virtual time attributed to it
    operators: list = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return (self.startup_s + self.io_s + self.cpu_s
                + self.shuffle_s + self.external_s + self.retry_s)

    @property
    def attempts(self) -> int:
        """Total task attempts: one per task plus injected retries and
        speculative backups."""
        return self.tasks + self.failed_attempts + self.speculative_tasks

    @property
    def max_task_s(self) -> float:
        return max(self.task_durations, default=0.0)

    @property
    def median_task_s(self) -> float:
        if not self.task_durations:
            return 0.0
        ordered = sorted(self.task_durations)
        return ordered[len(ordered) // 2]

    def as_row(self, query_id: int) -> tuple:
        """Row shape of ``sys.vertex_log`` (see obs.systables)."""
        return (query_id, self.vertex_id, self.name, self.tasks,
                self.rows, self.startup_s, self.io_s, self.cpu_s,
                self.shuffle_s, self.external_s, self.duration_s,
                self.start_s, self.finish_s, self.shuffle_bytes,
                self.max_task_s, self.median_task_s, self.skew_factor,
                self.straggler, self.attempts, self.failed_attempts,
                self.speculative_tasks, self.retry_s)


@dataclass(slots=True)
class QueryMetrics:
    """Virtual-time breakdown for one query execution."""

    total_s: float = 0.0
    compile_s: float = 0.0
    queue_s: float = 0.0
    startup_s: float = 0.0
    io_s: float = 0.0
    cpu_s: float = 0.0
    shuffle_s: float = 0.0
    external_s: float = 0.0
    rows_produced: int = 0
    disk_bytes: int = 0
    cache_bytes: int = 0
    cache_hit_fraction: float = 0.0
    #: injected-failure latency summed over vertices (repro.faults)
    retry_s: float = 0.0
    #: container re-allocation charged when an LLAP daemon died mid-query
    failover_s: float = 0.0
    vertices: list[VertexMetrics] = field(default_factory=list)
    pool: str = ""
    moved_to_pool: Optional[str] = None

    @classmethod
    def from_dict(cls, data: dict) -> "QueryMetrics":
        """Rebuild from ``dataclasses.asdict`` output: a spilled statement
        record's metrics, read back from JSON."""
        vertices = [VertexMetrics(**{**vertex, "operators": [
            OperatorRun(**{**run, "scan": run["scan"]
                           and ScanMetrics(**run["scan"])})
            for run in vertex["operators"]]})
            for vertex in data["vertices"]]
        return cls(**{**data, "vertices": vertices})


# --------------------------------------------------------------------------- #
# the runner

class TezRunner:
    """Executes an optimized plan and accounts virtual time.

    When an observability registry (:class:`repro.obs.MetricsRegistry`)
    is attached, the runner publishes per-query runtime counters into it
    and the workload-manager triggers read them back from the registry —
    the counters are the interface, not the runner's internals.
    """

    def __init__(self, conf: HiveConf,
                 workload_manager: Optional[WorkloadManager] = None,
                 registry=None, faults=None, live=None):
        self.conf = conf
        self.workload_manager = workload_manager
        self.registry = registry
        #: optional repro.faults.FaultRegistry; injected task failures,
        #: slow nodes and daemon deaths are charged into virtual time
        self.faults = faults
        #: optional repro.obs.LiveQueryRegistry; the runner publishes
        #: phase + vertex progress into it and honours kill flags at
        #: the inter-vertex cancellation checkpoints
        self.live = live

    # -- public ------------------------------------------------------------- #
    def run(self, plan: OptimizedPlan, scan_executor: ScanExecutor,
            application: Optional[str] = None,
            arrival_s: float = 0.0,
            hash_join_memory_rows: Optional[int] = None,
            trace=None, query_id: int = 0,
            compile_overhead_s: Optional[float] = None,
            eval_ctx: Optional[EvalContext] = None,
            kernels: Optional[KernelCache] = None):
        """Execute and return ``(VectorBatch, QueryMetrics, ctx)``.

        ``compile_overhead_s`` overrides the cost model's fixed compile
        charge — the serving layer's plan cache passes its reduced hit
        cost, since a cached statement skips parse/analyze/optimize.

        ``eval_ctx`` pins the statement's virtual time and RAND salt;
        ``kernels`` is the lowered-kernel cache to (re)use — the plan
        cache passes its entry's cache so repeated fingerprints skip
        expression lowering.  Absent one, an ephemeral cache still
        lowers each expression once per query.
        """
        ctx = ExecutionContext(
            scan_executor=scan_executor,
            runs=scan_executor.runs,
            semijoin_filters=scan_executor.semijoin_filters,
            hash_join_memory_rows=hash_join_memory_rows,
            memo_digests=self._memo_digests(plan),
            eval_ctx=(eval_ctx if eval_ctx is not None
                      else EvalContext(query_id=query_id)),
            kernels=kernels if kernels is not None else KernelCache())

        # admission control (Section 5.2)
        admission = QueryAdmission(pool="", capacity_fraction=1.0)
        if self.live is not None:
            self.live.update(query_id, phase="queued")
        if self.workload_manager is not None \
                and self.workload_manager.active and self.conf.llap_enabled:
            admission = self.workload_manager.admit(application, arrival_s)
        if self.live is not None:
            self.live.update(query_id, phase="running",
                             pool=admission.pool or "unmanaged")

        try:
            # run dynamic semijoin reducers first (Section 4.6)
            for reducer in plan.semijoin_reducers:
                source = execute(reducer.source, ctx)
                vector = source.vectors[reducer.key_ordinal]
                scan_executor.semijoin_filters[reducer.reducer_id] = \
                    SemijoinFilter.from_vector(
                        reducer.target_column, vector,
                        self.conf.semijoin_bloom_fpp)

            result = execute(plan.root, ctx)
        except ExecutionError as failure:
            # expose runtime statistics captured so far — Section 4.2's
            # reoptimize strategy re-plans with these
            failure.runtime_stats = ctx.row_counts()
            raise

        metrics = self._account(plan, ctx, scan_executor, admission,
                                query_id=query_id,
                                compile_overhead_s=compile_overhead_s)
        metrics.rows_produced = result.num_rows
        metrics.queue_s = admission.queue_delay_s
        metrics.pool = admission.pool
        metrics.total_s += admission.queue_delay_s

        if self.workload_manager is not None \
                and self.workload_manager.active:
            self._apply_triggers(admission, metrics, query_id,
                                 now_s=arrival_s + metrics.total_s)
            self.workload_manager.complete(
                admission, arrival_s + metrics.total_s)
        if trace is not None:
            self._trace_vertices(trace, metrics, admission)
        self._publish(metrics)
        return result, metrics, ctx

    def _memo_digests(self, plan: OptimizedPlan) -> frozenset:
        """Always memoize repeated digests for execution efficiency; the

        *charging* of shared work is controlled in vertex merging."""
        from collections import Counter
        counts = Counter(n.digest for n in rel.walk(plan.root))
        repeated = {d for d, c in counts.items() if c > 1}
        repeated |= {r.source.digest for r in plan.semijoin_reducers}
        return frozenset(repeated)

    # -- accounting ---------------------------------------------------------- #
    def _account(self, plan: OptimizedPlan, ctx: ExecutionContext,
                 scan_executor: ScanExecutor,
                 admission: QueryAdmission,
                 query_id: int = 0,
                 compile_overhead_s: Optional[float] = None
                 ) -> QueryMetrics:
        conf = self.conf
        cost = conf.cost
        dag = build_dag(plan.root)
        if conf.shared_work_optimization:
            dag = merge_shared_vertices(dag, plan.shared_digests)
        # reducer source subtrees always merge with their join branch
        dag = merge_shared_vertices(
            dag, frozenset(r.source.digest
                           for r in plan.semijoin_reducers))

        llap = conf.llap_enabled
        live_nodes = conf.num_nodes
        failover_s = self._inject_node_death(scan_executor, query_id)
        if failover_s > 0.0:
            live_nodes = max(1, live_nodes - 1)
        slots = max(1, int(live_nodes * SLOTS_PER_NODE
                           * admission.capacity_fraction))
        cpu_per_row = (cost.vector_cpu_s if conf.vectorized_execution
                       else cost.row_cpu_s)
        jit = 1.0 if llap else cost.jit_cold_multiplier

        metrics = QueryMetrics(
            compile_s=(cost.compile_overhead_s
                       if compile_overhead_s is None
                       else compile_overhead_s))
        finish: dict[int, float] = {}
        by_id = {v.vertex_id: v for v in dag.vertices}
        containers_started = False
        total_work_s = 0.0
        #: digests whose run carries an earlier vertex's attribution
        attributed: set = set()

        scale = cost.data_scale
        ordered = list(dag.topological())
        vertices_done = 0
        tasks_done = 0
        tasks_total = 0
        for vertex in ordered:
            if self.live is not None:
                # inter-vertex cancellation checkpoint: raises
                # QueryKilledError when KILL QUERY flagged this query
                self.live.checkpoint(query_id)
            vm = VertexMetrics(name=vertex.name,
                               vertex_id=vertex.vertex_id)
            rows = 0
            disk = cache = 0
            files = 0
            merge_rows = 0
            #: (node, run, work_rows, scan_bytes) per plan node in the
            #: vertex, for the skew model and the attribution below
            node_work: list[list] = []
            for node in vertex.nodes:
                run = run_of(ctx.runs, node)
                node_rows = 0
                node_bytes = 0
                if isinstance(node, rel.TableScan):
                    # decode work is the raw (pre-filter) row count
                    scan = run.scan
                    if scan is not None:
                        disk += scan.disk_bytes
                        cache += scan.cache_bytes
                        node_rows = scan.raw_rows
                        node_bytes = scan.disk_bytes + scan.cache_bytes
                        rows += node_rows
                        files += scan.files_opened
                        vm.external_s += scan.external_time_s
                        if scan.delete_keys > 0:
                            # merge-on-read anti-join work (Section 3.2)
                            merge_rows += scan.raw_rows
                else:
                    node_rows = run.rows_out
                    rows += node_rows
                node_work.append([node, run, node_rows, node_bytes])
            if not vertex.is_map:
                # reducers also process every row their inputs emit
                # (join probes, aggregation input, sort input); the
                # vertex root does that processing
                input_rows = 0
                for input_id in vertex.inputs:
                    input_rows += ctx.rows_of(by_id[input_id].root.digest)
                rows += input_rows
                for entry in node_work:
                    if entry[0] is vertex.root:
                        entry[2] += input_rows
            rows = int(rows * scale)
            disk = int(disk * scale)
            cache = int(cache * scale)
            vm.rows = rows

            # task parallelism: maps get one task per split, with at
            # least one per input file (partition directories split
            # naturally); reducers scale with row volume
            if vertex.is_map:
                tasks = max(1, (disk + cache) // SPLIT_BYTES + 1, files)
            else:
                tasks = max(1, rows // ROWS_PER_REDUCER + 1)
            tasks = min(tasks, slots)
            vm.tasks = int(tasks)
            waves = 1  # tasks are clamped to available slots

            # startup: a query's containers are allocated from YARN once,
            # up front (the Section 5 latency bottleneck); LLAP dispatches
            # fragments to long-running executors instead
            if llap:
                vm.startup_s = waves * cost.llap_dispatch_s
            elif not containers_started:
                vm.startup_s = waves * (cost.container_startup_s
                                        + cost.task_setup_s)
                containers_started = True
            else:
                vm.startup_s = waves * cost.task_setup_s

            # IO: disk vs cache throughput, spread over this vertex's
            # tasks, plus per-file open overhead (delta pile-ups hurt)
            parallel = max(1, vm.tasks)
            vm.io_s = (disk / cost.disk_bytes_per_s
                       + cache / cost.cache_bytes_per_s) / parallel \
                + files * cost.file_open_s / parallel
            # CPU, plus row-at-a-time merge-on-read work where delete
            # deltas had to be anti-joined
            vm.cpu_s = (rows * cpu_per_row * jit
                        + merge_rows * scale * cost.merge_row_s) \
                / parallel
            # shuffle: bytes crossing edges into this vertex
            shuffle_bytes = 0
            for input_id in vertex.inputs:
                source = by_id[input_id]
                out_rows = ctx.rows_of(source.root.digest)
                shuffle_bytes += out_rows * \
                    source.root.schema.row_width_bytes()
            vm.shuffle_s = shuffle_bytes * scale \
                / cost.network_bytes_per_s / max(1, parallel)
            vm.shuffle_bytes = int(shuffle_bytes * scale)

            self._model_tasks(vm, node_work)
            self._apply_faults(vm, vertex, query_id, llap)
            self._attribute_operators(vm, vertex, node_work, attributed)

            start = max((finish[i] for i in vertex.inputs), default=0.0)
            vm.start_s = start
            vm.finish_s = start + vm.duration_s
            finish[vertex.vertex_id] = vm.finish_s

            total_work_s += (vm.io_s + vm.cpu_s + vm.shuffle_s) \
                * max(1, vm.tasks) + vm.retry_work_s
            metrics.retry_s += vm.retry_s
            vertices_done += 1
            tasks_total += vm.tasks
            tasks_done += vm.tasks
            if self.live is not None:
                self.live.vertex_progress(
                    query_id, vertices_done, len(ordered),
                    tasks_done, tasks_total,
                    elapsed_s=vm.finish_s,
                    pool_p50=self._pool_p50(admission.pool))
            metrics.vertices.append(vm)
            metrics.startup_s += vm.startup_s
            metrics.io_s += vm.io_s
            metrics.cpu_s += vm.cpu_s
            metrics.shuffle_s += vm.shuffle_s
            metrics.external_s += vm.external_s
            metrics.disk_bytes += disk
            metrics.cache_bytes += cache

        critical_path = max(finish.values(), default=0.0)
        # cluster capacity floor: concurrent vertices contend for slots,
        # so the query can never finish faster than total work / slots
        # (this is what makes recomputing shared subexpressions — q88
        # without the shared-work optimizer — visibly expensive)
        busy_floor = total_work_s / slots + metrics.startup_s
        metrics.failover_s = failover_s
        metrics.total_s = metrics.compile_s + failover_s \
            + max(critical_path, busy_floor)
        total_bytes = metrics.disk_bytes + metrics.cache_bytes
        metrics.cache_hit_fraction = (metrics.cache_bytes / total_bytes
                                      if total_bytes else 0.0)
        # the runs outlive the query in its statement record; the key
        # histograms and memoised batches were for this run only
        for run in ctx.runs.values():
            run.key_counts = run.batch = None
        return metrics

    def _pool_p50(self, pool: str) -> Optional[float]:
        """The duration model's p50 for this pool (ETA baseline)."""
        if self.registry is None:
            return None
        return self.registry.percentile("query.latency_s", 50,
                                        pool=pool or "unmanaged")

    def _model_tasks(self, vm: VertexMetrics, node_work: list) -> None:
        """Model the vertex's per-task duration distribution.

        ``vm.io_s``/``cpu_s``/``shuffle_s`` are already per-task shares
        under perfect balance (divided by ``parallel`` above).  IO and
        shuffle stay split-balanced — splits are sized evenly — but CPU
        follows the shuffle-key histogram captured at execution time
        when one exists: hash partitioning sends all rows of one key to
        one task, so a hot key concentrates CPU on a single task.  The
        skew factor (max task / median task) and straggler flag fall
        out of the distribution; they are diagnostics and do not change
        the vertex's accounted totals.
        """
        tasks = max(1, vm.tasks)
        even = vm.io_s + vm.shuffle_s + vm.external_s
        # the exchange-consuming operator (join/aggregate) is the first
        # node of a reducer vertex; trailing projects/filters ride along
        counts = None
        for entry in node_work:
            counts = entry[1].key_counts
            if counts:
                break
        if tasks <= 1 or not counts:
            vm.task_durations = [even + vm.cpu_s] * tasks
        else:
            per_task = [0.0] * tasks
            total = float(sum(counts.values()))
            for key, weight in counts.items():
                slot = zlib.crc32(repr(key).encode()) % tasks
                per_task[slot] += weight
            cpu_work = vm.cpu_s * tasks  # total CPU across all tasks
            vm.task_durations = [even + cpu_work * share / total
                                 for share in per_task]
        median = vm.median_task_s
        vm.skew_factor = vm.max_task_s / median if median > 0 else 1.0
        vm.straggler = (tasks > 1 and vm.skew_factor
                        >= self.conf.straggler_skew_threshold)

    # -- fault injection & recovery ------------------------------------------ #
    def _inject_node_death(self, scan_executor: ScanExecutor,
                           query_id: int) -> float:
        """LLAP daemon death (Section 5 failover): the dead node's cache
        chunks and cached footers are invalidated, one node's executors
        drop out of the slot pool, and the displaced fragments fall back
        to fresh Tez containers whose start-up is re-charged.

        Returns the failover charge in virtual seconds (0.0 = no death).
        """
        faults = self.faults
        conf = self.conf
        if faults is None or not conf.llap_enabled \
                or conf.faults_node_fail_rate <= 0.0:
            return 0.0
        if not faults.decide("node.death", query_id,
                             conf.faults_node_fail_rate):
            return 0.0
        node = faults.pick("node.death.which", query_id, conf.num_nodes)
        dropped = 0
        factory = scan_executor.reader_factory   # the LLAP one, or None
        if factory is not None:
            dropped = factory.invalidate_node(node, conf.num_nodes)
        cost = conf.cost
        failover_s = cost.container_startup_s + cost.task_setup_s
        faults.record("node.death", f"node {node}", query_id=query_id,
                      delay_s=failover_s,
                      detail=f"invalidated {dropped} cache chunks, "
                             "fell back to containers")
        return failover_s

    def _apply_faults(self, vm: VertexMetrics, vertex: Vertex,
                      query_id: int, llap: bool) -> None:
        """Inject task failures and slow nodes into the modeled task
        distribution, charging recovery into virtual time.

        Every failed attempt re-runs the task (its full modeled duration)
        after an exponential backoff; the final attempt always succeeds —
        the scheduler blacklists the flaky node — so injected faults delay
        queries but never change their results.  Speculative execution
        then caps the slowest *injected* straggler at roughly a balanced
        re-run launched when the skew is detected; natural (hot-key) skew
        stays diagnostic-only, exactly as in the skew model above, so
        speculation is a no-op in fault-free runs.

        Decisions key on the vertex's root digest + task index, not the
        query id, so identical workloads see identical schedules.
        """
        faults = self.faults
        conf = self.conf
        if faults is None:
            return
        fail_rate = conf.faults_task_fail_rate
        slow_rate = conf.faults_slow_node_rate
        if fail_rate <= 0.0 and slow_rate <= 0.0:
            return
        digest = vertex.root.digest
        base = list(vm.task_durations)
        natural_max = max(base, default=0.0)
        durations = list(base)
        for index, task_s in enumerate(base):
            key = (digest, index)
            if slow_rate > 0.0 and faults.decide("task.slow", key,
                                                 slow_rate):
                slow_extra = task_s * (conf.faults_slow_node_multiplier
                                       - 1.0)
                durations[index] += slow_extra
                vm.retry_work_s += slow_extra
                faults.record("task.slow", f"{vm.name}[{index}]",
                              query_id=query_id, delay_s=slow_extra,
                              detail="slow node "
                                     f"x{conf.faults_slow_node_multiplier:g}")
            failures = faults.failed_attempts(
                "task.fail", key, fail_rate, TASK_MAX_ATTEMPTS - 1)
            if failures:
                # exponential retry backoff from 0.1 virtual seconds
                backoff = sum(0.1 * 2.0 ** n for n in range(failures))
                durations[index] += failures * task_s + backoff
                vm.retry_work_s += failures * task_s
                vm.failed_attempts += failures
                faults.record("task.fail", f"{vm.name}[{index}]",
                              query_id=query_id, attempts=failures,
                              delay_s=failures * task_s + backoff,
                              detail=f"{failures} failed attempts, "
                                     f"backoff {backoff:.3f}s")
        self._speculate(vm, durations, base, query_id, llap)
        vm.task_durations = durations
        vm.retry_s = max(0.0, max(durations, default=0.0) - natural_max)
        median = vm.median_task_s
        vm.skew_factor = vm.max_task_s / median if median > 0 else 1.0
        vm.straggler = (vm.tasks > 1 and vm.skew_factor
                        >= conf.straggler_skew_threshold)

    def _speculate(self, vm: VertexMetrics, durations: list[float],
                   base: list[float], query_id: int, llap: bool) -> None:
        """Launch a backup attempt for an injected straggler.

        The backup starts when the straggler is flagged (around the
        median finish time) and re-runs the task at its fault-free
        duration, so the vertex finishes at
        ``median + base duration + dispatch`` if that beats waiting.
        """
        conf = self.conf
        if not conf.speculative_execution or len(durations) <= 1:
            return
        worst = max(range(len(durations)), key=durations.__getitem__)
        if durations[worst] <= base[worst]:
            return  # slowest task was not injected: natural skew only
        median = sorted(durations)[len(durations) // 2]
        if median <= 0 or durations[worst] / median \
                < conf.straggler_skew_threshold:
            return
        dispatch = (conf.cost.llap_dispatch_s if llap
                    else conf.cost.task_setup_s)
        capped = median + base[worst] + dispatch
        if capped >= durations[worst]:
            return
        saved = durations[worst] - capped
        durations[worst] = capped
        vm.speculative_tasks += 1
        vm.retry_work_s += base[worst]
        self.faults.record("speculation", f"{vm.name}[{worst}]",
                           query_id=query_id,
                           detail=f"backup attempt saved {saved:.3f}s")

    def _attribute_operators(self, vm: VertexMetrics, vertex: Vertex,
                             node_work: list, attributed: set) -> None:
        """Split the vertex's virtual time across its plan nodes' runs.

        CPU is attributed proportionally to each operator's processed
        rows; IO goes to scans proportionally to bytes; shuffle time
        lands on the vertex root (the exchange consumer).  A memoised
        node that two unmerged vertices both charge gets a copy of its
        run in the second one, carrying that vertex's share.
        """
        total_rows = sum(entry[2] for entry in node_work) or 1
        total_bytes = sum(entry[3] for entry in node_work) or 1
        for node, run, work_rows, node_bytes in node_work:
            virtual = vm.cpu_s * work_rows / total_rows
            if node_bytes:
                virtual += vm.io_s * node_bytes / total_bytes
            if node is vertex.root:
                virtual += vm.shuffle_s
            if run.digest in attributed:
                run = replace(run, key_counts=None, batch=None)
            attributed.add(run.digest)
            run.virtual_s = virtual
            vm.operators.append(run)

    def _trace_vertices(self, trace, metrics: QueryMetrics,
                        admission: QueryAdmission) -> None:
        """Attach the DAG schedule as child spans of the trace."""
        if admission.queue_delay_s:
            trace.add("admission", virtual_s=admission.queue_delay_s,
                      pool=admission.pool)
        for vm in metrics.vertices:
            recovery = {}
            if vm.failed_attempts or vm.speculative_tasks:
                recovery = {"attempts": vm.attempts,
                            "retry_s": round(vm.retry_s, 4)}
            vspan = trace.add(f"vertex {vm.name}",
                              virtual_s=vm.duration_s,
                              tasks=vm.tasks, rows=vm.rows,
                              start_s=round(vm.start_s, 4),
                              finish_s=round(vm.finish_s, 4),
                              skew_factor=round(vm.skew_factor, 3),
                              straggler=vm.straggler, **recovery)
            for op in vm.operators:
                child = vspan.child(f"op {op.operator}",
                                    virtual_s=op.virtual_s,
                                    rows_in=op.rows_in,
                                    rows_out=op.rows_out)
                child.wall_s = op.wall_s
                child.start_s = vspan.start_s

    def _publish(self, metrics: QueryMetrics) -> None:
        """Mirror the run's totals into the observability registry."""
        if self.registry is None:
            return
        reg = self.registry
        reg.counter("runtime.queries").inc()
        reg.counter("runtime.rows_produced").inc(metrics.rows_produced)
        reg.counter("runtime.disk_bytes").inc(metrics.disk_bytes)
        reg.counter("runtime.cache_bytes").inc(metrics.cache_bytes)
        for component in ("startup", "io", "cpu", "shuffle",
                          "external", "queue"):
            reg.counter(f"runtime.{component}_s").inc(
                getattr(metrics, f"{component}_s"))
        # fault-recovery series only appear once injection happened
        if metrics.retry_s > 0.0:
            reg.counter("runtime.retry_s").inc(metrics.retry_s)
        if metrics.failover_s > 0.0:
            reg.counter("runtime.failover_s").inc(metrics.failover_s)
        failed = sum(vm.failed_attempts for vm in metrics.vertices)
        if failed:
            reg.counter("runtime.failed_task_attempts").inc(failed)
        speculative = sum(vm.speculative_tasks
                          for vm in metrics.vertices)
        if speculative:
            reg.counter("runtime.speculative_tasks").inc(speculative)

    def _apply_triggers(self, admission: QueryAdmission,
                        metrics: QueryMetrics,
                        query_id: int = 0,
                        now_s: float = 0.0) -> None:
        """Evaluate WM triggers post-hoc over the virtual runtime.

        The runtime counters are published as per-query series in the
        obs registry, and the workload manager reads them back from
        there (Section 5.2: triggers act on runtime counters).  A MOVE
        re-prices the time spent beyond the trigger threshold at the
        target pool's capacity; a KILL raises.
        """
        wm = self.workload_manager
        old_fraction = admission.capacity_fraction
        registry = self.registry
        if registry is None:
            from ..obs.registry import MetricsRegistry
            registry = MetricsRegistry()
        labels = {"query": str(query_id)}
        published = ("total_runtime", "elapsed", "rows_produced")
        for metric, value in (
                ("total_runtime", metrics.total_s),
                ("elapsed", metrics.total_s),
                ("rows_produced", float(metrics.rows_produced))):
            registry.gauge(f"wm.query.{metric}", **labels).set(value)
        try:
            wm.check_triggers_from_registry(registry, admission,
                                            query_id, now_s=now_s)
        finally:
            # per-query series are scratch space; don't accumulate them
            for metric in published:
                registry.drop(f"wm.query.{metric}", **labels)
        if admission.moved_to is not None:
            metrics.moved_to_pool = admission.moved_to
            new_fraction = max(admission.capacity_fraction, 1e-3)
            threshold = min(metrics.total_s, admission.fired_threshold)
            overflow = metrics.total_s - threshold
            if overflow > 0 and new_fraction < old_fraction:
                metrics.total_s = threshold + overflow * (
                    old_fraction / new_fraction)
