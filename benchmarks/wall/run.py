"""Wall-clock benchmark: one workload, one process, one seed.

    python3 benchmarks/wall/run.py --workload tpcds_read --seed 7 \\
        --seconds 10 [--trace 1] [--scale 10]

prints every metric by name with its unit, then one JSON object on the last
line.  ``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json`` from untraced cycles; ``--trace 1`` alternates cycles
run under ``tracer.Tracer`` with untraced ones and reports the per-layer
metrics.  The exit code is non-zero when an operation failed, a result
disagreed with its oracle or a digest changed between cycles.

    python3 benchmarks/wall/run.py --smoke          # all four, tiny, < 20 s
    python3 benchmarks/wall/run.py --selftest       # the tracer's own checks
    python3 benchmarks/wall/run.py --repeat-check [--runs 10]

``--repeat-check`` runs every workload ``--runs`` times on different seeds,
twice, and fails if the two sets disagree by more than a metric's bound or
a metric's spread exceeds it (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
PINNED = "WALL_BENCH_PINNED"
DEFAULT_SEED = 7
MIN_CYCLES = 3
#: set-ups per run, ``setup_s`` being their median: three of those that take
#: seconds, five of the others; and three fresh interpreters.  The pipeline
#: compares ``setup_s`` by the median of ten runs, and its 92 runs share a
#: time cap, so more of them buy nothing that the cycles could not use
SET_UPS, SHORT_SET_UPS, SHORT_S, START_UPS = 3, 5, 1.0, 3
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("tpcds_read", "bulk_load", "acid_churn",
                  "service_dashboards")


def spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# --------------------------------------------------------------------------- #
# statistics

def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def harrell_davis(values, share: float) -> float:
    """Harrell-Davis estimate of a quantile.

    Every order statistic, weighted by the Beta((n+1)p, (n+1)(1-p)) mass of
    its n-th of the unit interval.  With 31 operations nearest-rank p95 *is*
    the second slowest operation, and one operation's fastest wall does not
    repeat as well as a sum of them (the pipeline saw it spread 28 % where
    ``cycle_s`` held); here the five slowest share 98 % of the weight.
    """
    import numpy
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n, steps = len(ordered), 256            # midpoint rule, per statistic
    a, b = (n + 1) * share, (n + 1) * (1.0 - share)
    x = (numpy.arange(n * steps) + 0.5) / (n * steps)
    log_density = (a - 1.0) * numpy.log(x) + (b - 1.0) * numpy.log1p(-x)
    weights = numpy.exp(log_density - log_density.max()) \
        .reshape(n, steps).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def op_walls(passes: list) -> list:
    """Per operation of the script: ``(sample, its fastest wall)``.

    The passes replay one script, so position identifies the operation.
    The fastest of the passes, not their median: the work is identical
    every time and this kind of machine (a shared VM) only ever adds time,
    in phases longer than a cycle, so the minimum is the steadier
    estimate of what the operation costs (ROADMAP item 1: "min of k").
    """
    return [(column[-1], min(s.wall_s for s in column))
            for column in zip(*(p.samples for p in passes))]


#: a read-only workload's cycle writes nothing, so it takes these from its
#: set-up, which loads the tables the cycle reads
WRITE_SIDE = ("load_rows_per_s", "dml_p50_ms", "compaction_s",
              "written_bytes_per_user_byte")


def end_to_end(workload, start_s: float, setups: list, cycles: list,
               peak_rss_mb: float) -> tuple:
    """``(values, stand_ins)`` of the fifteen end-to-end metrics.

    Each metric has one definition over the operations of a pass
    (README.md).  The contract prints every metric on every workload and
    allows no zero, so two kinds of cell hold a stand-in, which
    ``stand_ins`` names: the ``WRITE_SIDE`` metrics of a read-only workload,
    and a plan-cache class that no statement of the script is in, which
    reports ``read_p50_ms``.
    """
    ops = op_walls(cycles)
    wrote_passes = setups if workload.read_only else cycles
    wrote = op_walls(wrote_passes)
    stand_ins = ({m: "of the set-up's load" for m in WRITE_SIDE}
                 if workload.read_only else {})

    def of(source, test) -> list:
        return [w for s, w in source if test(s)]

    def median_ms(walls) -> float:
        return statistics.median(walls) * 1000.0

    # two callers: the cycles in which they raced, round by round as the
    # operations of one caller are taken, which counts what they cost each
    # other
    cycle_s = (sum(map(min, zip(*(c.round_walls for c in cycles
                                  if c.racing))))
               if workload.clients > 1 else sum(w for _, w in ops))
    walls = [w for _, w in ops]
    reads = [(s, w) for s, w in ops if s.kind == "read"]
    read_p50 = median_ms([w for _, w in reads])
    by_plan = {}
    for metric, cached in (("plan_hit_p50_ms", True),
                           ("plan_miss_p50_ms", False)):
        found = of(reads, lambda s: s.plan_cached == cached)
        by_plan[metric] = median_ms(found) if found else read_p50
        if not found:
            stand_ins[metric] = "read_p50_ms: no such statement"
    # INSERT/UPDATE/DELETE/MERGE; a pass without any: its table loads
    dml = of(wrote, lambda s: s.kind == "write") \
        or of(wrote, lambda s: s.kind == "load")
    loads = [(s, w) for s, w in wrote if s.phase == "load"]
    last = cycles[-1]
    return {
        "setup_s": start_s + statistics.median(p.wall_s for p in setups),
        "cycle_s": cycle_s,
        "stmt_p50_ms": percentile(walls, 0.50) * 1000.0,
        "stmt_p95_ms": harrell_davis(walls, 0.95) * 1000.0,
        "load_rows_per_s": sum(s.rows_loaded for s, _ in loads)
        / sum(w for _, w in loads),
        "service_stmts_per_s": len(ops) / cycle_s,
        "dml_p50_ms": median_ms(dml),
        "read_p50_ms": read_p50,
        "compaction_s": sum(of(wrote, lambda s: s.kind == "compaction")),
        **by_plan,
        "stored_bytes_per_user_byte":
            last.stored_bytes / last.live_user_bytes,
        "written_bytes_per_user_byte": statistics.median(
            p.counters["fs.bytes_written"]
            / sum(s.user_bytes for s in p.samples)
            for p in wrote_passes),
        "peak_rss_mb": peak_rss_mb,
        "virtual_s": statistics.median(
            sum(s.virtual_s for s in p.samples) for p in cycles),
    }, stand_ins


# --------------------------------------------------------------------------- #
# correctness

def verify(name: str, passes: list, cycles: list, golden: dict,
           write_golden: bool) -> tuple:
    """``(attempted, failures)`` over every operation of every pass.

    An operation fails when it raised, disagreed with its oracle, changed
    its digest from one cycle to the next, or (default seed and sizes)
    differs from the committed golden digest.
    """
    failures = [f"{s.name}: {s.error}" for p in passes for s in p.samples
                if not s.ok]
    attempted = sum(len(p.samples) for p in passes)
    if len({len(c.samples) for c in cycles}) > 1:
        failures.append("cycles ran different numbers of operations")
    by_name: dict = {}
    for column in zip(*(c.samples for c in cycles)):
        digests = {s.digest for s in column if s.ok}
        if len(digests) > 1:
            failures.append(f"{column[0].name}: digest changed between "
                            f"cycles {sorted(digests)}")
        by_name.setdefault(column[0].name, set()).update(digests)
    if write_golden:
        # names that stand for many statements (service hit/miss) have no
        # single digest; their oracle checks every one of them
        golden[name] = {n: d.pop() for n, d in sorted(by_name.items())
                        if len(d) == 1}
    elif golden is not None:
        for op_name, digest in golden.get(name, {}).items():
            if op_name in by_name and by_name[op_name] != {digest}:
                failures.append(f"{op_name}: digest {by_name[op_name]} is "
                                f"not the golden {digest}")
    return attempted, failures


def load_golden(args) -> dict | None:
    """The golden digests, if this run is the one they were taken from."""
    if args.seed != DEFAULT_SEED or args.scale != 1.0 or args.smoke:
        return None
    try:
        with open(GOLDEN, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return {} if args.write_golden else None


# --------------------------------------------------------------------------- #
# one run

def timed_cycles(workload, seconds: float, at_least: int,
                 tracer=None) -> tuple:
    """Cycles until the budget is used, and ``at_least`` of them.

    With a tracer the cycles alternate traced and untraced, ``at_least``
    of each; returns ``(untraced cycles, traced cycles, per-traced-cycle
    summaries, spans of the first traced cycle)``.
    """
    import tracer as tracing
    plain, traced, summaries = [], [], []
    first_spans = peak_rss_mb = None
    started = time.perf_counter()
    while True:
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - started
        enough = (min(len(plain), len(traced)) >= min(at_least, 2)
                  if tracer else done >= at_least)
        if enough and elapsed + elapsed / done > seconds:
            break
        gc.collect()    # between cycles; the collector itself stays on
        if tracer is not None and len(traced) <= len(plain):
            tracer.install(count_digests=not traced)
            try:
                before = tracer.digest_calls()
                cycle = workload.cycle(tracer)
                digests = tracer.digest_calls() - before
            finally:
                tracer.uninstall()
            spans = tracer.take_spans()
            summary = tracing.summarize(spans)
            summary["digest_calls"] = digests
            summaries.append(summary)
            traced.append(cycle)
            if first_spans is None:
                first_spans = spans
        else:
            plain.append(workload.cycle())
        if peak_rss_mb is None and len(plain) + len(traced) == at_least:
            # at a fixed point of the run: how many more cycles fit the
            # budget depends on the machine, and servers keep history
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return plain, traced, summaries, first_spans, peak_rss_mb


def environment(workload, args) -> dict:
    import numpy
    commit = "unknown"
    if os.path.isdir(os.path.join(REPO, ".git")):
        found = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = found.stdout.strip() or commit
    return {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "smoke": args.smoke,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit,
            "sizes": workload.sizes()}


def startup_s() -> float:
    """Wall of a fresh interpreter importing all the benchmark imports."""
    code = (f"import sys; sys.path[:0] = [{os.path.join(REPO, 'src')!r}, "
            f"{HERE!r}]; import workloads")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=pinned_env())
    return time.perf_counter() - started


def run_one(args) -> dict:
    """Set up, warm up, measure, verify; returns the result to report."""
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        args.seed, scale=args.scale, smoke=args.smoke)
    # only where timings are reported
    waited_s = 0.0 if args.smoke or args.trace else wait_for_quiet()
    setups = [workload.setup()]
    cold = workload.cycle()
    tracer = tracing.Tracer() if args.trace else None
    # --smoke: one cycle, or one of either kind where two callers race
    plain, traced, summaries, spans, peak_rss_mb = timed_cycles(
        workload, 0.0 if args.smoke else args.seconds,
        min(workload.clients, 2) if args.smoke else MIN_CYCLES, tracer)
    # the other set-ups come after the cycles, so that they sample the
    # machine over the whole run, not over its first seconds; a traced run
    # does not report ``setup_s``
    set_ups = 1 if args.smoke or args.trace else (
        SHORT_SET_UPS if setups[0].wall_s < SHORT_S else SET_UPS)
    for _ in range(set_ups - 1):
        gc.collect()
        setups.append(workload.setup())
    workload.close()

    golden = load_golden(args)
    attempted, failures = verify(
        workload.name, setups + [cold] + plain + traced,
        [cold] + plain + traced, golden, args.write_golden)
    if args.write_golden and not failures:
        with open(GOLDEN, "w", encoding="utf-8") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")

    stand_ins = {}
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracing.write_spans(spans, os.path.join(
            OUT_DIR, f"spans-{workload.name}-{args.seed}.jsonl.gz"))
        # Per layer, the cycles without racing callers: a racing thread's
        # spans include its waits for the GIL (acid.read read nine times
        # its cost).  What racing costs is in the dispatch, submit() to
        # the worker thread entering Session.execute.
        calm = [(s, c) for s, c in zip(summaries, traced) if not c.racing]
        racing = [s for s, c in zip(summaries, traced) if c.racing]
        values = tracing.layer_metrics(
            [s for s, _ in calm], calm[0][1].counters,
            summaries[0]["digest_calls"],
            [c.wall_s for c in traced], [c.wall_s for c in plain],
            cold.wall_s, tracing.common_kernels(
                args.seed, 5_000 if args.smoke else tracing.KERNEL_VALUES))
        if racing:
            values["service.dispatch_ms"] = statistics.median(
                s["dispatch_ms"] for s in racing)
        units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    else:
        starts = [0.0] if args.smoke else [
            startup_s() for _ in range(START_UPS)]
        values, stand_ins = end_to_end(
            workload, statistics.median(starts), setups, plain, peak_rss_mb)
        units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    return {"environment": environment(workload, args),
            "cycles": f"1 warm-up + {len(plain)} untraced + {len(traced)} "
                      f"traced; set-ups: {len(setups)}; waited for a quiet "
                      f"machine: {waited_s:.0f} s",
            "failures": failures, "attempted": attempted,
            "stand_ins": stand_ins,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def report(result: dict) -> int:
    """Every metric by name with its unit, then the one-line JSON."""
    failures, attempted = result["failures"], result["attempted"]
    print("# " + json.dumps(result["environment"]))
    print("# cycles: " + result["cycles"])
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    # not among the contract's metrics, which may never be 0: it is the
    # ``failed`` / ``attempted`` pair of the last line
    print(f"{'failed_share':34s} {len(failures) / attempted:16.6f} ratio  "
          f"({len(failures)} of {attempted})")
    for name, metric in result["metrics"].items():
        note = result["stand_ins"].get(name)
        print(f"{name:34s} {metric['value']:16.6f} {metric['unit']}"
              + (f"  (stand-in, {note})" if note else ""))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": result["metrics"]}))
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# the pinned child process

def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    The program holds the GIL and cannot use a second CPU; but each service
    statement runs on its own worker thread, and whether the scheduler
    wakes that thread on the client's CPU or the other one moved
    ``plan_hit_p50_ms`` by 22 % for minutes at a time (a cross-CPU wake-up
    in a VM costs ~80 us, a statement has three).
    """
    if hasattr(os, "sched_setaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        # by pid, so that runs started side by side do not share a CPU
        os.sched_setaffinity(0, {allowed[os.getpid() % len(allowed)]})


def pinned_env() -> dict:
    """Fixed hash seed; none of the program's debug switches."""
    env = {k: v for k, v in os.environ.items()
           if not (k == "HIVE_CHECK_PLAN" or k.startswith("HIVE_FAULTS_")
                   or k.startswith("HIVE_SANITIZE"))}
    env["PYTHONHASHSEED"] = "0"
    env[PINNED] = "1"
    return env


def spawn(argv: list, capture: bool = False):
    """Run this file in a pinned child and wait for it."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv],
        env=pinned_env(), stdout=subprocess.PIPE if capture else None,
        text=True)
    try:
        out, _ = child.communicate()
    except BaseException:
        child.kill()
        child.wait()
        raise
    return child.returncode, out


def result_of(workload: str, seed: int) -> dict:
    code, out = spawn(["--workload", workload, "--seed", str(seed)],
                      capture=True)
    lines = (out or "").strip().splitlines()
    if code != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {code}:\n{out}")
    return json.loads(lines[-1])


# --------------------------------------------------------------------------- #
# waiting out a slow phase of the machine

#: what the runs of this checkout know of the machine's speed
QUIET = os.path.join(OUT_DIR, "quiet.json")
SLOW = 1.25            # a probe this much over the fastest seen: a slow phase
MAX_WAIT_S = 90.0      # per run; the phases seen lasted 90-120 s
MAX_WAITED_S = 300.0   # per checkout: the pipeline's runs share a time cap


def probe_s() -> float:
    """Fastest of five passes over a fixed mix of interpreter and numpy work.

    A pass takes about 15 ms.  They follow 0.3 s of spinning: after an idle
    spell this VM runs its first 100 ms 40 % slow.
    """
    import numpy
    data = numpy.arange(200_000, dtype=numpy.float64)[::-1].copy()
    spin_until = time.perf_counter() + 0.3
    while time.perf_counter() < spin_until:
        pass
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(100_000):
            total += i * i % 7
        for i in range(50_000):
            table[i] = str(i)
        numpy.sort(data)
        (data * 1.5).sum()
        passes.append(time.perf_counter() - start)
    return min(passes)


def wait_for_quiet() -> float:
    """Sleep while the machine is in a slow phase; the seconds slept.

    The host slows the whole VM by half or more for a minute or two about
    once an hour.  A run cannot see that from inside (all of it is slow),
    and three such runs in a row put two outliers into a set of ten, which
    a quartile does not survive.  So each run times a fixed probe first and
    compares it with the fastest probe any run of this checkout has seen,
    kept in ``out/quiet.json``; while it is ``SLOW`` times that, the run
    sleeps, within the two caps above.  The first run of a checkout has
    nothing to compare with and does not wait.
    """
    try:
        with open(QUIET, encoding="utf-8") as f:
            state = json.load(f)
    except (FileNotFoundError, ValueError):
        state = {"fastest_probe_s": math.inf, "waited_s": 0.0}
    slept = 0.0
    while True:
        probe = probe_s()
        if (probe <= SLOW * state["fastest_probe_s"] or slept >= MAX_WAIT_S
                or state["waited_s"] + slept >= MAX_WAITED_S):
            break
        time.sleep(5.0)
        slept += 5.0
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(QUIET, "w", encoding="utf-8") as f:
        json.dump({"fastest_probe_s": min(probe, state["fastest_probe_s"]),
                   "waited_s": state["waited_s"] + slept}, f)
    return slept


# --------------------------------------------------------------------------- #
# --smoke, --repeat-check

def smoke(args) -> int:
    """All four workloads, tiny, full oracle, untraced and traced."""
    started = time.perf_counter()
    worst = 0
    for workload in WORKLOAD_NAMES:
        for trace_flag in (0, 1):
            args.workload, args.trace = workload, trace_flag
            result = run_one(args)
            failures = result["failures"]
            print(f"{workload:20s} trace={trace_flag} "
                  f"attempted={result['attempted']} failed={len(failures)}")
            for failure in failures[:20]:
                print(f"  FAILED {failure}")
            worst = max(worst, int(bool(failures)))
    print(f"smoke: {time.perf_counter() - started:.1f} s")
    return worst


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat_check(args) -> int:
    """Two sets of runs of this commit, compared as parent and change are."""
    metrics = spec()["end_to_end"]
    bad = 0
    for workload in (args.workload,) if args.workload else WORKLOAD_NAMES:
        sets = []
        for which in range(2):
            sets.append([result_of(workload, seed)["metrics"]
                         for seed in range(1, args.runs + 1)])
            print(f"# {workload}: set {which + 1} of 2 done", flush=True)
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run[name]["value"] for run in s] for s in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" \
                else (ma - mb) / ma
            wide = max(spread(a), spread(b))
            flags = []
            if abs(worse) > bound:
                flags.append("MEDIANS DIFFER")
            if wide > bound:
                flags.append("SPREAD OVER BOUND")
            elif wide > bound / 3:
                flags.append("spread over a third of the bound")
            bad += sum(f.isupper() for f in flags)
            print(f"{workload:20s} {name:28s} median {ma:12.4f} "
                  f"{mb:12.4f}  diff {worse:+.4f}  spread {spread(a):.4f} "
                  f"{spread(b):.4f}  bound {bound}  {' '.join(flags)}")
            print("#   every run: " + " | ".join(
                " ".join(f"{v:.4g}" for v in runs) for runs in (a, b)),
                flush=True)
    print("repeat-check:", "FAILED" if bad else "ok")
    return 1 if bad else 0


# --------------------------------------------------------------------------- #

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies row counts (one-off larger runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, all four")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's digests in golden.json")
    args = parser.parse_args()

    if args.repeat_check:
        return repeat_check(args)
    if os.environ.get(PINNED) != "1":
        return spawn(sys.argv[1:])[0]
    # the pinned child: only now is the program importable
    pin_to_one_cpu()
    sys.path.insert(0, os.path.join(REPO, "src"))
    sys.path.insert(0, HERE)
    if args.selftest:
        import selftest
        return selftest.main()
    if args.smoke and not args.workload:
        return smoke(args)
    if not args.workload:
        parser.error("--workload is required")
    return report(run_one(args))


if __name__ == "__main__":
    sys.exit(main())
