"""The tracer's own checks (``run.py --selftest``), on smoke-sized workloads.

Not collected by pytest on purpose: ``pytest benchmarks/`` is the
virtual-time suite.
"""

from __future__ import annotations

import importlib
import sys

import tracer as tracing
import workloads
from tracer import ID, NAME, PARENT, STATEMENT, THREAD

SEED = 7


def _patch_sites() -> list:
    """``(owner, attribute)`` of everything ``install()`` replaces."""
    sites = []
    for target, attr, _, _ in tracing.POINTS:
        module_name, _, class_name = target.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            sites.append((getattr(module, class_name), attr))
        else:
            fn = getattr(module, attr)
            sites.extend((m, attr) for m in tracing.repro_modules()
                         if m.__dict__.get(attr) is fn)
    sites.extend((cls, "digest") for cls, _ in tracing.digest_properties())
    return sites


def uninstall_restores_originals() -> str:
    sites = _patch_sites()
    before = [owner.__dict__[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    during = [owner.__dict__[attr] for owner, attr in sites]
    tracer.uninstall()
    after = [owner.__dict__[attr] for owner, attr in sites]
    assert all(d is not b for d, b in zip(during, before)), \
        "install() left a listed entry point unwrapped"
    assert all(a is b for a, b in zip(after, before)), \
        "uninstall() did not restore every original"
    return f"{len(sites)} patched attributes restored"


def _traced_cycle(cls) -> tuple:
    """Set up, warm, then one traced cycle of a smoke-sized workload."""
    workload = cls(SEED, smoke=True)
    workload.setup()
    workload.cycle()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cycle = workload.cycle(tracer)
    finally:
        tracer.uninstall()
    workload.close()
    assert all(s.ok for s in cycle.samples), "a traced operation failed"
    return tracer.take_spans(), cycle


def self_times_sum_to_root_wall() -> str:
    spans, _ = _traced_cycle(workloads.TpcdsRead)
    own = tracing.self_times(spans)
    root_wall = sum(s[tracing.END] - s[tracing.START] for s in spans
                    if s[NAME] == tracing.ROOT)
    by_layer = sum(own.values())
    assert abs(by_layer - root_wall) <= 0.01 * root_wall, \
        f"self times sum to {by_layer:.6f} s, roots to {root_wall:.6f} s"
    return (f"{len(spans)} spans: self times {by_layer:.4f} s "
            f"= root wall {root_wall:.4f} s")


def racing_threads_never_share_a_parent() -> str:
    spans, _ = _traced_cycle(workloads.ServiceDashboards)
    thread_of = {s[ID]: s[THREAD] for s in spans}
    crossed = [s for s in spans
               if s[PARENT] and thread_of[s[PARENT]] != s[THREAD]]
    assert not crossed, f"{len(crossed)} spans parent across threads"
    executes = [s for s in spans if s[NAME] == "server.session.execute"]
    assert executes and all(s[STATEMENT] for s in executes), \
        "a worker-thread statement was not matched to its submit"
    return (f"{len(set(thread_of.values()))} threads, "
            f"{len(executes)} statements matched to their submit")


def _counts(cls) -> dict:
    spans, cycle = _traced_cycle(cls)
    summary = tracing.summarize(spans)
    counts = {k: v for k, v in summary.items()
              if not k.endswith("_ms") and k != "calls"}
    counts.update(summary["calls"])
    counts.update(cycle.counters)
    return counts


def counts_repeat_exactly() -> str:
    compared = 0
    for cls in workloads.WORKLOADS.values():
        first, second = _counts(cls), _counts(cls)
        differing = sorted(k for k in first if first[k] != second.get(k))
        assert not differing, f"{cls.name}: counts differ in {differing}"
        compared += len(first)
    return f"{compared} counts identical across two traced runs"


def main() -> int:
    checks = (uninstall_restores_originals, self_times_sum_to_root_wall,
              racing_threads_never_share_a_parent, counts_repeat_exactly)
    failed = 0
    for check in checks:
        try:
            print(f"ok   {check.__name__}: {check()}")
        except AssertionError as error:
            failed += 1
            print(f"FAIL {check.__name__}: {error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
