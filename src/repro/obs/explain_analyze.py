"""Rendering for ``EXPLAIN ANALYZE``: the executed plan, annotated.

Walks the optimized plan tree and annotates every operator with what the
execution actually observed — output rows, executions, wall time — and,
for table scans, the IO detail (disk vs cache bytes, row-group and
partition pruning, semijoin filtering).  A footer reports the
virtual-time breakdown and the per-vertex schedule of the DAG: each
vertex gets a time bar proportional to its share of the query's modeled
time, its skew factor (max task / median task) when tasks are
imbalanced, and a nested per-operator breakdown with the attributed
virtual time.
"""

from __future__ import annotations

from typing import Optional

from ..plan import relnodes as rel


#: width of the EXPLAIN ANALYZE per-vertex/per-operator time bars
_BAR_WIDTH = 12


def _time_bar(value: float, longest: float) -> str:
    """A fixed-width bar scaled against the longest sibling."""
    if longest <= 0.0:
        return "[" + " " * _BAR_WIDTH + "]"
    filled = int(round(_BAR_WIDTH * max(0.0, value) / longest))
    filled = min(_BAR_WIDTH, filled)
    return "[" + "#" * filled + " " * (_BAR_WIDTH - filled) + "]"


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KB"
    return f"{n}B"


def _annotate(node: rel.RelNode, runs: dict) -> str:
    run = runs.get(node.digest)
    if run is None or not run.calls:
        return ""
    bits = [f"rows={run.rows_out}"]
    if run.calls > 1:
        bits.append(f"executions={run.calls}")
    bits.append(f"wall={run.wall_s * 1000:.2f}ms")
    scan = run.scan
    if scan is not None:
        if scan.raw_rows != scan.rows:
            bits.append(f"raw_rows={scan.raw_rows}")
        bits.append(f"disk={_fmt_bytes(scan.disk_bytes)}")
        bits.append(f"cache={_fmt_bytes(scan.cache_bytes)}")
        if scan.row_groups_total:
            bits.append(f"row-groups={scan.row_groups_read}"
                        f"/{scan.row_groups_total}")
        if scan.partitions_total:
            bits.append(f"partitions={scan.partitions_read}"
                        f"/{scan.partitions_total}")
        if scan.semijoin_filtered_rows:
            bits.append(f"semijoin-filtered={scan.semijoin_filtered_rows}")
        if scan.external_time_s:
            bits.append(f"external={scan.external_time_s:.3f}s")
    return "  [" + ", ".join(bits) + "]"


def _render_tree(node: rel.RelNode, runs: dict,
                 indent: int = 0) -> list[str]:
    line = "  " * indent + node._explain_label() + _annotate(node, runs)
    lines = [line]
    for child in node.inputs:
        lines.extend(_render_tree(child, runs, indent + 1))
    return lines


def render_explain_analyze(optimized, metrics,
                           reexecuted: bool = False,
                           views_used: Optional[list] = None,
                           inputs: Optional[list] = None,
                           outputs: Optional[list] = None
                           ) -> list[str]:
    """Annotated-plan lines for one executed query: each operator's
    line reads its run off the vertices of ``metrics`` (QueryMetrics).

    ``inputs``/``outputs`` are the hook-context's resolved table lists
    — the driver passes the SAME resolution the audit log records, so
    EXPLAIN ANALYZE and ``sys.audit_log`` cannot disagree about what a
    statement touched.
    """
    runs: dict = {}
    if metrics is not None:
        for vm in metrics.vertices:
            for run in vm.operators:
                runs.setdefault(run.digest, run)
    lines = _render_tree(optimized.root, runs)
    if metrics is not None:
        lines.append(
            "-- time: total={:.3f}s queue={:.3f}s compile={:.3f}s "
            "startup={:.3f}s io={:.3f}s cpu={:.3f}s shuffle={:.3f}s "
            "external={:.3f}s".format(
                metrics.total_s, metrics.queue_s, metrics.compile_s,
                metrics.startup_s, metrics.io_s, metrics.cpu_s,
                metrics.shuffle_s, metrics.external_s))
        lines.append(
            f"-- io: disk={_fmt_bytes(metrics.disk_bytes)} "
            f"cache={_fmt_bytes(metrics.cache_bytes)} "
            f"(cache hit {metrics.cache_hit_fraction * 100:.1f}%)")
        longest = max((vm.duration_s for vm in metrics.vertices),
                      default=0.0)
        for vm in metrics.vertices:
            bar = _time_bar(vm.duration_s, longest)
            skew = ""
            if vm.skew_factor > 1.0:
                skew = f" skew={vm.skew_factor:.2f}"
                if vm.straggler:
                    skew += " STRAGGLER"
            retries = ""
            if vm.failed_attempts or vm.speculative_tasks:
                parts = [f"attempts={vm.attempts}"]
                if vm.failed_attempts:
                    parts.append(f"retried={vm.failed_attempts}")
                if vm.speculative_tasks:
                    parts.append(f"speculative={vm.speculative_tasks}")
                parts.append(f"retry={vm.retry_s:.3f}s")
                retries = " " + " ".join(parts)
            lines.append(
                f"-- vertex {vm.name}: {bar} {vm.duration_s:.3f}s "
                f"tasks={vm.tasks} rows={vm.rows} "
                f"start={vm.start_s:.3f}s finish={vm.finish_s:.3f}s "
                f"(startup={vm.startup_s:.3f}s io={vm.io_s:.3f}s "
                f"cpu={vm.cpu_s:.3f}s shuffle={vm.shuffle_s:.3f}s)"
                f"{skew}{retries}")
            op_longest = max((op.virtual_s for op in vm.operators),
                             default=0.0)
            for op in vm.operators:
                lines.append(
                    f"--   op {op.operator}: "
                    f"{_time_bar(op.virtual_s, op_longest)} "
                    f"virtual={op.virtual_s:.3f}s "
                    f"rows_in={op.rows_in} rows_out={op.rows_out}")
        if metrics.retry_s or metrics.failover_s:
            lines.append(
                f"-- faults: retry={metrics.retry_s:.3f}s "
                f"failover={metrics.failover_s:.3f}s")
        if metrics.pool:
            moved = (f" -> moved to {metrics.moved_to_pool}"
                     if metrics.moved_to_pool else "")
            lines.append(f"-- pool: {metrics.pool}{moved}")
    lines.append(f"-- stages: {', '.join(optimized.stages_applied)}")
    if views_used:
        lines.append(
            f"-- materialized views: {', '.join(views_used)}")
    if reexecuted:
        lines.append("-- reexecuted: yes")
    if inputs:
        lines.append(f"-- inputs: {', '.join(inputs)}")
    if outputs:
        lines.append(f"-- outputs: {', '.join(outputs)}")
    return lines
