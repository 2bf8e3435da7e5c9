"""Per-operator execution profile backing ``EXPLAIN ANALYZE``.

The interpreter (:mod:`repro.exec.operators`) records every operator
invocation here when a profile is attached to the
``ExecutionContext``; the Tez runner adds the scan-level IO metrics and
the final :class:`~repro.runtime.tez.QueryMetrics`.  The profile is
addressed by plan-node digest — the same key the runtime-statistics
feedback loop uses — so the annotated plan can be rendered by walking
the optimized tree.

Sub-query granularity (the vertex/operator profiler): each recorded
invocation also captures rows *in* and the operator kind; the runner folds these into per-vertex
:class:`OperatorProfile` rows with a virtual-time attribution, which is
what ``sys.operator_log`` and the ``EXPLAIN ANALYZE`` operator tree
serve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class OperatorProfile:
    """One operator's runtime inside one vertex of one query.

    ``virtual_s`` is the share of the vertex's modeled time attributed
    to this operator (CPU proportional to rows processed; scans also
    carry the vertex's IO); ``wall_s`` is real interpreter time.
    """

    operator: str                 # e.g. "TableScan", "Join", "Aggregate"
    digest: str
    rows_in: int = 0
    rows_out: int = 0
    calls: int = 0
    wall_s: float = 0.0
    virtual_s: float = 0.0

    def as_row(self, query_id: int, vertex: str) -> tuple:
        """Row shape of ``sys.operator_log`` (see obs.systables)."""
        return (query_id, vertex, self.operator, self.digest,
                self.rows_in, self.rows_out, self.calls,
                self.wall_s * 1000.0, self.virtual_s)


@dataclass
class ExecutionProfile:
    """What actually happened, keyed by plan-node digest."""

    #: digest -> output rows of the last execution
    operator_rows: dict = field(default_factory=dict)
    #: digest -> number of executions (memoized re-uses excluded)
    operator_calls: dict = field(default_factory=dict)
    #: digest -> cumulative wall seconds (inclusive of children)
    operator_wall_s: dict = field(default_factory=dict)
    #: digest -> rows flowing *into* the operator (sum over inputs)
    operator_rows_in: dict = field(default_factory=dict)
    #: digest -> operator kind (plan-node class name)
    operator_kinds: dict = field(default_factory=dict)
    #: digest -> ScanMetrics for table scans
    scan_metrics: dict = field(default_factory=dict)
    #: the run's QueryMetrics (set by the runner)
    metrics: Optional[object] = None

    def record(self, digest: str, rows: int, wall_s: float,
               rows_in: int = 0, operator: str = "") -> None:
        self.operator_rows[digest] = rows
        self.operator_calls[digest] = \
            self.operator_calls.get(digest, 0) + 1
        self.operator_wall_s[digest] = \
            self.operator_wall_s.get(digest, 0.0) + wall_s
        self.operator_rows_in[digest] = rows_in
        if operator:
            self.operator_kinds[digest] = operator

    def operator_profile(self, digest: str,
                         virtual_s: float = 0.0) -> OperatorProfile:
        """Assemble one operator's profile row from the recorded maps."""
        return OperatorProfile(
            operator=self.operator_kinds.get(digest, "?"),
            digest=digest,
            rows_in=self.operator_rows_in.get(digest, 0),
            rows_out=self.operator_rows.get(digest, 0),
            calls=self.operator_calls.get(digest, 0),
            wall_s=self.operator_wall_s.get(digest, 0.0),
            virtual_s=virtual_s)
