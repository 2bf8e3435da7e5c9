"""Relational operator execution.

``execute(rel, ctx)`` interprets a logical plan over materialized
:class:`~repro.common.vector.VectorBatch` data.  The Tez-style runtime
(:mod:`repro.runtime.tez`) carves the plan into vertices and calls into
this module for each fragment; scans are delegated to the context, which
routes them through the ACID reader / LLAP elevator / storage handlers.

Every operator execution lands in one :class:`OperatorRun` per plan
node in ``ctx.runs``: rows in and out, executions, wall time, the
shuffle-key histogram, the scan's IO and a memoised result.  The
runtime statistics query re-execution uses (Section 4.2), the cost
model, ``EXPLAIN ANALYZE`` and ``sys.operator_log`` all read it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..common.rows import Schema
from ..common.types import BIGINT
from ..common.vector import ColumnVector, VectorBatch, dict_codes
from ..errors import ExecutionError, OutOfMemoryError
from ..plan import relnodes as rel
from ..plan import rexnodes as rex
from .compile import EvalContext, KernelCache

#: guard against runaway cross products in nested-loop joins
MAX_CROSS_PRODUCT = 20_000_000

#: beyond this many distinct keys a vertex is treated as skew-free and
#: no per-key histogram is kept (bounds profiler memory)
KEY_HISTOGRAM_MAX_KEYS = 65_536


@dataclass(slots=True)
class OperatorRun:
    """What one plan node did in one query.

    Keyed by digest: a self-joined node runs once per digest and a DML
    plan may run once per partition, so ``calls`` counts executions,
    ``wall_s`` adds them up (each inclusive of its inputs) and
    ``rows_in`` / ``rows_out`` are the last one's.  ``scan`` is a table
    scan's ``ScanMetrics``, merged over its executions; ``virtual_s`` is
    the share of its vertex's modeled time the runner attributes to it.
    ``key_counts`` (the shuffle-key histogram the skew model reads) and
    ``batch`` (a memoised result) serve the query while it runs; the
    runner drops them before the statement record retains the run.
    """

    operator: str                 # plan-node class: "TableScan", "Join"...
    digest: str
    rows_in: int = 0
    rows_out: int = 0
    calls: int = 0
    wall_s: float = 0.0
    virtual_s: float = 0.0
    scan: Optional[object] = None
    key_counts: Optional[dict] = None
    batch: Optional[VectorBatch] = None

    def as_row(self, query_id: int, vertex: str) -> tuple:
        """Row shape of ``sys.operator_log`` (see obs.systables)."""
        return (query_id, vertex, self.operator, self.digest,
                self.rows_in, self.rows_out, self.calls,
                self.wall_s * 1000.0, self.virtual_s)


def run_of(runs: dict, node: rel.RelNode) -> OperatorRun:
    """``node``'s run in ``runs``, made on first use."""
    digest = node.digest
    run = runs.get(digest)
    if run is None:
        run = runs[digest] = OperatorRun(type(node).__name__, digest)
    return run


@dataclass
class ExecutionContext:
    """Everything a fragment needs at run time."""

    #: scan delegate: TableScan -> VectorBatch (wired by the runtime)
    scan_executor: Callable[[rel.TableScan], VectorBatch]
    #: digest -> OperatorRun of every operator executed; the runtime
    #: shares it with its scan executor, which adds each scan's IO
    runs: dict = field(default_factory=dict)
    #: dynamic semijoin filters keyed by reducer id (Section 4.6)
    semijoin_filters: dict = field(default_factory=dict)
    #: simulated available memory per hash join build, in rows; a build
    #: side exceeding it raises OutOfMemoryError (triggers reoptimization)
    hash_join_memory_rows: Optional[int] = None
    #: digests eligible for result reuse (shared work / semijoin sources);
    #: their result stays on the run and re-executions are skipped
    memo_digests: frozenset = frozenset()
    #: statement-scoped expression inputs (virtual statement time, RAND
    #: salt); defaults to the virtual epoch — never the wall clock
    eval_ctx: EvalContext = field(default_factory=EvalContext)
    #: lowered expression kernels; the plan cache passes its entry's so
    #: a repeated statement skips lowering
    kernels: KernelCache = field(default_factory=KernelCache)

    def rows_of(self, digest: str) -> int:
        """Output rows of ``digest``'s last execution (0 if none)."""
        run = self.runs.get(digest)
        return run.rows_out if run is not None else 0

    def row_counts(self) -> dict:
        """digest -> output rows of every operator that finished: the
        runtime statistics re-optimization and the HMS feedback read."""
        return {digest: run.rows_out for digest, run in self.runs.items()
                if run.calls}

    def record_keys(self, node: rel.RelNode, counts: dict) -> None:
        """Keep the per-key distribution of a shuffling operator."""
        if counts and len(counts) <= KEY_HISTOGRAM_MAX_KEYS:
            run_of(self.runs, node).key_counts = counts


def execute(node: rel.RelNode, ctx: ExecutionContext) -> VectorBatch:
    run = run_of(ctx.runs, node)
    if run.batch is not None:
        return run.batch
    handler = _DISPATCH.get(type(node))
    if handler is None:
        raise ExecutionError(f"no executor for {type(node).__name__}")
    t0 = time.perf_counter()
    result = handler(node, ctx)
    run.wall_s += time.perf_counter() - t0
    run.calls += 1
    run.rows_out = result.num_rows
    run.rows_in = sum(ctx.rows_of(child.digest) for child in node.inputs)
    if run.digest in ctx.memo_digests:
        run.batch = result
    return result


def _eval(ctx: ExecutionContext, expr: rex.RexNode,
          batch: VectorBatch) -> ColumnVector:
    return ctx.kernels.kernel(expr)(batch, ctx.eval_ctx)


def _predicate(ctx: ExecutionContext, expr: rex.RexNode,
               batch: VectorBatch) -> np.ndarray:
    return ctx.kernels.predicate(expr)(batch, ctx.eval_ctx)


# --------------------------------------------------------------------------- #
# leaves

def _exec_scan(node: rel.TableScan, ctx: ExecutionContext) -> VectorBatch:
    return ctx.scan_executor(node)


def _exec_values(node: rel.Values, ctx: ExecutionContext) -> VectorBatch:
    return VectorBatch.from_rows(node.schema, node.rows)


# --------------------------------------------------------------------------- #
# unary

def _exec_filter(node: rel.Filter, ctx: ExecutionContext) -> VectorBatch:
    child = execute(node.input, ctx)
    mask = _predicate(ctx, node.condition, child)
    return child.filter(mask)


def _exec_project(node: rel.Project, ctx: ExecutionContext) -> VectorBatch:
    child = execute(node.input, ctx)
    vectors = [_eval(ctx, expr, child) for expr in node.exprs]
    return VectorBatch(node.schema, vectors)


def _exec_limit(node: rel.Limit, ctx: ExecutionContext) -> VectorBatch:
    child = execute(node.input, ctx)
    return child.slice(0, node.count)


def _exec_sort(node: rel.Sort, ctx: ExecutionContext) -> VectorBatch:
    child = execute(node.input, ctx)
    order = sort_indices(child, node.keys)
    if node.fetch is not None:
        order = order[:node.fetch]
    return child.take(order)


def sort_indices(batch: VectorBatch,
                 keys: Sequence[rel.SortKey]) -> np.ndarray:
    """Stable multi-key order: one ``np.lexsort`` over the keys'
    :func:`order_ranks`, so ties keep input order and NULLs sort last
    in both directions."""
    n = batch.num_rows
    if n <= 1 or not keys:
        return np.arange(n)
    return np.lexsort([order_ranks(batch.vectors[key.index], key.ascending)
                       for key in reversed(keys)])


def order_ranks(vector: ColumnVector, ascending: bool = True) -> np.ndarray:
    """The value order of every operator that sorts, ranks or takes a
    MIN / MAX: an int64 rank per row, equal exactly for peers.  Over the
    ``g`` distinct non-NULL values ASC ranks are ``0 .. g - 1``, DESC is
    ``g - 1 - rank`` (ranks are negated, never values), NULL is ``g``."""
    nulls = vector.nulls
    has_nulls = nulls.any()
    ranks, distinct = _value_ranks(vector.data[~nulls] if has_nulls
                                   else vector.data)
    g = len(distinct)
    if not ascending:
        ranks = g - 1 - ranks
    if not has_nulls:
        return ranks
    out = np.full(len(nulls), g, dtype=np.int64)
    out[~nulls] = ranks
    return out


def _value_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's int64 rank among the distinct values, and those
    values in order.  Numbers by ``np.unique``, which orders as Java's
    ``Double.compare`` does except that ``-0.0`` ties ``0.0`` (as in
    GROUP BY): NaN above +inf and all NaN one value.  Strings by code
    point, ranking the dict of distinct strings (an object array)."""
    if values.dtype == np.dtype(object):
        index, codes = dict_codes(values.tolist())
        distinct = np.empty(len(index), dtype=object)
        distinct[:] = sorted(index)
        ranks = np.empty(len(distinct), dtype=np.int64)
        ranks[[index[s] for s in distinct]] = np.arange(len(distinct))
        return ranks[codes], distinct
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks.reshape(-1).astype(np.int64, copy=False), distinct


# --------------------------------------------------------------------------- #
# aggregation

def _exec_aggregate(node: rel.Aggregate, ctx: ExecutionContext) -> VectorBatch:
    child = execute(node.input, ctx)
    if node.grouping_sets is not None:
        return _aggregate_grouping_sets(node, child)
    vectors, sizes = _aggregate_vectorized(node, child, node.group_keys)
    if node.group_keys and len(sizes) <= KEY_HISTOGRAM_MAX_KEYS:
        keys = zip(*(_plain_values(v) for v in vectors[:len(node.group_keys)]))
        ctx.record_keys(node, dict(zip(keys, sizes.tolist())))
    return VectorBatch(node.schema, vectors)


def _aggregate_grouping_sets(node: rel.Aggregate,
                             child: VectorBatch) -> VectorBatch:
    """One aggregate per grouping set, concatenated: the keys a set
    leaves out are all NULL and ``grouping_id`` is a constant BIGINT
    with one bit set per absent key."""
    key_count = len(node.group_keys)
    key_columns = node.schema.columns[:key_count]
    batches = []
    for gset in node.grouping_sets:
        vectors, sizes = _aggregate_vectorized(
            node, child, tuple(node.group_keys[i] for i in gset))
        g = len(sizes)
        keys = [_null_vector(col.dtype, g) for col in key_columns]
        for key_pos, vector in zip(gset, vectors):
            keys[key_pos] = vector
        grouping_id = sum(1 << (key_count - 1 - i)
                          for i in range(key_count) if i not in gset)
        batches.append(VectorBatch(node.schema, keys + vectors[len(gset):] + [
            ColumnVector(BIGINT, np.full(g, grouping_id, dtype=np.int64))]))
    return VectorBatch.concat(node.schema, batches)


def _dense_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``(codes, cardinality)``: an int64 code in ``[0, cardinality)``
    per value, equal codes exactly where values compare equal.

    Objects (strings) are told apart by a dict, i.e. by Python equality,
    without the sort ``np.unique`` would need; numeric arrays by
    ``np.unique``, which folds ``-0.0`` into ``0.0`` and all NaNs into
    one code.
    """
    if values.dtype == np.dtype(object):
        index, codes = dict_codes(values.tolist())
        return codes, len(index)
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniq)


def _combine_codes(columns: Sequence[tuple[np.ndarray, int]]
                   ) -> np.ndarray:
    """One int64 per row from per-column ``(codes, cardinality)`` pairs,
    by mixed radix: rows get equal results exactly where they agree in
    every column.  Re-densified before the radix product could overflow.
    """
    combined, radix = columns[0]
    for codes, cardinality in columns[1:]:
        if radix * cardinality >= 1 << 62:
            combined, radix = _dense_codes(combined)
        combined = combined * cardinality + codes
        radix *= cardinality
    return combined


def _group_codes(vector: ColumnVector) -> tuple[np.ndarray, int]:
    """Dense ``(codes, cardinality)`` for one key column; NULL is its
    own group."""
    vals = vector.data
    nulls = vector.nulls
    has_nulls = bool(nulls.any())
    if has_nulls:
        # values under null positions are unspecified garbage; blank
        # them so they are never compared against real values
        vals = vals.copy()
        vals[nulls] = "" if vals.dtype == np.dtype(object) else 0
    codes, cardinality = _dense_codes(vals)
    if has_nulls:
        codes[nulls] = cardinality
        cardinality += 1
    return codes, cardinality


def _factorize_keys(child: VectorBatch, group_keys: tuple[int, ...]):
    """Combined group ids in *first-occurrence* order.

    Returns ``(codes, group_count, representatives)`` where
    ``representatives[g]`` is the row index of group ``g``'s first row.
    """
    n = child.num_rows
    if not group_keys:
        return np.zeros(n, dtype=np.int64), 1, np.zeros(1, dtype=np.int64)
    code_cols = [_group_codes(child.vectors[k]) for k in group_keys]
    _, first_idx, inv = np.unique(_combine_codes(code_cols),
                                  return_index=True, return_inverse=True)
    inv = inv.reshape(-1)
    g = len(first_idx)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(g, dtype=np.int64)
    rank[order] = np.arange(g)
    return rank[inv], g, first_idx[order]


def _first_of_each(codes: np.ndarray, g: int,
                   values: np.ndarray) -> np.ndarray:
    """Ascending row positions of the first row of every distinct
    *(group code, value)* pair — the rows a DISTINCT aggregate sees.
    Values are told apart as ``_dense_codes`` does: ``-0.0 = 0.0`` and
    all NaNs are one value, as in GROUP BY and SELECT DISTINCT."""
    pairs = _combine_codes([(codes, g), _dense_codes(values)])
    _, first = np.unique(pairs, return_index=True)
    first.sort()
    return first


def _aggregate_vectorized(node: rel.Aggregate, child: VectorBatch,
                          group_keys: tuple[int, ...]
                          ) -> tuple[list[ColumnVector], np.ndarray]:
    """Grouped aggregation as batch-level numpy ops: one vector per key
    (each group's first row) and per call, and the rows of each group.
    Groups come out in first-occurrence order; NULL arguments are
    ignored, and a group without any is NULL (``0`` / ``""`` under it).
    A DISTINCT call runs the same arms over the first row of each
    distinct (group, value) pair.
    """
    for call in node.agg_calls:
        if call.func not in _AGG_FUNCS:
            raise ExecutionError(f"unknown aggregate {call.func}")
        if call.distinct and call.func in ("stddev", "variance"):
            raise ExecutionError(f"unsupported DISTINCT {call.func}")
    codes, g, reps = _factorize_keys(child, group_keys)
    sizes = np.bincount(codes, minlength=g)
    vectors = [_blank_nulls(child.vectors[k].take(reps)) for k in group_keys]
    for call in node.agg_calls:
        if call.arg is None:     # count(*)
            vectors.append(ColumnVector(call.dtype, sizes))
            continue
        column = child.vectors[call.arg]
        valid = ~column.nulls
        valid_codes, values = codes[valid], column.data[valid]
        if call.distinct:
            first = _first_of_each(valid_codes, g, values)
            valid_codes, values = valid_codes[first], values[first]
        counts = np.bincount(valid_codes, minlength=g)
        if call.func == "count":
            vectors.append(ColumnVector(call.dtype, counts))
            continue
        finals = _finals(call.func, valid_codes, values, counts)
        vectors.append(_blank_nulls(ColumnVector(
            call.dtype, finals.astype(call.dtype.numpy_dtype, copy=False),
            counts == 0)))
    return vectors, sizes


def _finals(func: str, codes: np.ndarray, values: np.ndarray,
            counts: np.ndarray) -> np.ndarray:
    """One SUM / AVG / MIN / MAX / VARIANCE / STDDEV per group of the
    non-NULL ``values``.  DOUBLE sums are ``np.bincount``, which adds in
    row order as a loop would; integer sums are exact in int64.  MIN /
    MAX reduce order ranks, so NaN is the largest value.  VARIANCE takes
    the mean, then the squared deviations from it."""
    g = len(counts)
    if func in ("sum", "avg"):
        if values.dtype.kind in "iub":
            totals = np.zeros(g, dtype=np.int64)
            np.add.at(totals, codes, values.astype(np.int64))
        else:
            totals = np.bincount(codes, minlength=g,
                                 weights=values.astype(np.float64, copy=False))
        if func == "sum":
            return totals
        means = totals / np.maximum(counts, 1)
        if totals.dtype.kind == "i":
            # beyond 2**53 float64 cannot hold the total: divide exactly
            for j in np.flatnonzero((totals > 2**53) | (totals < -2**53)
                                    ).tolist():
                means[j] = int(totals[j]) / int(counts[j])
        return means
    if func in ("min", "max"):
        ranks, distinct = _value_ranks(values)
        best = np.full(g, len(distinct) if func == "min" else -1)
        (np.minimum if func == "min" else np.maximum).at(best, codes, ranks)
        return (distinct.take(best, mode="clip") if len(distinct)
                else np.zeros(g, dtype=distinct.dtype))
    weights = values.astype(np.float64, copy=False)      # stddev / variance
    per_group = np.maximum(counts, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        means = np.bincount(codes, weights=weights, minlength=g) / per_group
        deviations = weights - means[codes]
        variance = np.bincount(codes, weights=deviations * deviations,
                               minlength=g) / per_group
    return variance if func == "variance" else np.sqrt(variance)


_AGG_FUNCS = frozenset({"count", "sum", "avg", "min", "max", "stddev",
                        "variance"})


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


def _plain_values(vector: ColumnVector) -> list:
    """The vector's storage values as plain Python, ``None`` for NULL."""
    return [None if null else value for value, null in
            zip(vector.data.tolist(), vector.nulls.tolist())]


def _blank_nulls(vector: ColumnVector) -> ColumnVector:
    """``vector`` with ``0`` / ``""`` under its NULLs, written in place:
    only for vectors this module just allocated."""
    if vector.nulls.any():
        vector.data[vector.nulls] = (
            "" if vector.data.dtype == np.dtype(object) else 0)
    return vector


def _null_vector(dtype, n: int) -> ColumnVector:
    """``n`` NULLs of ``dtype``."""
    data = np.zeros(n, dtype=dtype.numpy_dtype)
    if data.dtype == np.dtype(object):
        data[:] = ""
    return ColumnVector(dtype, data, np.ones(n, dtype=bool))


# --------------------------------------------------------------------------- #
# joins

def _exec_join(node: rel.Join, ctx: ExecutionContext) -> VectorBatch:
    left = execute(node.left, ctx)
    right = execute(node.right, ctx)
    return join_batches(node, left, right, ctx)


def join_batches(node: rel.Join, left: VectorBatch, right: VectorBatch,
                 ctx: ExecutionContext) -> VectorBatch:
    left_width = len(left.schema)
    pairs, residual = rex.split_equi_condition(node.condition, left_width)
    if (ctx.hash_join_memory_rows is not None and pairs
            and right.num_rows > ctx.hash_join_memory_rows):
        raise OutOfMemoryError(
            f"hash join build side has {right.num_rows} rows, memory "
            f"budget is {ctx.hash_join_memory_rows}",
            vertex=node._explain_label())

    li, ri, key_counts = _candidate_pairs(left, right, pairs)
    if key_counts is not None:
        ctx.record_keys(node, key_counts)
    if residual:
        mask = _residual_mask(node, left, right, li, ri, residual, ctx)
        li, ri = li[mask], ri[mask]

    kind = node.kind
    if kind == "semi":
        keep = np.unique(li)
        return left.take(keep)
    if kind == "anti":
        matched = np.zeros(left.num_rows, dtype=bool)
        matched[li] = True
        return left.filter(~matched)

    out_schema = node.schema
    if kind == "inner":
        return _combine(out_schema, left, right, li, ri)
    if kind in ("left", "full"):
        matched = np.zeros(left.num_rows, dtype=bool)
        matched[li] = True
        extra_left = np.nonzero(~matched)[0]
        li = np.concatenate([li, extra_left])
        ri = np.concatenate([ri, np.full(len(extra_left), -1,
                                         dtype=np.int64)])
    if kind in ("right", "full"):
        matched_right = np.zeros(right.num_rows, dtype=bool)
        matched_right[ri[ri >= 0]] = True
        extra_right = np.nonzero(~matched_right)[0]
        li = np.concatenate([li, np.full(len(extra_right), -1,
                                         dtype=np.int64)])
        ri = np.concatenate([ri, extra_right])
    return _combine(out_schema, left, right, li, ri)


def _candidate_pairs(left: VectorBatch, right: VectorBatch,
                     pairs: list[tuple[int, int]]
                     ) -> tuple[np.ndarray, np.ndarray, Optional[dict]]:
    """Matching row pairs, plus the per-key distribution of matches.

    The third element maps each equi-join key to the number of joined
    rows it produced — the shuffle distribution a hash-partitioned
    reducer would see, which the runtime's skew analysis consumes.
    ``None`` for cross products (no shuffle key exists).
    """
    if not pairs:
        total = left.num_rows * right.num_rows
        if total > MAX_CROSS_PRODUCT:
            raise ExecutionError(
                f"cross product of {left.num_rows} x {right.num_rows} "
                "rows exceeds the nested-loop limit")
        li = np.repeat(np.arange(left.num_rows), right.num_rows)
        ri = np.tile(np.arange(right.num_rows), left.num_rows)
        return li.astype(np.int64), ri.astype(np.int64), None
    left_keys = [left.vectors[l] for l, _ in pairs]
    right_keys = [right.vectors[r] for _, r in pairs]
    probe_rows, probe_codes, build_rows, build_codes = _join_codes(
        left_keys, right_keys)
    # hash join, build on right: the build rows sorted by code (stably,
    # so ascending within one code) are the buckets, and each probe
    # row's bucket is the run of its code
    order = np.argsort(build_codes, kind="stable")
    build_rows, build_codes = build_rows[order], build_codes[order]
    starts = np.searchsorted(build_codes, probe_codes, side="left")
    matches = np.searchsorted(build_codes, probe_codes, side="right") - starts
    li = np.repeat(probe_rows, matches)
    # position of each output pair within its probe row's run
    ends = np.cumsum(matches)
    within = np.arange(len(li)) - np.repeat(ends - matches, matches)
    ri = build_rows[np.repeat(starts, matches) + within]
    return li, ri, _key_histogram(left_keys, probe_rows, probe_codes,
                                  matches)


def _join_codes(left_keys: list[ColumnVector],
                right_keys: list[ColumnVector]):
    """Factorize the key columns of both sides together.

    Returns ``(probe_rows, probe_codes, build_rows, build_codes)``: the
    ascending indices of the rows that *can* match — no NULL and no NaN
    key, which equal nothing — and one int64 code per such row, equal
    across the sides exactly where every key column is equal the way
    Python compares plain values (``-0.0 = 0.0``, ``INT = DOUBLE`` and
    ``BOOLEAN = INT`` by value; a string never equals a number).
    """
    none = np.empty(0, dtype=np.int64)
    l_ok = np.ones(len(left_keys[0]), dtype=bool)
    r_ok = np.ones(len(right_keys[0]), dtype=bool)
    columns = []
    for lv, rv in zip(left_keys, right_keys):
        ld, rd = lv.data, rv.data
        if (ld.dtype == np.dtype(object)) != (rd.dtype == np.dtype(object)):
            return none, none, none, none
        l_ok &= ~lv.nulls
        r_ok &= ~rv.nulls
        if ld.dtype.kind == "f" and rd.dtype.kind == "f":
            # np.unique gives all NaNs one code; with none on the build
            # side that code matches nothing
            r_ok &= ~np.isnan(rd)
        elif ld.dtype.kind == "f":
            ld, whole = _whole_floats(ld)
            l_ok &= whole
        elif rd.dtype.kind == "f":
            rd, whole = _whole_floats(rd)
            r_ok &= whole
        columns.append((ld, rd))
    probe_rows = np.nonzero(l_ok)[0]
    build_rows = np.nonzero(r_ok)[0]
    codes = _combine_codes([
        _dense_codes(np.concatenate([ld[probe_rows], rd[build_rows]]))
        for ld, rd in columns])
    return (probe_rows, codes[:len(probe_rows)],
            build_rows, codes[len(probe_rows):])


def _whole_floats(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A DOUBLE column as int64, and which rows that is exact for.

    Only those can equal an INT key; comparing in int64 rather than
    float64 keeps integers beyond 2**53 apart, as Python does.
    """
    whole = ((data == np.floor(data))
             & (data >= -2.0 ** 63) & (data < 2.0 ** 63))
    return np.where(whole, data, 0.0).astype(np.int64), whole


def _key_histogram(left_keys: list[ColumnVector], probe_rows: np.ndarray,
                   probe_codes: np.ndarray, matches: np.ndarray
                   ) -> Optional[dict]:
    """Joined rows per key, keyed by the first matching probe row's plain
    key tuple, in first-match order.  None (no histogram is kept) beyond
    ``KEY_HISTOGRAM_MAX_KEYS`` keys.
    """
    matched = matches > 0
    rows, run_lengths = probe_rows[matched], matches[matched]
    _, first, inverse = np.unique(probe_codes[matched], return_index=True,
                                  return_inverse=True)
    if len(first) > KEY_HISTOGRAM_MAX_KEYS:
        return None
    # every probe row of one key matched the same run of build rows
    totals = np.bincount(inverse.reshape(-1),
                         minlength=len(first)) * run_lengths[first]
    by_first_match = np.argsort(first, kind="stable")
    return {
        tuple(_plain(kc.data[row]) for kc in left_keys): total
        for row, total in zip(rows[first[by_first_match]].tolist(),
                              totals[by_first_match].tolist())}


def _residual_mask(node, left, right, li, ri, residual,
                   ctx: ExecutionContext) -> np.ndarray:
    combined_schema = left.schema.concat(right.schema, dedupe=True)
    combined = VectorBatch(
        combined_schema,
        [v.take(li) for v in left.vectors]
        + [v.take(ri) for v in right.vectors])
    condition = rex.make_and(list(residual))
    return _predicate(ctx, condition, combined)


def _combine(out_schema: Schema, left: VectorBatch, right: VectorBatch,
             li: np.ndarray, ri: np.ndarray) -> VectorBatch:
    """Materialize joined rows; index -1 produces NULL-padded sides."""
    return VectorBatch(out_schema, [_take_padded(v, li) for v in left.vectors]
                       + [_take_padded(v, ri) for v in right.vectors])


def _take_padded(vector: ColumnVector, indices: np.ndarray) -> ColumnVector:
    if len(vector.data) == 0:
        # an empty side has no row to take: all padding
        return _null_vector(vector.dtype, len(indices))
    safe = np.where(indices < 0, 0, indices)
    return ColumnVector(vector.dtype, vector.data[safe],
                        vector.nulls[safe] | (indices < 0))


# --------------------------------------------------------------------------- #
# set operations

def _exec_union(node: rel.Union, ctx: ExecutionContext) -> VectorBatch:
    return VectorBatch.concat(node.schema,
                              [execute(child, ctx) for child in node.rels])


def _exec_setop(node: rel.SetOp, ctx: ExecutionContext) -> VectorBatch:
    """INTERSECT / EXCEPT over codes: both sides factorized together,
    so rows are equal exactly where GROUP BY puts them in one group.
    DISTINCT keeps the first left row of each code the right side has
    (INTERSECT) or lacks (EXCEPT); ALL keeps, in left order, the first
    ``min(l, r)`` (INTERSECT) or ``max(l - r, 0)`` (EXCEPT) of a code's
    ``l`` left rows, ``r`` being its right rows."""
    if node.kind not in ("intersect", "except"):
        raise ExecutionError(f"unknown set op {node.kind}")
    left = execute(node.left, ctx)
    right = execute(node.right, ctx)
    both = VectorBatch.concat(node.schema, [left, right])
    codes, g, _ = _factorize_keys(both, tuple(range(len(node.schema))))
    n = left.num_rows
    left_codes = codes[:n]
    l_count = np.bincount(left_codes, minlength=g)
    r_count = np.bincount(codes[n:], minlength=g)
    if node.kind == "intersect":
        quota = np.minimum(l_count, r_count) if node.all else r_count > 0
    else:
        quota = (np.maximum(l_count - r_count, 0) if node.all
                 else r_count == 0)
    # how many earlier left rows share each left row's code
    order = np.argsort(left_codes, kind="stable")
    earlier = np.empty(n, dtype=np.int64)
    earlier[order] = np.arange(n) - _run_firsts(
        _run_starts([left_codes[order]], n))
    return left.filter(earlier < quota[left_codes])


def _run_starts(columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    """True where a row differs from the previous one in any column."""
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    return starts


def _run_firsts(starts: np.ndarray) -> np.ndarray:
    """The position of the first row of each row's run."""
    positions = np.arange(len(starts))
    return np.maximum.accumulate(np.where(starts, positions, 0))


# --------------------------------------------------------------------------- #
# window functions

def _exec_window(node: rel.Window, ctx: ExecutionContext) -> VectorBatch:
    child = execute(node.input, ctx)
    return VectorBatch(node.schema, list(child.vectors) + [
        _window_column(call, child) for call in node.calls])


def _window_column(call: rel.WindowCall, child: VectorBatch) -> ColumnVector:
    """One window function over the whole input: a stable lexsort by
    (partition codes, ORDER BY ranks) lays each partition out as a
    segment, ties in input order; peers are a segment's rows with equal
    ranks.  Results are scattered back to the input rows."""
    n = child.num_rows
    keys = [order_ranks(child.vectors[k.index], k.ascending)
            for k in reversed(call.order_keys)]
    if call.partition_keys:
        keys.append(_factorize_keys(child, call.partition_keys)[0])
    order = np.lexsort(keys) if keys and n > 1 else np.arange(n)
    keys = [k[order] for k in keys]
    seg_starts = _run_starts(keys[-1:] if call.partition_keys else [], n)
    peer_starts = _run_starts(keys, n)
    if call.func not in ("row_number", "rank", "dense_rank"):
        return _window_aggregate(call, child, order, seg_starts, peer_starts)
    seg_first = _run_firsts(seg_starts)
    if call.func == "row_number":
        values = np.arange(n) - seg_first + 1
    elif call.func == "rank":
        values = _run_firsts(peer_starts) - seg_first + 1
    else:
        dense = np.cumsum(peer_starts)
        values = dense - dense[seg_first] + 1
    data = np.empty(n, dtype=call.dtype.numpy_dtype)
    data[order] = values
    return ColumnVector(call.dtype, data)


def _window_aggregate(call: rel.WindowCall, child: VectorBatch,
                      order: np.ndarray, seg_starts: np.ndarray,
                      peer_starts: np.ndarray) -> ColumnVector:
    """Windowed aggregates over the default frame, RANGE BETWEEN
    UNBOUNDED PRECEDING AND CURRENT ROW: a row sees its segment up to
    its last peer.  Without ORDER BY a whole partition is peers."""
    n = len(order)
    out = _null_vector(call.dtype, n)
    column = None if call.arg is None else child.vectors[call.arg]
    if column is not None:
        values = column.data[order].tolist()
        valid = (~column.nulls[order]).tolist()
    bounds = np.append(np.flatnonzero(peer_starts), n).tolist()
    new_segment = seg_starts.tolist()
    running: list = []
    count = 0
    for start, stop in zip(bounds, bounds[1:]):
        if new_segment[start]:
            running, count = [], 0
        if column is None:
            count += stop - start
        else:
            running.extend(values[i] for i in range(start, stop) if valid[i])
            count = len(running)
        result, is_null = _window_agg_value(call.func, running, count)
        if not is_null:
            out.data[order[start:stop]] = result
            out.nulls[order[start:stop]] = False
    return out


def _window_agg_value(func: str, values: list, count: int):
    if func == "count":
        return count, False
    if not values:
        return 0, True
    if func == "sum":
        return sum(values), False
    if func == "avg":
        return sum(values) / len(values), False
    if func == "min":
        return min(values, key=_nan_last), False
    if func == "max":
        return max(values, key=_nan_last), False
    raise ExecutionError(f"unsupported window aggregate {func}")


def _nan_last(value) -> tuple:
    """Sort key of :func:`order_ranks`' order for one plain value."""
    return value != value, value


_DISPATCH = {
    rel.TableScan: _exec_scan,
    rel.Values: _exec_values,
    rel.Filter: _exec_filter,
    rel.Project: _exec_project,
    rel.Limit: _exec_limit,
    rel.Sort: _exec_sort,
    rel.Aggregate: _exec_aggregate,
    rel.Join: _exec_join,
    rel.Union: _exec_union,
    rel.SetOp: _exec_setop,
    rel.Window: _exec_window,
}
