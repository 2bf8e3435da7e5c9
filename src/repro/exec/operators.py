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
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from ..common.rows import Column, Schema
from ..common.types import BIGINT, DOUBLE
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
    """Stable multi-key sort; NULLs sort last regardless of direction."""
    n = batch.num_rows
    if n == 0:
        return np.arange(0)
    indices = list(range(n))
    key_values = []
    for key in keys:
        vector = batch.vectors[key.index]
        key_values.append((vector, key.ascending))

    def sort_key(i: int):
        parts = []
        for vector, ascending in key_values:
            is_null = bool(vector.nulls[i])
            value = None if is_null else vector.data[i]
            if value is not None and isinstance(value, np.generic):
                value = value.item()
            # nulls last: (1, anything); invert for DESC on comparables
            parts.append((1, 0) if is_null else (0, _Directional(
                value, ascending)))
        return tuple(parts)

    indices.sort(key=sort_key)
    return np.asarray(indices, dtype=np.int64)


class _Directional:
    """Wrapper to invert comparison for DESC keys."""

    __slots__ = ("value", "ascending")

    def __init__(self, value, ascending: bool):
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_Directional") -> bool:
        if self.ascending:
            return self.value < other.value
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return self.value == other.value


# --------------------------------------------------------------------------- #
# aggregation

def _exec_aggregate(node: rel.Aggregate, ctx: ExecutionContext) -> VectorBatch:
    child = execute(node.input, ctx)
    if node.grouping_sets is not None:
        return _aggregate_grouping_sets(node, child)
    sizes: dict[tuple, int] = {}
    rows = _aggregate_vectorized(node, child, node.group_keys, sizes)
    ctx.record_keys(node, sizes)
    return VectorBatch.from_rows(node.schema, rows)


def _aggregate_grouping_sets(node: rel.Aggregate,
                             child: VectorBatch) -> VectorBatch:
    all_rows = []
    key_count = len(node.group_keys)
    for gset in node.grouping_sets:
        keys = tuple(node.group_keys[i] for i in gset)
        rows = _aggregate_vectorized(node, child, keys)
        grouping_id = 0
        for i in range(key_count):
            if i not in gset:
                grouping_id |= 1 << (key_count - 1 - i)
        expanded = []
        for row in rows:
            full = [None] * key_count
            for out_pos, key_pos in enumerate(gset):
                full[key_pos] = row[out_pos]
            expanded.append(tuple(full) + tuple(row[len(gset):])
                            + (grouping_id,))
        all_rows.extend(expanded)
    return VectorBatch.from_rows(node.schema, all_rows)


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


def _key_tuple(key_columns, i: int) -> tuple:
    return tuple(None if kc.nulls[i] else _plain(kc.data[i])
                 for kc in key_columns)


def _minmax_init(dtype: np.dtype, for_min: bool):
    if dtype == np.dtype(bool):
        return for_min
    if np.issubdtype(dtype, np.floating):
        return np.inf if for_min else -np.inf
    return np.iinfo(dtype).max if for_min else np.iinfo(dtype).min


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


def _string_ranks(values: np.ndarray) -> tuple[np.ndarray, list]:
    """Each string's rank among the distinct strings in code-point
    order, and those strings in that order."""
    index, codes = dict_codes(values.tolist())
    ordered = sorted(index)
    rank = np.empty(len(ordered), dtype=np.int64)
    rank[[index[s] for s in ordered]] = np.arange(len(ordered))
    return rank[codes], ordered


def _aggregate_vectorized(node: rel.Aggregate, child: VectorBatch,
                          group_keys: tuple[int, ...],
                          sizes_out: Optional[dict] = None
                          ) -> list[tuple]:
    """Grouped aggregation as batch-level numpy ops; groups come out in
    first-occurrence order and NULL arguments are ignored.

    DOUBLE sums are ``np.bincount`` with weights, which accumulates in
    row order — bit-identical to a sequential loop; integer sums
    accumulate exactly in int64.  A DISTINCT call runs the same arms
    over the first row of each distinct (group, value) pair, so its
    DOUBLE sums add in first-occurrence order.  String MIN/MAX reduce
    the strings' code-point ranks.  ``sizes_out`` receives rows per
    group key, in group order.
    """
    for call in node.agg_calls:
        if call.func not in _AGG_FUNCS:
            raise ExecutionError(f"unknown aggregate {call.func}")
        if call.distinct and call.func in ("stddev", "variance"):
            raise ExecutionError(f"unsupported DISTINCT {call.func}")
    codes, g, reps = _factorize_keys(child, group_keys)
    if group_keys and g == 0:
        return []
    key_columns = [child.vectors[k] for k in group_keys]
    keys = [_key_tuple(key_columns, int(r)) for r in reps]
    group_sizes = np.bincount(codes, minlength=g).tolist()
    if sizes_out is not None and group_keys:
        sizes_out.update(zip(keys, group_sizes))

    columns: list[list] = []    # finals per group, one list per call
    for call in node.agg_calls:
        if call.arg is None:     # count(*)
            columns.append(group_sizes)
            continue
        column = child.vectors[call.arg]
        valid = ~column.nulls
        valid_codes, values = codes[valid], column.data[valid]
        if call.distinct:
            first = _first_of_each(valid_codes, g, values)
            valid_codes, values = valid_codes[first], values[first]
        counts = np.bincount(valid_codes, minlength=g).tolist()
        if call.func == "count":
            columns.append(counts)
            continue
        if call.func in ("sum", "avg"):
            if values.dtype.kind in "iub":
                totals = np.zeros(g, dtype=np.int64)
                np.add.at(totals, valid_codes, values.astype(np.int64))
            else:
                totals = np.bincount(
                    valid_codes, minlength=g,
                    weights=values.astype(np.float64, copy=False))
            totals = totals.tolist()
            if call.func == "avg":
                finals = [t / (c or 1) for t, c in zip(totals, counts)]
            else:
                plain = int if call.dtype == BIGINT else float
                finals = [plain(t) for t in totals]
        elif call.func in ("min", "max"):
            strings = None
            if values.dtype == np.dtype(object):
                values, strings = _string_ranks(values)
            for_min = call.func == "min"
            out = np.full(g, _minmax_init(values.dtype, for_min),
                          dtype=values.dtype)
            (np.minimum if for_min else np.maximum).at(
                out, valid_codes, values)
            finals = out.tolist()
            if strings is not None:
                finals = [strings[r] if c else None
                          for r, c in zip(finals, counts)]
        else:                    # stddev / variance
            weights = values.astype(np.float64, copy=False)
            totals = np.bincount(valid_codes, weights=weights,
                                 minlength=g).tolist()
            sumsq = np.bincount(valid_codes, weights=weights * weights,
                                minlength=g).tolist()
            finals = []
            for total, sq, count in zip(totals, sumsq, counts):
                count = count or 1
                mean = total / count
                variance = max(0.0, sq / count - mean * mean)
                finals.append(variance if call.func == "variance"
                              else variance ** 0.5)
        # a group with no non-NULL argument is NULL, whatever the arm
        # computed for it
        columns.append([f if c else None
                        for f, c in zip(finals, counts)])
    return [keys[j] + tuple(col[j] for col in columns)
            for j in range(g)]


_AGG_FUNCS = frozenset({"count", "sum", "avg", "min", "max", "stddev",
                        "variance"})


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


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
    vectors: list[ColumnVector] = []
    for v in left.vectors:
        vectors.append(_take_padded(v, li))
    for v in right.vectors:
        vectors.append(_take_padded(v, ri))
    return VectorBatch(out_schema, vectors)


def _take_padded(vector: ColumnVector, indices: np.ndarray) -> ColumnVector:
    if len(vector.data) == 0:
        # an empty side has no row to take: all padding
        data = np.zeros(len(indices), dtype=vector.data.dtype) \
            if vector.data.dtype != np.dtype(object) else _empty_obj(
                len(indices))
        return ColumnVector(vector.dtype, data,
                            np.ones(len(indices), dtype=bool))
    safe = np.where(indices < 0, 0, indices)
    return ColumnVector(vector.dtype, vector.data[safe],
                        vector.nulls[safe] | (indices < 0))


def _empty_obj(n: int) -> np.ndarray:
    out = np.empty(n, dtype=object)
    out[:] = ""
    return out


# --------------------------------------------------------------------------- #
# set operations

def _exec_union(node: rel.Union, ctx: ExecutionContext) -> VectorBatch:
    batches = [execute(child, ctx) for child in node.rels]
    return VectorBatch.concat(node.schema, [
        b.with_schema(node.schema) for b in batches])


def _exec_setop(node: rel.SetOp, ctx: ExecutionContext) -> VectorBatch:
    left = execute(node.left, ctx)
    right = execute(node.right, ctx)
    right_rows = set(right.to_rows())
    left_rows = left.to_rows()
    if node.kind == "intersect":
        out, seen = [], set()
        for row in left_rows:
            if row in right_rows and (node.all or row not in seen):
                out.append(row)
                seen.add(row)
    elif node.kind == "except":
        out, seen = [], set()
        for row in left_rows:
            if row not in right_rows and (node.all or row not in seen):
                out.append(row)
                seen.add(row)
    else:
        raise ExecutionError(f"unknown set op {node.kind}")
    return VectorBatch.from_rows(node.schema, out)


# --------------------------------------------------------------------------- #
# window functions

def _exec_window(node: rel.Window, ctx: ExecutionContext) -> VectorBatch:
    child = execute(node.input, ctx)
    n = child.num_rows
    out_vectors = list(child.vectors)
    for call in node.calls:
        out_vectors.append(_window_column(call, child, n))
    return VectorBatch(node.schema, out_vectors)


def _partition_rows(child: VectorBatch,
                    partition_keys) -> list[list[int]]:
    """Row indices of each window partition (ascending within one).

    Factorized: combined key codes + one stable argsort + np.split.
    Partitions come out in first-occurrence order, which is immaterial
    — window results are written back per absolute row index.
    """
    n = child.num_rows
    if not partition_keys:
        return [list(range(n))]
    codes, g, _ = _factorize_keys(child, tuple(partition_keys))
    if g <= 1:
        return [list(range(n))] if n else []
    order = np.argsort(codes, kind="stable")
    cuts = np.flatnonzero(np.diff(codes[order])) + 1
    return [seg.tolist() for seg in np.split(order, cuts)]


def _window_column(call: rel.WindowCall, child: VectorBatch,
                   n: int) -> ColumnVector:
    partitions = _partition_rows(child, call.partition_keys)
    np_dtype = call.dtype.numpy_dtype
    data = (np.zeros(n, dtype=np_dtype) if np_dtype != np.dtype(object)
            else _empty_obj(n))
    nulls = np.zeros(n, dtype=bool)

    for rows in partitions:
        ordered = rows
        if call.order_keys:
            sub = child.take(np.asarray(rows, dtype=np.int64))
            order = sort_indices(sub, call.order_keys)
            ordered = [rows[j] for j in order]
        if call.func == "row_number":
            for rank, idx in enumerate(ordered, 1):
                data[idx] = rank
        elif call.func in ("rank", "dense_rank"):
            _rank_partition(call, child, ordered, data)
        else:
            _agg_partition(call, child, ordered, data, nulls)
    return ColumnVector(call.dtype, data, nulls)


def _rank_partition(call, child, ordered, data) -> None:
    def order_tuple(i: int):
        return tuple(
            (1,) if child.vectors[k.index].nulls[i]
            else (0, _plain(child.vectors[k.index].data[i]))
            for k in call.order_keys)

    prev = None
    rank = 0
    dense = 0
    for pos, idx in enumerate(ordered, 1):
        current = order_tuple(idx)
        if current != prev:
            rank = pos
            dense += 1
            prev = current
        data[idx] = rank if call.func == "rank" else dense


def _agg_partition(call, child, ordered, data, nulls) -> None:
    """Windowed aggregates: running when ORDER BY present, else whole."""
    column = None if call.arg is None else child.vectors[call.arg]
    if not call.order_keys:
        values = []
        if column is None:
            total_count = len(ordered)
        else:
            values = [_plain(column.data[i]) for i in ordered
                      if not column.nulls[i]]
            total_count = len(values)
        result, is_null = _window_agg_value(call.func, values, total_count)
        for idx in ordered:
            data[idx] = result if not is_null else data[idx]
            nulls[idx] = is_null
        return
    running: list = []
    count = 0
    for idx in ordered:
        if column is None:
            count += 1
        elif not column.nulls[idx]:
            running.append(_plain(column.data[idx]))
            count += 1
        result, is_null = _window_agg_value(call.func, running, count)
        if not is_null:
            data[idx] = result
        nulls[idx] = is_null


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
        return min(values), False
    if func == "max":
        return max(values), False
    raise ExecutionError(f"unsupported window aggregate {func}")


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
