"""Relational operator execution: joins, aggregates, sorts, set ops,

windows — directly against the interpreter with hand-built plans.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rows import Column, Schema
from repro.common.types import BIGINT, BOOLEAN, DATE, DOUBLE, INT, STRING
from repro.common.vector import VectorBatch
from repro.errors import ExecutionError, OutOfMemoryError
from repro.exec import operators as ops
from repro.exec.operators import ExecutionContext, execute
from repro.plan import relnodes as rel
from repro.plan import rexnodes as rex
from repro.plan.rexnodes import (AggregateCall, RexInputRef, RexLiteral,
                                 make_call)

from . import expr_oracle

LEFT = Schema([Column("id", INT), Column("tag", STRING)])
RIGHT = Schema([Column("rid", INT), Column("val", DOUBLE)])

LEFT_ROWS = [(1, "a"), (2, "b"), (3, "c"), (None, "n"), (2, "b2")]
RIGHT_ROWS = [(2, 20.0), (3, 30.0), (3, 33.0), (None, 0.0), (9, 90.0)]


def make_ctx():
    data = {"l": VectorBatch.from_rows(LEFT, LEFT_ROWS),
            "r": VectorBatch.from_rows(RIGHT, RIGHT_ROWS)}
    return ExecutionContext(scan_executor=lambda n: data[n.table_name])


def scan(name, schema):
    return rel.TableScan(name, schema)


def join(kind, condition=None):
    if condition is None:
        condition = make_call("=", RexInputRef(0, INT),
                              RexInputRef(2, INT))
    return rel.Join(scan("l", LEFT), scan("r", RIGHT), kind, condition)


class TestJoins:
    def test_inner(self):
        rows = execute(join("inner"), make_ctx()).to_rows()
        assert sorted(rows) == [(2, "b", 2, 20.0), (2, "b2", 2, 20.0),
                                (3, "c", 3, 30.0), (3, "c", 3, 33.0)]

    def test_null_keys_never_match(self):
        rows = execute(join("inner"), make_ctx()).to_rows()
        assert not any(r[0] is None for r in rows)

    def test_left_outer(self):
        rows = execute(join("left"), make_ctx()).to_rows()
        unmatched = [r for r in rows if r[2] is None]
        assert sorted(r[0] is None or r[0] for r in unmatched) == [
            1, True]  # id=1 and the NULL-key row pad with NULLs

    def test_right_outer(self):
        rows = execute(join("right"), make_ctx()).to_rows()
        unmatched = [r for r in rows if r[0] is None]
        assert len(unmatched) == 2   # rid NULL and rid 9

    def test_full_outer(self):
        rows = execute(join("full"), make_ctx()).to_rows()
        assert len(rows) == 4 + 2 + 2

    def test_outer_join_pads_an_empty_side(self):
        data = {"l": VectorBatch.from_rows(LEFT, LEFT_ROWS),
                "r": VectorBatch.from_rows(RIGHT, [])}
        ctx = ExecutionContext(scan_executor=lambda n: data[n.table_name])
        rows = execute(join("left"), ctx).to_rows()
        assert rows == [row + (None, None) for row in LEFT_ROWS]

    def test_semi_and_anti(self):
        semi = execute(join("semi"), make_ctx()).to_rows()
        assert sorted(semi) == [(2, "b"), (2, "b2"), (3, "c")]
        anti = execute(join("anti"), make_ctx()).to_rows()
        assert sorted(anti, key=repr) == sorted(
            [(1, "a"), (None, "n")], key=repr)

    def test_cross_join(self):
        node = rel.Join(scan("l", LEFT), scan("r", RIGHT), "inner", None)
        rows = execute(node, make_ctx()).to_rows()
        assert len(rows) == len(LEFT_ROWS) * len(RIGHT_ROWS)

    def test_non_equi_residual(self):
        condition = make_call(
            "AND",
            make_call("=", RexInputRef(0, INT), RexInputRef(2, INT)),
            make_call(">", RexInputRef(3, DOUBLE),
                      RexLiteral(25.0, DOUBLE)))
        rows = execute(rel.Join(scan("l", LEFT), scan("r", RIGHT),
                                "inner", condition), make_ctx()).to_rows()
        assert sorted(rows) == [(3, "c", 3, 30.0), (3, "c", 3, 33.0)]

    def test_pure_theta_join(self):
        condition = make_call("<", RexInputRef(0, INT),
                              RexInputRef(2, INT))
        rows = execute(rel.Join(scan("l", LEFT), scan("r", RIGHT),
                                "inner", condition), make_ctx()).to_rows()
        assert all(r[0] < r[2] for r in rows)

    def test_oom_trigger(self):
        ctx = make_ctx()
        ctx.hash_join_memory_rows = 2
        with pytest.raises(OutOfMemoryError):
            execute(join("inner"), ctx)


class TestAggregates:
    def agg(self, calls, keys=()):
        return rel.Aggregate(scan("r", RIGHT), keys, tuple(calls))

    def test_global_aggregate(self):
        node = self.agg([AggregateCall("count", None, BIGINT, "n"),
                         AggregateCall("sum", 1, DOUBLE, "s"),
                         AggregateCall("min", 1, DOUBLE, "lo"),
                         AggregateCall("max", 1, DOUBLE, "hi"),
                         AggregateCall("avg", 1, DOUBLE, "av")])
        rows = execute(node, make_ctx()).to_rows()
        assert rows == [(5, 173.0, 0.0, 90.0, 173.0 / 5)]

    def test_count_skips_nulls_count_star_does_not(self):
        node = self.agg([AggregateCall("count", 0, BIGINT, "c"),
                         AggregateCall("count", None, BIGINT, "n")])
        assert execute(node, make_ctx()).to_rows() == [(4, 5)]

    def test_group_by_with_null_group(self):
        node = self.agg([AggregateCall("count", None, BIGINT, "n")],
                        keys=(0,))
        rows = dict(execute(node, make_ctx()).to_rows())
        assert rows[3] == 2 and rows[None] == 1

    def test_empty_input_global(self):
        empty = Schema([Column("x", INT)])
        ctx = ExecutionContext(
            scan_executor=lambda n: VectorBatch.empty(empty))
        node = rel.Aggregate(scan("e", empty), (),
                             (AggregateCall("count", None, BIGINT, "n"),
                              AggregateCall("sum", 0, BIGINT, "s")))
        assert execute(node, ctx).to_rows() == [(0, None)]

    def test_count_distinct(self):
        node = self.agg([AggregateCall("count", 0, BIGINT, "d",
                                       distinct=True)])
        assert execute(node, make_ctx()).to_rows() == [(3,)]

    def test_stddev(self):
        node = self.agg([AggregateCall("stddev", 1, DOUBLE, "sd")])
        (row,) = execute(node, make_ctx()).to_rows()
        assert row[0] == pytest.approx(30.016, abs=0.01)


class TestSortLimit:
    def test_sort_desc_nulls_last(self):
        node = rel.Sort(scan("l", LEFT), (rel.SortKey(0, False),))
        rows = execute(node, make_ctx()).to_rows()
        assert [r[0] for r in rows] == [3, 2, 2, 1, None]

    def test_multi_key(self):
        node = rel.Sort(scan("r", RIGHT),
                        (rel.SortKey(0, True), rel.SortKey(1, False)))
        rows = execute(node, make_ctx()).to_rows()
        assert [r[1] for r in rows if r[0] == 3] == [33.0, 30.0]

    def test_topn(self):
        node = rel.Sort(scan("r", RIGHT), (rel.SortKey(1, False),),
                        fetch=2)
        rows = execute(node, make_ctx()).to_rows()
        assert [r[1] for r in rows] == [90.0, 33.0]

    def test_limit(self):
        node = rel.Limit(scan("l", LEFT), 3)
        assert execute(node, make_ctx()).num_rows == 3

    def test_sort_stability(self):
        node = rel.Sort(scan("l", LEFT), (rel.SortKey(0, True),))
        rows = execute(node, make_ctx()).to_rows()
        twos = [r[1] for r in rows if r[0] == 2]
        assert twos == ["b", "b2"]     # input order preserved on ties


class TestSetOps:
    def both(self, kind, all=False):
        left = rel.Project(scan("l", LEFT),
                           (RexInputRef(0, INT),), ("id",))
        right = rel.Project(scan("r", RIGHT),
                            (RexInputRef(0, INT),), ("id",))
        return rel.SetOp(kind, left, right, all)

    def test_intersect(self):
        rows = execute(self.both("intersect"), make_ctx()).to_rows()
        assert {r[0] for r in rows} == {2, 3, None}
        assert len(rows) == 3      # set semantics: duplicates collapse

    def test_except(self):
        rows = execute(self.both("except"), make_ctx()).to_rows()
        assert [r[0] for r in rows] == [1]

    def test_union_all(self):
        left = rel.Project(scan("l", LEFT), (RexInputRef(0, INT),),
                           ("id",))
        right = rel.Project(scan("r", RIGHT), (RexInputRef(0, INT),),
                            ("id",))
        node = rel.Union((left, right), all=True)
        assert execute(node, make_ctx()).num_rows == 10


class TestWindow:
    def test_rank_and_row_number(self):
        calls = (
            rel.WindowCall("rank", None, (), (rel.SortKey(1, False),),
                           BIGINT, "rnk"),
            rel.WindowCall("row_number", None, (),
                           (rel.SortKey(1, False),), BIGINT, "rn"),
        )
        node = rel.Window(scan("r", RIGHT), calls)
        rows = execute(node, make_ctx()).to_rows()
        by_val = {r[1]: (r[2], r[3]) for r in rows}
        assert by_val[90.0] == (1, 1)
        assert by_val[33.0] == (2, 2)
        assert by_val[30.0] == (3, 3)

    def test_partitioned_running_sum(self):
        calls = (rel.WindowCall("sum", 1, (0,), (rel.SortKey(1, True),),
                                DOUBLE, "rs"),)
        node = rel.Window(scan("r", RIGHT), calls)
        rows = execute(node, make_ctx()).to_rows()
        threes = sorted((r[1], r[2]) for r in rows if r[0] == 3)
        assert threes == [(30.0, 30.0), (33.0, 63.0)]

    def test_whole_partition_agg_without_order(self):
        calls = (rel.WindowCall("max", 1, (), (), DOUBLE, "m"),)
        node = rel.Window(scan("r", RIGHT), calls)
        rows = execute(node, make_ctx()).to_rows()
        assert all(r[2] == 90.0 for r in rows)


class TestMemoization:
    def test_shared_digest_executes_once(self):
        calls = {"count": 0}
        batch = VectorBatch.from_rows(LEFT, LEFT_ROWS)

        def counting_scan(node):
            calls["count"] += 1
            return batch

        left = scan("l", LEFT)
        right = scan("l", LEFT)
        node = rel.Union((left, right), all=True)
        ctx = ExecutionContext(scan_executor=counting_scan,
                               memo_digests=frozenset({left.digest}))
        result = execute(node, ctx)
        assert result.num_rows == 10
        assert calls["count"] == 1


class TestFusionAndKernels:
    """A Filter under a Project is an ordinary operator (the class is
    named for the fused path it once compared against), and every
    expression runs on lowered kernels."""

    def _plan(self):
        condition = make_call(">", RexInputRef(0, INT),
                              RexLiteral(1, INT))
        filt = rel.Filter(scan("l", LEFT), condition)
        exprs = (RexInputRef(1, STRING),
                 make_call("+", RexInputRef(0, INT),
                           RexLiteral(100, INT)))
        return rel.Project(filt, exprs, ("tag", "idplus"))

    def test_fusion_records_bypassed_filter(self):
        plan = self._plan()
        ctx = make_ctx()
        assert execute(plan, ctx).to_rows() == [
            ("b", 102), ("c", 103), ("b2", 102)]
        # reoptimization and EXPLAIN ANALYZE need the Filter's output
        # cardinality, which reaches them by the normal route
        assert ctx.runs[plan.input.digest].rows_out == 3

    def test_kernels_match_interpreter(self):
        plan = self._plan()
        ctx = make_ctx()
        rows = execute(plan, ctx).to_rows()
        # the same plan by hand through the interpreter under tests/
        source = VectorBatch.from_rows(LEFT, LEFT_ROWS)
        kept = source.filter(expr_oracle.evaluate_predicate(
            plan.input.condition, source))
        want = VectorBatch(plan.schema, [expr_oracle.evaluate(e, kept)
                                         for e in plan.exprs])
        assert rows == want.to_rows()
        # a context built without a cache still lowers, into its own
        assert ctx.kernels.compiled > 0

    def test_fusion_skipped_for_memoized_filter(self):
        plan = self._plan()
        ctx = make_ctx()
        ctx.memo_digests = frozenset({plan.input.digest})
        rows = execute(plan, ctx).to_rows()
        assert rows == [("b", 102), ("c", 103), ("b2", 102)]
        # shared-work reuse: the filter result must be in the memo
        assert ctx.runs[plan.input.digest].batch is not None


# --------------------------------------------------------------------------- #
# GROUP BY against the row loop it replaced

def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


def _aggregate_rowwise(node, child, group_keys, sizes_out=None):
    """The former ``operators._aggregate_rowwise``: one dict of
    per-group states updated row by row.  Kept as the oracle for rows,
    group order and ``sizes_out``.  One change from when it ran in
    ``src/``: SUM/AVG start from integer 0, so integer arguments add
    exactly (the float 0.0 it used to start from was the bug)."""
    key_columns = [child.vectors[k] for k in group_keys]
    n = child.num_rows
    groups = {}
    order = []
    arg_columns = [None if call.arg is None else child.vectors[call.arg]
                   for call in node.agg_calls]

    def new_states():
        return [_new_state(call) for call in node.agg_calls]

    if not group_keys:
        states = new_states()
        groups[()] = states
        order.append(())
        for i in range(n):
            _update_states(node.agg_calls, states, arg_columns, i)
    else:
        for i in range(n):
            key = tuple(
                None if kc.nulls[i] else _plain(kc.data[i])
                for kc in key_columns)
            states = groups.get(key)
            if states is None:
                states = new_states()
                groups[key] = states
                order.append(key)
            if sizes_out is not None:
                sizes_out[key] = sizes_out.get(key, 0) + 1
            _update_states(node.agg_calls, states, arg_columns, i)

    rows = []
    for key in order:
        states = groups[key]
        finals = tuple(_finalize_state(call, state)
                       for call, state in zip(node.agg_calls, states))
        rows.append(key + finals)
    return rows


def _new_state(call):
    if call.distinct:
        return set()
    if call.func == "count":
        return 0
    if call.func in ("sum", "avg"):
        return [0, 0]            # sum, count
    if call.func in ("min", "max"):
        return [None]
    if call.func in ("stddev", "variance"):
        return [0.0, 0.0, 0]     # sum, sumsq, count
    raise ExecutionError(f"unknown aggregate {call.func}")


def _update_states(calls, states, arg_columns, i):
    for slot, (call, state, column) in enumerate(
            zip(calls, states, arg_columns)):
        if column is None:       # count(*)
            if call.distinct:
                state.add(i)
            else:
                states[slot] += 1
            continue
        if column.nulls[i]:
            continue
        value = _plain(column.data[i])
        if call.distinct:
            state.add(value)
        elif call.func == "count":
            states[slot] += 1
        elif call.func in ("sum", "avg"):
            state[0] += value
            state[1] += 1
        elif call.func == "min":
            if state[0] is None or value < state[0]:
                state[0] = value
        elif call.func == "max":
            if state[0] is None or value > state[0]:
                state[0] = value
        elif call.func in ("stddev", "variance"):
            state[0] += value
            state[1] += value * value
            state[2] += 1


def _finalize_state(call, state):
    if call.distinct:
        if call.func == "count":
            return len(state)
        if not state:
            return None
        if call.func == "sum":
            return sum(state)
        if call.func == "avg":
            return sum(state) / len(state)
        if call.func == "min":
            return min(state)
        if call.func == "max":
            return max(state)
        raise ExecutionError(f"unsupported DISTINCT {call.func}")
    if call.func == "count":
        return state
    if call.func == "sum":
        if state[1] == 0:
            return None
        total = state[0]
        return int(total) if call.dtype == BIGINT else total
    if call.func == "avg":
        return None if state[1] == 0 else state[0] / state[1]
    if call.func in ("min", "max"):
        return state[0]
    if call.func in ("stddev", "variance"):
        if state[2] == 0:
            return None
        mean = state[0] / state[2]
        variance = max(0.0, state[1] / state[2] - mean * mean)
        return variance if call.func == "variance" else variance ** 0.5
    raise ExecutionError(call.func)


#: argument columns by ordinal (after the two key columns) and what may
#: be computed over each; BIGINT carries integers float64 cannot hold,
#: whose squares it cannot either, so no stddev/variance there
_ARG_POOLS = [
    (INT, [None, 0, 1, -1, 2, 7, 100]),
    (BIGINT, [None, 0, 1, -3, 2**53, 2**53 + 1, -(2**53) - 1]),
    (DOUBLE, [None, 0.0, -0.0, 1.5, -2.25, 0.1, 0.2, 0.3, 1e6, 1e-3]),
    (STRING, [None, "", "a", "b", "ab", "B", "\u00e9", "z"]),
]
_ARG_FUNCS = {
    INT: ["count", "sum", "avg", "min", "max", "stddev", "variance"],
    BIGINT: ["count", "sum", "avg", "min", "max"],
    DOUBLE: ["count", "sum", "avg", "min", "max", "stddev", "variance"],
    STRING: ["count", "min", "max"],
}
_GROUP_POOLS = [(INT, [None, 0, 1, 2, 3]), (STRING, [None, "", "a", "b"])]
_AGG_SCHEMA = Schema(
    [Column(f"k{i}", dtype) for i, (dtype, _) in enumerate(_GROUP_POOLS)]
    + [Column(f"v{i}", dtype) for i, (dtype, _) in enumerate(_ARG_POOLS)])
#: SUM/AVG(DISTINCT double) add in first-occurrence order, the row loop
#: in set order: they may differ by the rounding of <= 300 additions of
#: values up to 1e6
_DISTINCT_SUM_TOL = 300 * np.finfo(np.float64).eps * 1e6


@st.composite
def _agg_inputs(draw):
    """``(batch, group_keys, calls)``: 0-300 rows, NULL-heavy or
    all-NULL columns included, 0-2 keys, 1-4 aggregate calls."""
    columns = []
    for _, pool in _GROUP_POOLS + _ARG_POOLS:
        values = st.sampled_from(pool)
        columns.append(draw(st.sampled_from(
            [values, st.one_of(st.none(), st.none(), values),
             st.none()])))
    rows = draw(st.lists(st.tuples(*columns), max_size=300))
    group_keys = tuple(draw(st.lists(
        st.integers(0, len(_GROUP_POOLS) - 1), max_size=2, unique=True)))
    calls = []
    for n in range(draw(st.integers(1, 4))):
        ordinal = draw(st.integers(0, len(_ARG_POOLS) - 1))
        arg_type = _ARG_POOLS[ordinal][0]
        func = draw(st.sampled_from(_ARG_FUNCS[arg_type]))
        distinct = func not in ("stddev", "variance") and draw(
            st.booleans())
        arg = len(_GROUP_POOLS) + ordinal
        if func == "count":
            dtype = BIGINT
            arg = draw(st.sampled_from([arg, None]))
        elif func in ("min", "max"):
            dtype = arg_type
        elif func == "sum" and arg_type != DOUBLE:
            dtype = BIGINT
        else:
            dtype = DOUBLE
        calls.append(AggregateCall(func, arg, dtype, f"a{n}", distinct))
    return VectorBatch.from_rows(_AGG_SCHEMA, rows), group_keys, calls


def _assert_same_groups(calls, key_count, rows, want):
    assert len(rows) == len(want)
    for row, want_row in zip(rows, want):
        assert row[:key_count] == want_row[:key_count]
        for call, got, expected in zip(calls, row[key_count:],
                                       want_row[key_count:]):
            assert type(got) is type(expected), (call.digest, row, want_row)
            if (call.distinct and call.func in ("sum", "avg")
                    and isinstance(got, float)):
                assert math.isclose(got, expected, rel_tol=0.0,
                                    abs_tol=_DISTINCT_SUM_TOL)
            else:
                # == compares -0.0 and 0.0 by value
                assert got == expected, (call.digest, row, want_row)


class TestVectorizedAggregationParity:
    """``_aggregate_vectorized`` must equal the row loop it replaced —
    rows, group order (first occurrence), float accumulation and the
    per-key sizes the skew model consumes."""

    @given(_agg_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_loop(self, inputs):
        batch, group_keys, calls = inputs
        node = rel.Aggregate(scan("t", _AGG_SCHEMA), group_keys,
                             tuple(calls))
        sizes, want_sizes = {}, {}
        rows = ops._aggregate_vectorized(node, batch, group_keys, sizes)
        want = _aggregate_rowwise(node, batch, group_keys, want_sizes)
        _assert_same_groups(calls, len(group_keys), rows, want)
        assert list(sizes.items()) == list(want_sizes.items())

    @given(_agg_inputs(), st.lists(st.lists(
        st.integers(0, 1), max_size=2, unique=True), min_size=1,
        max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_grouping_sets_match_the_row_loop(self, inputs, sets):
        batch, _, calls = inputs
        node = rel.Aggregate(
            scan("t", _AGG_SCHEMA), (0, 1), tuple(calls),
            grouping_sets=tuple(tuple(sorted(s)) for s in sets))
        ctx = ExecutionContext(scan_executor=lambda n: batch)
        rows = execute(node, ctx).to_rows()
        fast = ops._aggregate_vectorized
        ops._aggregate_vectorized = _aggregate_rowwise
        try:
            want = execute(node, ExecutionContext(
                scan_executor=lambda n: batch)).to_rows()
        finally:
            ops._aggregate_vectorized = fast
        # the trailing grouping_id rides along as one more exact column
        _assert_same_groups(
            calls + [AggregateCall("count", None, BIGINT, "grouping_id")],
            2, rows, want)

    def test_empty_input_with_and_without_keys(self):
        empty = VectorBatch.from_rows(_AGG_SCHEMA, [])
        calls = (AggregateCall("count", None, BIGINT, "n"),
                 AggregateCall("count", 2, BIGINT, "c", distinct=True),
                 AggregateCall("sum", 3, BIGINT, "s"),
                 AggregateCall("avg", 4, DOUBLE, "a", distinct=True),
                 AggregateCall("min", 5, STRING, "lo"),
                 AggregateCall("stddev", 4, DOUBLE, "sd"))
        node = rel.Aggregate(scan("t", _AGG_SCHEMA), (), calls)
        assert ops._aggregate_vectorized(node, empty, ()) == [
            (0, 0, None, None, None, None)]
        assert ops._aggregate_vectorized(node, empty, (0,)) == []

    def test_group_order_is_first_occurrence(self):
        schema = Schema([Column("g", INT), Column("v", INT)])
        data = [(3, 1), (1, 2), (3, 3), (2, 4), (1, 5), (None, 6)]
        batch = VectorBatch.from_rows(schema, data)
        ctx = ExecutionContext(scan_executor=lambda n: batch)
        plan = rel.Aggregate(
            rel.TableScan("t", schema), (0,),
            (AggregateCall("sum", 1, BIGINT, "s"),
             AggregateCall("count", 1, BIGINT, "c"),
             AggregateCall("min", 1, INT, "lo"),
             AggregateCall("max", 1, INT, "hi")),
            ("g",))
        rows = execute(plan, ctx).to_rows()
        # dict-insertion order of the row loop: 3, 1, 2, NULL — exactly
        assert rows == [(3, 4, 2, 1, 3), (1, 7, 2, 2, 5),
                        (2, 4, 1, 4, 4), (None, 6, 1, 6, 6)]

    def test_string_group_key_and_min_max_fallback(self):
        # grouping by a string key and a string min/max aggregate (by
        # code-point rank; it once forced the row-wise fallback)
        schema = Schema([Column("g", STRING), Column("v", INT)])
        data = [("b", 1), ("a", 2), ("b", 3), (None, 4), ("a", 5)]
        batch = VectorBatch.from_rows(schema, data)
        plan_sum = rel.Aggregate(
            rel.TableScan("t", schema), (0,),
            (AggregateCall("sum", 1, BIGINT, "s"),), ("g",))
        plan_min = rel.Aggregate(
            rel.TableScan("t", schema), (1,),
            (AggregateCall("min", 0, STRING, "lo"),), ("v",))
        ctx = ExecutionContext(scan_executor=lambda n: batch)
        assert execute(plan_sum, ctx).to_rows() == [
            ("b", 4), ("a", 7), (None, 4)]
        ctx2 = ExecutionContext(scan_executor=lambda n: batch)
        assert execute(plan_min, ctx2).to_rows() == [
            (1, "b"), (2, "a"), (3, "b"), (4, None), (5, "a")]

    def test_string_min_max_is_code_point_order(self):
        schema = Schema([Column("s", STRING)])
        batch = VectorBatch.from_rows(
            schema, [("b",), ("B",), (None,), ("\u00e9",), ("ab",), ("",)])
        node = rel.Aggregate(
            rel.TableScan("t", schema), (),
            (AggregateCall("min", 0, STRING, "lo"),
             AggregateCall("max", 0, STRING, "hi")))
        assert ops._aggregate_vectorized(node, batch, ()) == [
            ("", "\u00e9")]

    def test_fast_path_bit_matches_rowwise(self):
        rng = np.random.default_rng(3)
        n = 500
        schema = Schema([Column("g", INT), Column("v", DOUBLE)])
        data = [(int(rng.integers(0, 7)), float(rng.normal(0, 10)))
                for _ in range(n)]
        batch = VectorBatch.from_rows(schema, data)
        node = rel.Aggregate(
            rel.TableScan("t", schema), (0,),
            (AggregateCall("sum", 1, DOUBLE, "s"),
             AggregateCall("avg", 1, DOUBLE, "a"),
             AggregateCall("stddev", 1, DOUBLE, "sd"),
             AggregateCall("min", 1, DOUBLE, "lo"),
             AggregateCall("max", 1, DOUBLE, "hi")),
            ("g",))
        fast = ops._aggregate_vectorized(node, batch, (0,), None)
        slow = _aggregate_rowwise(node, batch, (0,), None)
        assert fast == slow                    # bit-equal floats

    def test_global_aggregate_bit_matches_rowwise(self):
        rng = np.random.default_rng(4)
        schema = Schema([Column("v", DOUBLE)])
        data = [(float(rng.normal(0, 1)),) for _ in range(257)]
        batch = VectorBatch.from_rows(schema, data)
        node = rel.Aggregate(
            rel.TableScan("t", schema), (),
            (AggregateCall("sum", 0, DOUBLE, "s"),
             AggregateCall("count", None, BIGINT, "c"),
             AggregateCall("variance", 0, DOUBLE, "var")), ())
        fast = ops._aggregate_vectorized(node, batch, (), None)
        slow = _aggregate_rowwise(node, batch, (), None)
        assert fast == slow

    def test_distinct_double_sum_adds_in_first_occurrence_order(self):
        # (1e16 + 1.0) - 1e16 is 0.0; any other order of the three
        # distinct values gives 1.0 or 2.0
        schema = Schema([Column("v", DOUBLE)])
        batch = VectorBatch.from_rows(
            schema, [(1e16,), (1.0,), (1e16,), (-1e16,), (1.0,)])
        node = rel.Aggregate(
            rel.TableScan("t", schema), (),
            (AggregateCall("sum", 0, DOUBLE, "s", distinct=True),
             AggregateCall("avg", 0, DOUBLE, "a", distinct=True)))
        assert ops._aggregate_vectorized(node, batch, ()) == [(0.0, 0.0)]

    def test_distinct_treats_nan_and_signed_zero_as_group_by_does(self):
        nan = float("nan")
        schema = Schema([Column("g", INT), Column("v", DOUBLE)])
        batch = VectorBatch.from_rows(
            schema, [(1, nan), (1, nan), (1, 1.0), (2, -0.0), (2, 0.0),
                     (2, None)])
        node = rel.Aggregate(
            rel.TableScan("t", schema), (0,),
            (AggregateCall("count", 1, BIGINT, "c", distinct=True),))
        assert ops._aggregate_vectorized(node, batch, (0,)) == [
            (1, 2), (2, 1)]
        # the same column as a GROUP BY key sees the same values
        by_value = rel.Aggregate(rel.TableScan("t", schema), (1,), ())
        assert len(ops._aggregate_vectorized(by_value, batch, (1,))) == 4

    def test_distinct_stddev_is_refused(self):
        schema = Schema([Column("v", DOUBLE)])
        batch = VectorBatch.from_rows(schema, [(1.0,), (2.0,)])
        for func in ("stddev", "variance"):
            node = rel.Aggregate(
                rel.TableScan("t", schema), (),
                (AggregateCall(func, 0, DOUBLE, "x", distinct=True),))
            with pytest.raises(ExecutionError,
                               match=f"unsupported DISTINCT {func}"):
                ops._aggregate_vectorized(node, batch, ())
            with pytest.raises(ExecutionError,
                               match=f"unsupported DISTINCT {func}"):
                _aggregate_rowwise(node, batch, ())

    def test_unknown_aggregate_is_refused(self):
        schema = Schema([Column("v", DOUBLE)])
        batch = VectorBatch.from_rows(schema, [(1.0,)])
        node = rel.Aggregate(
            rel.TableScan("t", schema), (),
            (AggregateCall("median", 0, DOUBLE, "m"),))
        with pytest.raises(ExecutionError, match="unknown aggregate"):
            ops._aggregate_vectorized(node, batch, ())


# --------------------------------------------------------------------------- #
# the hash join against the row loop it replaced

def _candidate_pairs_rowloop(left, right, pairs):
    """The former ``operators._candidate_pairs``: a Python dict built and
    probed row by row.  Kept as the oracle for pair order, key equality
    and the per-key histogram."""
    build = {}
    right_keys = [right.vectors[r] for _, r in pairs]
    for i in range(right.num_rows):
        if any(kc.nulls[i] for kc in right_keys):
            continue
        key = tuple(_plain(kc.data[i]) for kc in right_keys)
        build.setdefault(key, []).append(i)
    left_keys = [left.vectors[l] for l, _ in pairs]
    li_out, ri_out, key_counts = [], [], {}
    for i in range(left.num_rows):
        if any(kc.nulls[i] for kc in left_keys):
            continue
        key = tuple(_plain(kc.data[i]) for kc in left_keys)
        matches = build.get(key)
        if matches:
            li_out.extend([i] * len(matches))
            ri_out.extend(matches)
            key_counts[key] = key_counts.get(key, 0) + len(matches)
    return (np.asarray(li_out, dtype=np.int64),
            np.asarray(ri_out, dtype=np.int64), key_counts)


_NAN = float("nan")
_KEY_POOLS = {
    INT: [None, 0, 1, 2, 3, -1, 2**53, 2**53 + 1],
    DOUBLE: [None, 0.0, -0.0, 1.0, 2.0, 1.5, _NAN, 2.0**53, float("inf")],
    STRING: [None, "", "a", "b", "ab"],
    BOOLEAN: [None, True, False],
    DATE: [None, 0, 1, 2],
}
#: (probe type, build type) per key column; INT/STRING yields no pairs
_KEY_TYPES = [(INT, INT), (INT, DOUBLE), (DOUBLE, INT), (DOUBLE, DOUBLE),
              (STRING, STRING), (BOOLEAN, INT), (DOUBLE, BOOLEAN),
              (DATE, INT), (INT, STRING)]


@st.composite
def _join_inputs(draw):
    types = draw(st.lists(st.sampled_from(_KEY_TYPES), min_size=1,
                          max_size=3))
    sides = []
    for side in (0, 1):
        columns = [Column(f"k{side}{i}", pair[side])
                   for i, pair in enumerate(types)]
        rows = draw(st.lists(
            st.tuples(*(st.sampled_from(_KEY_POOLS[c.dtype])
                        for c in columns)), max_size=12))
        schema = Schema(columns + [Column(f"row{side}", INT)])
        sides.append(VectorBatch.from_rows(
            schema, [row + (i,) for i, row in enumerate(rows)]))
    return types, sides[0], sides[1]


class TestHashJoinParity:
    @given(_join_inputs())
    @settings(max_examples=300, deadline=None)
    def test_pairs_and_histogram_match_the_row_loop(self, inputs):
        types, left, right = inputs
        pairs = [(i, i) for i in range(len(types))]
        li, ri, counts = ops._candidate_pairs(left, right, pairs)
        want_li, want_ri, want_counts = _candidate_pairs_rowloop(
            left, right, pairs)
        assert li.dtype == ri.dtype == want_li.dtype
        assert (li.tolist(), ri.tolist()) == (
            want_li.tolist(), want_ri.tolist())
        # same keys, same repr (-0.0 vs 0.0, 7 vs 7.0), same order
        assert repr(list(counts.items())) == repr(
            list(want_counts.items()))

    @given(_join_inputs(), st.sampled_from(
        ["inner", "left", "right", "full", "semi", "anti"]))
    @settings(max_examples=300, deadline=None)
    def test_every_join_kind_matches_the_row_loop(self, inputs, kind):
        types, left, right = inputs
        width = len(left.schema)
        condition = rex.make_and([
            make_call("=", RexInputRef(i, probe),
                      RexInputRef(width + i, build))
            for i, (probe, build) in enumerate(types)])
        node = rel.Join(scan("l", left.schema), scan("r", right.schema),
                        kind, condition)
        ctx = ExecutionContext(scan_executor=None)
        rows = ops.join_batches(node, left, right, ctx).to_rows()
        want_ctx = ExecutionContext(scan_executor=None)
        fast = ops._candidate_pairs
        ops._candidate_pairs = _candidate_pairs_rowloop
        try:
            want = ops.join_batches(node, left, right, want_ctx).to_rows()
        finally:
            ops._candidate_pairs = fast
        assert repr(rows) == repr(want)
        assert repr([r.key_counts for r in ctx.runs.values()]) == repr(
            [r.key_counts for r in want_ctx.runs.values()])

    def test_no_histogram_beyond_the_key_limit(self):
        n = ops.KEY_HISTOGRAM_MAX_KEYS + 1
        schema = Schema([Column("k", INT)])
        batch = VectorBatch.from_rows(schema, [(i,) for i in range(n)])
        li, ri, counts = ops._candidate_pairs(batch, batch, [(0, 0)])
        assert li.tolist() == ri.tolist() == list(range(n))
        assert counts is None

    def test_radix_overflow_is_redensified(self):
        codes = np.array([0, 1, 2, 1], dtype=np.int64)
        wide = [(codes * (2**40 - 1) // 2, 2**40)] * 3
        combined = ops._combine_codes(wide)
        assert combined[1] == combined[3]
        assert len(set(combined.tolist())) == 3
