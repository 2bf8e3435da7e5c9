"""Relational operator execution: joins, aggregates, sorts, set ops,

windows — directly against the interpreter with hand-built plans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rows import Column, Schema
from repro.common.types import BIGINT, BOOLEAN, DATE, DOUBLE, INT, STRING
from repro.common.vector import VectorBatch
from repro.errors import ExecutionError, OutOfMemoryError
from repro.exec.operators import ExecutionContext, execute
from repro.plan import relnodes as rel
from repro.plan import rexnodes as rex
from repro.plan.rexnodes import (AggregateCall, RexInputRef, RexLiteral,
                                 make_call)

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
    """scan→filter→project fusion and compiled-kernel execution must be
    invisible: same rows, same runtime stats, only faster."""

    def _plan(self):
        condition = make_call(">", RexInputRef(0, INT),
                              RexLiteral(1, INT))
        filt = rel.Filter(scan("l", LEFT), condition)
        exprs = (RexInputRef(1, STRING),
                 make_call("+", RexInputRef(0, INT),
                           RexLiteral(100, INT)))
        return rel.Project(filt, exprs, ("tag", "idplus"))

    def test_fused_matches_unfused(self):
        plan = self._plan()
        fused = execute(plan, make_ctx()).to_rows()
        ctx = make_ctx()
        ctx.fuse = False
        assert fused == execute(plan, ctx).to_rows()
        assert fused == [("b", 102), ("c", 103), ("b2", 102)]

    def test_fusion_records_bypassed_filter(self):
        plan = self._plan()
        ctx = make_ctx()
        execute(plan, ctx)
        # the Filter never ran as an operator, but reoptimization and
        # EXPLAIN ANALYZE still need its output cardinality
        assert ctx.runtime_stats[plan.input.digest] == 3

    def test_kernels_match_interpreter(self):
        from repro.exec.compile import KernelCache
        plan = self._plan()
        interpreted = execute(plan, make_ctx()).to_rows()
        ctx = make_ctx()
        ctx.kernels = KernelCache()
        assert execute(plan, ctx).to_rows() == interpreted
        assert ctx.kernels.compiled > 0

    def test_fusion_skipped_for_memoized_filter(self):
        plan = self._plan()
        ctx = make_ctx()
        ctx.memo_digests = frozenset({plan.input.digest})
        rows = execute(plan, ctx).to_rows()
        assert rows == [("b", 102), ("c", 103), ("b2", 102)]
        # shared-work reuse: the filter result must be in the memo
        assert plan.input.digest in ctx.memo


class TestVectorizedAggregationParity:
    """The factorized fast path must equal the row-wise fallback —
    including group order (first occurrence) and float accumulation."""

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
        # legacy dict-insertion order: 3, 1, 2, NULL — exactly
        assert rows == [(3, 4, 2, 1, 3), (1, 7, 2, 2, 5),
                        (2, 4, 1, 4, 4), (None, 6, 1, 6, 6)]

    def test_string_group_key_and_min_max_fallback(self):
        # grouping by a string key factorizes; a string min/max
        # aggregate forces the row-wise fallback — results must agree
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

    def test_fast_path_bit_matches_rowwise(self):
        import numpy as np
        from repro.exec import operators as ops
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
        slow = ops._aggregate_rowwise(node, batch, (0,), None)
        assert fast is not None
        assert fast == slow                    # bit-equal floats

    def test_global_aggregate_bit_matches_rowwise(self):
        import numpy as np
        from repro.exec import operators as ops
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
        slow = ops._aggregate_rowwise(node, batch, (), None)
        assert fast is not None
        assert fast == slow

    def test_distinct_falls_back(self):
        from repro.exec import operators as ops
        schema = Schema([Column("g", INT), Column("v", INT)])
        batch = VectorBatch.from_rows(schema, [(1, 2), (1, 2), (2, 3)])
        node = rel.Aggregate(
            rel.TableScan("t", schema), (0,),
            (AggregateCall("count", 1, BIGINT, "c", distinct=True),),
            ("g",))
        assert ops._aggregate_vectorized(node, batch, (0,), None) is None


# --------------------------------------------------------------------------- #
# the hash join against the row loop it replaced

def _candidate_pairs_rowloop(left, right, pairs):
    """The former ``operators._candidate_pairs``: a Python dict built and
    probed row by row.  Kept as the oracle for pair order, key equality
    and the per-key histogram."""
    import numpy as np
    from repro.exec.operators import _plain
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
        from repro.exec.operators import _candidate_pairs
        types, left, right = inputs
        pairs = [(i, i) for i in range(len(types))]
        li, ri, counts = _candidate_pairs(left, right, pairs)
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
        from repro.exec import operators as ops
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
        assert repr(ctx.key_counts) == repr(want_ctx.key_counts)

    def test_no_histogram_beyond_the_key_limit(self):
        from repro.exec import operators as ops
        n = ops.KEY_HISTOGRAM_MAX_KEYS + 1
        schema = Schema([Column("k", INT)])
        batch = VectorBatch.from_rows(schema, [(i,) for i in range(n)])
        li, ri, counts = ops._candidate_pairs(batch, batch, [(0, 0)])
        assert li.tolist() == ri.tolist() == list(range(n))
        assert counts is None

    def test_radix_overflow_is_redensified(self):
        import numpy as np
        from repro.exec import operators as ops
        codes = np.array([0, 1, 2, 1], dtype=np.int64)
        wide = [(codes * (2**40 - 1) // 2, 2**40)] * 3
        combined = ops._combine_codes(wide)
        assert combined[1] == combined[3]
        assert len(set(combined.tolist())) == 3
