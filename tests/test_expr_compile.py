"""Kernel parity: repro.exec.compile, the one expression engine in
src/, must be bit-identical to the tree-walking interpreter kept as
the oracle in tests/expr_oracle.py.

Every golden test here evaluates the same expression both ways over
randomized batches (all dtypes, varied NULL patterns, empty batches,
division by zero) and demands identical values, nulls and dtypes.
Three-valued-logic truth tables pin AND/OR/NOT/CASE/IF behaviour
explicitly, and the kernel cache's typed-digest keying, LRU eviction
and hit accounting are checked directly.
"""

import datetime
import math

import numpy as np
import pytest

from repro.common.rows import Column, Schema
from repro.common.types import (BIGINT, BOOLEAN, DATE, DOUBLE, INT,
                                STRING, TIMESTAMP)
from repro.common.vector import ColumnVector, VectorBatch
from repro.errors import ExecutionError
from repro.exec.compile import (EvalContext, KernelCache, compile_expr,
                                compile_predicate, typed_digest)
from repro.plan.rexnodes import RexCall, RexInputRef, RexLiteral, make_call

from . import expr_oracle
from .expr_oracle import evaluate, evaluate_predicate

CTX = EvalContext(now_s=1_700_000_123.456, query_id=7)


def oracle_ctx(ctx):
    """The same statement inputs in the oracle's own context type."""
    return expr_oracle.EvalContext(ctx.now_s, ctx.query_id,
                                   ctx.row_offset)


ORACLE_CTX = oracle_ctx(CTX)


def col(i, dtype):
    return RexInputRef(i, dtype)


def lit(value, dtype):
    return RexLiteral(value, dtype)


# --------------------------------------------------------------------------- #
# randomized batch generation

SCHEMA = Schema([
    Column("i", INT), Column("b", BIGINT), Column("f", DOUBLE),
    Column("s", STRING), Column("d", DATE), Column("flag", BOOLEAN),
    Column("ts", TIMESTAMP),
])

_WORDS = ["apple", "Banana", "  pear  ", "fig", "date%", "a_b", "",
          "kiwi", "GRAPE", "12", "-3", "x7", "nan"]


def random_batch(seed: int, n: int, null_rate: float = 0.25) -> VectorBatch:
    rng = np.random.default_rng(seed)

    def nulls():
        if null_rate >= 1.0:
            return np.ones(n, dtype=bool)
        if null_rate <= 0.0:
            return np.zeros(n, dtype=bool)
        return rng.random(n) < null_rate

    vectors = [
        ColumnVector(INT, rng.integers(-50, 50, n).astype(np.int32),
                     nulls()),
        ColumnVector(BIGINT, rng.integers(-10**6, 10**6, n), nulls()),
        ColumnVector(DOUBLE, np.round(rng.normal(0, 10, n), 3), nulls()),
        ColumnVector(STRING,
                     np.array([_WORDS[k] for k in
                               rng.integers(0, len(_WORDS), n)],
                              dtype=object), nulls()),
        ColumnVector(DATE, rng.integers(0, 20000, n).astype(np.int32),
                     nulls()),
        ColumnVector(BOOLEAN, rng.integers(0, 2, n).astype(bool),
                     nulls()),
        ColumnVector(TIMESTAMP, rng.integers(0, 1_700_000_000_000, n),
                     nulls()),
    ]
    return VectorBatch(SCHEMA, vectors)


def _same_value(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b or (math.isclose(a, b, rel_tol=0, abs_tol=0))
    return a == b and type(a) is type(b)


def assert_parity(expr, batch, ctx=CTX):
    expected = evaluate(expr, batch, oracle_ctx(ctx))
    actual = compile_expr(expr)(batch, ctx)
    assert actual.dtype == expected.dtype, expr.digest
    ev, av = expected.to_values(), actual.to_values()
    assert len(ev) == len(av), expr.digest
    for row, (e, a) in enumerate(zip(ev, av)):
        assert _same_value(e, a), (
            f"{expr.digest} row {row}: interpreted={e!r} compiled={a!r}")
    # predicates additionally agree on the NULL-is-false mask
    if expr.dtype is BOOLEAN:
        em = evaluate_predicate(expr, batch, oracle_ctx(ctx))
        am = compile_predicate(expr)(batch, ctx)
        assert em.tolist() == am.tolist(), expr.digest


# the golden corpus: every operator family the compiler lowers
def corpus():
    i, b, f = col(0, INT), col(1, BIGINT), col(2, DOUBLE)
    s, d, flag, ts = (col(3, STRING), col(4, DATE), col(5, BOOLEAN),
                      col(6, TIMESTAMP))
    return [
        # arithmetic, incl. div-by-zero → NULL and Java-sign modulo
        RexCall("+", (i, lit(7, INT)), INT),
        RexCall("-", (b, i), BIGINT),
        RexCall("*", (f, lit(-2.5, DOUBLE)), DOUBLE),
        RexCall("/", (i, lit(0, INT)), DOUBLE),
        RexCall("/", (f, i), DOUBLE),
        RexCall("%", (i, lit(3, INT)), INT),
        RexCall("MOD", (i, lit(-4, INT)), INT),
        RexCall("%", (b, lit(0, BIGINT)), BIGINT),
        RexCall("NEGATE", (f,), DOUBLE),
        # comparisons: same-type, mixed-width, strings
        make_call("=", i, lit(5, INT)),
        make_call("<>", s, lit("fig", STRING)),
        make_call("<", i, f),
        make_call(">=", b, lit(0, BIGINT)),
        make_call(">", s, lit("fig", STRING)),
        # logic
        make_call("AND", flag, make_call(">", i, lit(0, INT))),
        make_call("OR", flag, make_call("<", f, lit(0.0, DOUBLE))),
        make_call("NOT", flag),
        make_call("IS_NULL", s),
        make_call("IS_NOT_NULL", i),
        # IN / LIKE
        make_call("IN", i, lit(1, INT), lit(2, INT), lit(-3, INT)),
        make_call("IN", s, lit("fig", STRING), lit("kiwi", STRING)),
        make_call("LIKE", s, lit("%a%", STRING)),
        make_call("LIKE", s, lit("a_b", STRING)),
        # conditionals
        RexCall("CASE", (make_call(">", i, lit(0, INT)),
                         lit("pos", STRING),
                         make_call("<", i, lit(0, INT)),
                         lit("neg", STRING), lit("zero", STRING)),
                STRING),
        RexCall("IF", (flag, i, lit(-1, INT)), INT),
        RexCall("COALESCE", (s, lit("??", STRING)), STRING),
        RexCall("NULLIF", (i, lit(1, INT)), INT),
        # casts
        RexCall("CAST", (i,), STRING),
        RexCall("CAST", (s,), INT),
        RexCall("CAST", (f,), INT),
        RexCall("CAST", (i,), DOUBLE),
        RexCall("CAST", (b,), BIGINT),
        # temporal
        RexCall("EXTRACT_YEAR", (d,), INT),
        RexCall("EXTRACT_MONTH", (d,), INT),
        RexCall("EXTRACT_WEEK", (d,), INT),
        RexCall("EXTRACT_HOUR", (ts,), INT),
        RexCall("YEAR", (d,), INT),
        RexCall("QUARTER", (d,), INT),
        RexCall("DATE_ADD_DAYS", (d, lit(45, INT)), DATE),
        RexCall("DATE_ADD_MONTHS", (d, lit(13, INT)), DATE),
        # strings
        RexCall("UPPER", (s,), STRING),
        RexCall("LOWER", (s,), STRING),
        RexCall("LENGTH", (s,), INT),
        RexCall("TRIM", (s,), STRING),
        RexCall("SUBSTR", (s, lit(2, INT), lit(3, INT)), STRING),
        RexCall("CONCAT", (s, lit("-", STRING), i), STRING),
        # math
        RexCall("ABS", (i,), INT),
        RexCall("ROUND", (f, lit(1, INT)), DOUBLE),
        RexCall("FLOOR", (f,), BIGINT),
        RexCall("CEIL", (f,), BIGINT),
        RexCall("POWER", (f, lit(2, INT)), DOUBLE),
        RexCall("GREATEST", (i, lit(0, INT)), INT),
        RexCall("LEAST", (f, lit(0.0, DOUBLE)), DOUBLE),
        # context-dependent
        RexCall("RAND", (lit(42, INT),), DOUBLE),
        RexCall("CURRENT_DATE", (), DATE),
        RexCall("CURRENT_TIMESTAMP", (), TIMESTAMP),
        # the row-wise kernels: HASH, SUBSTR with column bounds, ROUND
        # with column digits (a NULL literal bound takes the same road)
        RexCall("HASH", (i, s), BIGINT),
        RexCall("HASH", (f,), BIGINT),
        RexCall("SUBSTR", (s, i), STRING),
        RexCall("SUBSTR", (s, lit(2, INT), i), STRING),
        RexCall("SUBSTR", (s, i, lit(2, INT)), STRING),
        RexCall("SUBSTR", (s, lit(None, INT)), STRING),
        RexCall("ROUND", (f, i), DOUBLE),
        RexCall("ROUND", (f, lit(None, INT)), DOUBLE),
        RexCall("ROUND", (f,), DOUBLE),
        # constant folding inside a live expression, bottom-up
        RexCall("+", (i, RexCall("*", (lit(6, INT), lit(7, INT)), INT)),
                INT),
        RexCall("CONCAT", (s, RexCall("UPPER", (RexCall("CAST", (
            RexCall("+", (lit(1, INT), lit(2, INT)), INT),), STRING),),
            STRING)), STRING),
    ]


CORPUS = corpus()


class TestGoldenParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_batches(self, seed):
        batch = random_batch(seed, n=64, null_rate=0.25)
        for expr in CORPUS:
            assert_parity(expr, batch)

    def test_no_nulls(self):
        batch = random_batch(11, n=32, null_rate=0.0)
        for expr in CORPUS:
            assert_parity(expr, batch)

    def test_all_nulls(self):
        batch = random_batch(12, n=16, null_rate=1.0)
        for expr in CORPUS:
            assert_parity(expr, batch)

    def test_empty_batch(self):
        batch = random_batch(13, n=0)
        for expr in CORPUS:
            assert_parity(expr, batch)

    def test_single_row(self):
        batch = random_batch(14, n=1, null_rate=0.5)
        for expr in CORPUS:
            assert_parity(expr, batch)


class TestThreeValuedLogic:
    """Truth tables over {TRUE, FALSE, NULL}, compiled ≡ interpreted
    ≡ the SQL standard."""

    @pytest.fixture
    def tvl_batch(self):
        schema = Schema([Column("a", BOOLEAN), Column("b", BOOLEAN)])
        rows = [(x, y) for x in (True, False, None)
                for y in (True, False, None)]
        return VectorBatch.from_rows(schema, rows)

    def test_and_table(self, tvl_batch):
        expr = make_call("AND", col(0, BOOLEAN), col(1, BOOLEAN))
        expected = [True, False, None,
                    False, False, False,
                    None, False, None]
        assert evaluate(expr, tvl_batch, ORACLE_CTX).to_values() == expected
        assert compile_expr(expr)(tvl_batch, CTX).to_values() == expected

    def test_or_table(self, tvl_batch):
        expr = make_call("OR", col(0, BOOLEAN), col(1, BOOLEAN))
        expected = [True, True, True,
                    True, False, None,
                    True, None, None]
        assert evaluate(expr, tvl_batch, ORACLE_CTX).to_values() == expected
        assert compile_expr(expr)(tvl_batch, CTX).to_values() == expected

    def test_not_table(self, tvl_batch):
        expr = make_call("NOT", col(0, BOOLEAN))
        expected = [False] * 3 + [True] * 3 + [None] * 3
        assert evaluate(expr, tvl_batch, ORACLE_CTX).to_values() == expected
        assert compile_expr(expr)(tvl_batch, CTX).to_values() == expected

    def test_case_null_condition_falls_through(self, tvl_batch):
        # a NULL WHEN-condition must not select the branch
        expr = RexCall("CASE", (col(0, BOOLEAN), lit(1, INT),
                                lit(0, INT)), INT)
        expected = [1, 1, 1, 0, 0, 0, 0, 0, 0]
        assert evaluate(expr, tvl_batch, ORACLE_CTX).to_values() == expected
        assert compile_expr(expr)(tvl_batch, CTX).to_values() == expected

    def test_if_null_condition_takes_else(self, tvl_batch):
        expr = RexCall("IF", (col(1, BOOLEAN), lit("t", STRING),
                              lit("e", STRING)), STRING)
        expected = ["t", "e", "e"] * 3
        assert evaluate(expr, tvl_batch, ORACLE_CTX).to_values() == expected
        assert compile_expr(expr)(tvl_batch, CTX).to_values() == expected

    def test_predicate_mask_null_is_false(self, tvl_batch):
        expr = make_call("OR", col(0, BOOLEAN), col(1, BOOLEAN))
        mask = compile_predicate(expr)(tvl_batch, CTX)
        assert mask.tolist() == [True, True, True,
                                 True, False, False,
                                 True, False, False]


class TestContextDependence:
    """RAND and CURRENT_* are pure functions of the EvalContext."""

    @pytest.fixture
    def batch(self):
        return random_batch(5, n=8, null_rate=0.0)

    def test_seeded_rand_deterministic(self, batch):
        expr = RexCall("RAND", (lit(99, INT),), DOUBLE)
        kernel = compile_expr(expr)
        first = kernel(batch, CTX).to_values()
        second = kernel(batch, CTX).to_values()
        assert first == second
        assert first == evaluate(expr, batch, ORACLE_CTX).to_values()
        assert len(set(first)) > 1          # per-row, not one constant
        assert all(0.0 <= v < 1.0 for v in first)

    def test_unseeded_rand_varies_by_query(self, batch):
        expr = RexCall("RAND", (), DOUBLE)
        kernel = compile_expr(expr)
        a = kernel(batch, EvalContext(query_id=1)).to_values()
        b = kernel(batch, EvalContext(query_id=2)).to_values()
        again = kernel(batch, EvalContext(query_id=1)).to_values()
        assert a != b
        assert a == again

    def test_rand_stream_continues_across_batches(self, batch):
        # rows [0,8) then [8,16) must equal one 16-row evaluation
        expr = RexCall("RAND", (lit(7, INT),), DOUBLE)
        kernel = compile_expr(expr)
        big = random_batch(5, n=16, null_rate=0.0)
        whole = kernel(big, CTX).to_values()
        lo = kernel(batch, CTX).to_values()
        hi = kernel(batch, EvalContext(now_s=CTX.now_s,
                                       query_id=CTX.query_id,
                                       row_offset=8)).to_values()
        assert whole[:8] == lo
        assert whole[8:] == hi

    def test_current_date_uses_virtual_clock(self, batch):
        expr = RexCall("CURRENT_DATE", (), DATE)
        out = compile_expr(expr)(batch, CTX).to_values()
        want = (datetime.date(1970, 1, 1)
                + datetime.timedelta(days=int(CTX.now_s // 86400)))
        assert out == [want] * batch.num_rows
        assert out == evaluate(expr, batch, ORACLE_CTX).to_values()

    def test_current_timestamp_millisecond_precision(self, batch):
        expr = RexCall("CURRENT_TIMESTAMP", (), TIMESTAMP)
        out = compile_expr(expr)(batch, CTX).to_values()
        assert out == evaluate(expr, batch, ORACLE_CTX).to_values()
        assert out[0].microsecond == 456000   # ms resolution, no finer

    def test_default_context_is_epoch(self, batch):
        expr = RexCall("CURRENT_DATE", (), DATE)
        out = evaluate(expr, batch).to_values()
        assert out[0] == datetime.date(1970, 1, 1)


class TestKernelCache:
    def test_hit_and_compile_counters(self):
        cache = KernelCache()
        expr = RexCall("+", (col(0, INT), lit(1, INT)), INT)
        k1 = cache.kernel(expr)
        k2 = cache.kernel(expr)
        assert k1 is k2
        assert cache.compiled == 1
        assert cache.hits == 1

    def test_typed_digest_discriminates_dtypes(self):
        int_expr = RexCall("+", (col(0, INT), lit(1, INT)), INT)
        dbl_expr = RexCall("+", (col(0, DOUBLE), lit(1, INT)), DOUBLE)
        assert typed_digest(int_expr) != typed_digest(dbl_expr)
        cache = KernelCache()
        cache.kernel(int_expr)
        cache.kernel(dbl_expr)
        assert cache.compiled == 2

    def test_kernel_and_predicate_cached_separately(self):
        cache = KernelCache()
        expr = make_call(">", col(0, INT), lit(0, INT))
        k = cache.kernel(expr)
        p = cache.predicate(expr)
        assert k is not p
        assert cache.compiled == 2
        assert cache.predicate(expr) is p

    def test_lru_eviction(self):
        cache = KernelCache(capacity=2)
        exprs = [RexCall("+", (col(0, INT), lit(k, INT)), INT)
                 for k in range(3)]
        cache.kernel(exprs[0])
        cache.kernel(exprs[1])
        cache.kernel(exprs[0])          # refresh 0: 1 is now LRU
        cache.kernel(exprs[2])          # evicts 1
        before = cache.compiled
        cache.kernel(exprs[0])          # still cached
        assert cache.compiled == before
        cache.kernel(exprs[1])          # recompiles
        assert cache.compiled == before + 1


class TestCompiledCorrectnessDetails:
    """Regression anchors for the subtle lowering decisions."""

    def test_modulo_sign_of_dividend(self):
        schema = Schema([Column("i", INT)])
        batch = VectorBatch.from_rows(
            schema, [(-7,), (7,), (-7,), (0,)])
        expr = RexCall("%", (col(0, INT), lit(3, INT)), INT)
        out = compile_expr(expr)(batch, CTX).to_values()
        assert out == [-1, 1, -1, 0]
        assert out == evaluate(expr, batch, ORACLE_CTX).to_values()

    def test_nullif_keeps_expression_dtype(self):
        schema = Schema([Column("i", INT)])
        batch = VectorBatch.from_rows(schema, [(1,), (2,)])
        expr = RexCall("NULLIF", (col(0, INT), lit(1, INT)), DOUBLE)
        out = compile_expr(expr)(batch, CTX)
        assert out.dtype == DOUBLE
        assert out.to_values() == [None, 2.0]
        ref = evaluate(expr, batch, ORACLE_CTX)
        assert ref.dtype == DOUBLE
        assert ref.to_values() == out.to_values()

    def test_extract_week_53_not_wrapped(self):
        # 2020-12-31 is ISO week 53; the old '% 52 + 1' gave week 2
        schema = Schema([Column("d", DATE)])
        days = (datetime.date(2020, 12, 31)
                - datetime.date(1970, 1, 1)).days
        jan1 = (datetime.date(2021, 1, 1)
                - datetime.date(1970, 1, 1)).days
        batch = VectorBatch.from_rows(schema, [(None,)] * 0 + [
            (datetime.date(2020, 12, 31),), (datetime.date(2021, 1, 1),),
            (datetime.date(2020, 6, 15),)])
        del days, jan1
        expr = RexCall("EXTRACT_WEEK", (col(0, DATE),), INT)
        out = compile_expr(expr)(batch, CTX).to_values()
        iso = [datetime.date(2020, 12, 31).isocalendar()[1],
               datetime.date(2021, 1, 1).isocalendar()[1],
               datetime.date(2020, 6, 15).isocalendar()[1]]
        assert out == iso == [53, 53, 25]
        assert out == evaluate(expr, batch, ORACLE_CTX).to_values()

    def test_division_by_zero_nulls_not_inf(self):
        schema = Schema([Column("f", DOUBLE)])
        batch = VectorBatch.from_rows(schema, [(1.0,), (0.0,), (-2.0,)])
        expr = RexCall("/", (col(0, DOUBLE), col(0, DOUBLE)), DOUBLE)
        out = compile_expr(expr)(batch, CTX).to_values()
        assert out == [1.0, None, 1.0]
        assert out == evaluate(expr, batch, ORACLE_CTX).to_values()

    def test_cast_garbage_under_null_does_not_crash(self):
        # object cells under a null flag may hold arbitrary garbage;
        # the CAST render path must not trip on them
        data = np.array(["1", object()], dtype=object)
        nulls = np.array([False, True])
        batch = VectorBatch(Schema([Column("s", STRING)]),
                            [ColumnVector(STRING, data, nulls)])
        expr = RexCall("CAST", (col(0, STRING),), INT)
        out = compile_expr(expr)(batch, CTX).to_values()
        assert out == [1, None]

    def test_rowwise_kernels(self):
        # the three per-row loops the compiler keeps, against plain
        # Python values; any NULL argument makes the row NULL
        schema = Schema([Column("s", STRING), Column("k", INT),
                         Column("f", DOUBLE)])
        batch = VectorBatch.from_rows(schema, [
            ("hello", 2, 2.345), ("world", 4, 1.25), (None, 1, None),
            ("abc", None, 0.5)])
        s, k, f = col(0, STRING), col(1, INT), col(2, DOUBLE)

        def run(expr):
            return compile_expr(expr)(batch, CTX).to_values()

        assert run(RexCall("SUBSTR", (s, k), STRING)) == [
            "ello", "ld", None, None]
        assert run(RexCall("SUBSTR", (s, lit(1, INT), k), STRING)) == [
            "he", "worl", None, None]
        assert run(RexCall("ROUND", (f, k), DOUBLE)) == [
            round(2.345, 2), 1.25, None, None]
        mask = 0x7FFFFFFFFFFFFFFF
        assert run(RexCall("HASH", (k, s), BIGINT)) == [
            hash((2, "hello")) & mask, hash((4, "world")) & mask,
            None, None]

    def test_null_literal_bound_is_null_not_a_type_error(self):
        batch = VectorBatch.from_rows(Schema([Column("s", STRING)]),
                                      [("hello",)])
        expr = RexCall("SUBSTR", (col(0, STRING), lit(None, INT)), STRING)
        assert compile_expr(expr)(batch, CTX).to_values() == [None]


class TestLoweringErrors:
    """What the engine cannot lower is refused when the kernel is
    built, with the text the interpreter raises while evaluating."""

    BATCH = VectorBatch.from_rows(
        Schema([Column("i", INT), Column("s", STRING)]), [(1, "a")])

    def _both_raise(self, expr, text):
        with pytest.raises(ExecutionError, match=text):
            compile_expr(expr)
        with pytest.raises(ExecutionError, match=text):
            evaluate(expr, self.BATCH, ORACLE_CTX)

    def test_non_literal_in_list(self):
        self._both_raise(
            make_call("IN", col(0, INT), lit(1, INT), col(0, INT)),
            "IN list values must be literals")

    def test_non_literal_like_pattern(self):
        self._both_raise(
            make_call("LIKE", col(1, STRING), col(1, STRING)),
            "LIKE pattern must be a literal")

    def test_operator_without_a_compiler(self):
        self._both_raise(RexCall("NO_SUCH_OP", (col(0, INT),), INT),
                         "no evaluator for operator 'NO_SUCH_OP'")

    def test_error_inside_a_subtree_surfaces_at_lowering(self):
        inner = make_call("LIKE", col(1, STRING), col(1, STRING))
        outer = RexCall("CASE", (inner, lit(1, INT), lit(0, INT)), INT)
        with pytest.raises(ExecutionError, match="LIKE pattern"):
            compile_predicate(make_call("NOT", outer))
