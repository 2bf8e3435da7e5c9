"""Vectorized expression evaluation, including NULL semantics —
through the lower-and-run entry points of the one engine."""

import datetime

import numpy as np
import pytest

from repro.common.rows import Column, Schema
from repro.common.types import (BIGINT, BOOLEAN, DATE, DOUBLE, INT,
                                STRING)
from repro.common.vector import VectorBatch
from repro.exec.compile import evaluate, evaluate_predicate
from repro.plan.rexnodes import RexCall, RexInputRef, RexLiteral, make_call


@pytest.fixture
def batch():
    schema = Schema([Column("i", INT), Column("f", DOUBLE),
                     Column("s", STRING), Column("d", DATE),
                     Column("flag", BOOLEAN)])
    rows = [
        (1, 1.5, "apple", datetime.date(2020, 1, 15), True),
        (2, 2.5, "banana", datetime.date(2020, 6, 30), False),
        (None, None, None, None, None),
        (-4, 0.25, "apricot", datetime.date(2021, 12, 1), True),
    ]
    return VectorBatch.from_rows(schema, rows)


def col(i, dtype):
    return RexInputRef(i, dtype)


def lit(value, dtype):
    return RexLiteral(value, dtype)


class TestArithmetic:
    def test_add_mul(self, batch):
        out = evaluate(RexCall("+", (col(0, INT), lit(10, INT)), INT),
                       batch)
        assert out.to_values() == [11, 12, None, 6]
        out = evaluate(RexCall("*", (col(1, DOUBLE), lit(2, INT)),
                               DOUBLE), batch)
        assert out.to_values() == [3.0, 5.0, None, 0.5]

    def test_divide_by_zero_is_null(self, batch):
        out = evaluate(RexCall("/", (col(0, INT), lit(0, INT)), DOUBLE),
                       batch)
        assert out.to_values() == [None, None, None, None]

    def test_modulo(self, batch):
        out = evaluate(RexCall("%", (col(0, INT), lit(2, INT)), INT),
                       batch)
        assert out.to_values() == [1, 0, None, 0]

    def test_negate(self, batch):
        out = evaluate(RexCall("NEGATE", (col(0, INT),), INT), batch)
        assert out.to_values() == [-1, -2, None, 4]


class TestComparisonAndLogic:
    def test_comparison_null_propagates(self, batch):
        out = evaluate(make_call(">", col(0, INT), lit(1, INT)), batch)
        assert out.to_values() == [False, True, None, False]

    def test_string_compare(self, batch):
        out = evaluate(make_call("=", col(2, STRING),
                                 lit("banana", STRING)), batch)
        assert out.to_values() == [False, True, None, False]

    def test_three_valued_and(self, batch):
        # flag AND (i > 0): null AND false must be false-ish in filters
        expr = make_call("AND", col(4, BOOLEAN),
                         make_call(">", col(0, INT), lit(0, INT)))
        mask = evaluate_predicate(expr, batch)
        assert mask.tolist() == [True, False, False, False]

    def test_false_and_null_is_false(self, batch):
        expr = make_call("AND", lit(False, BOOLEAN), col(4, BOOLEAN))
        out = evaluate(expr, batch)
        assert out.to_values() == [False, False, False, False]

    def test_true_or_null_is_true(self, batch):
        expr = make_call("OR", lit(True, BOOLEAN), col(4, BOOLEAN))
        out = evaluate(expr, batch)
        assert out.to_values() == [True, True, True, True]

    def test_is_null(self, batch):
        out = evaluate(make_call("IS_NULL", col(0, INT)), batch)
        assert out.to_values() == [False, False, True, False]
        out = evaluate(make_call("IS_NOT_NULL", col(0, INT)), batch)
        assert out.to_values() == [True, True, False, True]


class TestPredicates:
    def test_in_list(self, batch):
        out = evaluate(make_call("IN", col(0, INT), lit(1, INT),
                                 lit(-4, INT)), batch)
        assert out.to_values() == [True, False, None, True]

    def test_like(self, batch):
        out = evaluate(make_call("LIKE", col(2, STRING),
                                 lit("ap%", STRING)), batch)
        assert out.to_values() == [True, False, None, True]
        out = evaluate(make_call("LIKE", col(2, STRING),
                                 lit("_anana", STRING)), batch)
        assert out.to_values() == [False, True, None, False]

    def test_like_anchored(self, batch):
        out = evaluate(make_call("LIKE", col(2, STRING),
                                 lit("pple", STRING)), batch)
        assert out.to_values()[0] is False     # no implicit wildcards


class TestConditionals:
    def test_case(self, batch):
        expr = RexCall("CASE", (
            make_call(">", col(0, INT), lit(1, INT)),
            lit("big", STRING),
            make_call("=", col(0, INT), lit(1, INT)),
            lit("one", STRING),
            lit("small", STRING)), STRING)
        out = evaluate(expr, batch)
        assert out.to_values() == ["one", "big", "small", "small"]

    def test_coalesce(self, batch):
        expr = RexCall("COALESCE", (col(0, INT), lit(99, INT)), INT)
        out = evaluate(expr, batch)
        assert out.to_values() == [1, 2, 99, -4]

    def test_if(self, batch):
        expr = RexCall("IF", (col(4, BOOLEAN), lit(1, INT),
                              lit(0, INT)), INT)
        assert evaluate(expr, batch).to_values() == [1, 0, 0, 1]

    def test_nullif(self, batch):
        expr = RexCall("NULLIF", (col(0, INT), lit(2, INT)), INT)
        assert evaluate(expr, batch).to_values() == [1, None, None, -4]


class TestCastsAndTemporal:
    def test_cast_int_to_string(self, batch):
        out = evaluate(RexCall("CAST", (col(0, INT),), STRING), batch)
        assert out.to_values() == ["1", "2", None, "-4"]

    def test_cast_string_to_int_bad_values_null(self, batch):
        out = evaluate(RexCall("CAST", (col(2, STRING),), INT), batch)
        assert out.to_values() == [None, None, None, None]

    def test_cast_int_to_double(self, batch):
        out = evaluate(RexCall("CAST", (col(0, INT),), DOUBLE), batch)
        assert out.to_values() == [1.0, 2.0, None, -4.0]

    def test_extract_units(self, batch):
        year = evaluate(RexCall("EXTRACT_YEAR", (col(3, DATE),), INT),
                        batch)
        assert year.to_values() == [2020, 2020, None, 2021]
        month = evaluate(RexCall("EXTRACT_MONTH", (col(3, DATE),), INT),
                         batch)
        assert month.to_values() == [1, 6, None, 12]
        day = evaluate(RexCall("EXTRACT_DAY", (col(3, DATE),), INT),
                       batch)
        assert day.to_values() == [15, 30, None, 1]
        quarter = evaluate(RexCall("EXTRACT_QUARTER", (col(3, DATE),),
                                   INT), batch)
        assert quarter.to_values() == [1, 2, None, 4]

    def test_date_add_days(self, batch):
        expr = RexCall("DATE_ADD_DAYS", (col(3, DATE), lit(10, INT)),
                       DATE)
        out = evaluate(expr, batch)
        assert out.value(0) == datetime.date(2020, 1, 25)

    def test_date_add_months_clamps_day(self):
        schema = Schema([Column("d", DATE)])
        batch = VectorBatch.from_rows(schema,
                                      [(datetime.date(2020, 1, 31),)])
        expr = RexCall("DATE_ADD_MONTHS", (col(0, DATE), lit(1, INT)),
                       DATE)
        assert evaluate(expr, batch).value(0) == datetime.date(2020, 2, 29)


class TestStringFunctions:
    def test_upper_lower_length_trim(self, batch):
        assert evaluate(RexCall("UPPER", (col(2, STRING),), STRING),
                        batch).to_values() == [
            "APPLE", "BANANA", None, "APRICOT"]
        assert evaluate(RexCall("LENGTH", (col(2, STRING),), INT),
                        batch).to_values() == [5, 6, None, 7]

    def test_substr(self, batch):
        expr = RexCall("SUBSTR", (col(2, STRING), lit(2, INT),
                                  lit(3, INT)), STRING)
        assert evaluate(expr, batch).to_values() == [
            "ppl", "ana", None, "pri"]

    def test_concat(self, batch):
        expr = RexCall("CONCAT", (col(2, STRING), lit("!", STRING)),
                       STRING)
        assert evaluate(expr, batch).to_values() == [
            "apple!", "banana!", None, "apricot!"]


class TestJavaModulo:
    """Hive follows Java: the sign of % is the sign of the dividend."""

    @pytest.fixture
    def signed(self):
        schema = Schema([Column("a", INT), Column("b", INT)])
        rows = [(-7, 3), (7, -3), (-7, -3), (7, 3), (0, 3), (5, 0)]
        return VectorBatch.from_rows(schema, rows)

    def test_sign_of_dividend(self, signed):
        expr = RexCall("%", (col(0, INT), col(1, INT)), INT)
        assert evaluate(expr, signed).to_values() == [
            -1, 1, -1, 1, 0, None]

    def test_mod_alias_matches(self, signed):
        expr = RexCall("MOD", (col(0, INT), col(1, INT)), INT)
        assert evaluate(expr, signed).to_values() == [
            -1, 1, -1, 1, 0, None]

    def test_double_modulo(self):
        schema = Schema([Column("f", DOUBLE)])
        batch = VectorBatch.from_rows(schema, [(-7.5,), (7.5,)])
        expr = RexCall("%", (col(0, DOUBLE), lit(2.0, DOUBLE)), DOUBLE)
        assert evaluate(expr, batch).to_values() == [-1.5, 1.5]


class TestNullifDtype:
    def test_result_uses_expression_dtype(self, batch):
        # analyzer may widen NULLIF(int_col, 1) to DOUBLE; the result
        # vector must carry that dtype, not the first operand's
        expr = RexCall("NULLIF", (col(0, INT), lit(1, INT)), DOUBLE)
        out = evaluate(expr, batch)
        assert out.dtype == DOUBLE
        assert out.to_values() == [None, 2.0, None, -4.0]


class TestIsoWeek:
    def test_week_53_not_wrapped(self):
        # the old '% 52 + 1' formula sent ISO week 53 back to week 2
        schema = Schema([Column("d", DATE)])
        dates = [datetime.date(2020, 12, 31),   # ISO 2020-W53
                 datetime.date(2021, 1, 1),     # still 2020-W53
                 datetime.date(2021, 1, 4),     # 2021-W01
                 datetime.date(2015, 12, 28),   # 2015-W53
                 datetime.date(2020, 6, 15)]
        batch = VectorBatch.from_rows(schema, [(d,) for d in dates])
        expr = RexCall("EXTRACT_WEEK", (col(0, DATE),), INT)
        out = evaluate(expr, batch).to_values()
        assert out == [d.isocalendar()[1] for d in dates]
        assert out[0] == 53

    def test_parity_with_isocalendar_across_years(self):
        schema = Schema([Column("d", DATE)])
        dates = [datetime.date(1970, 1, 1) + datetime.timedelta(days=k)
                 for k in range(0, 20000, 97)]
        batch = VectorBatch.from_rows(schema, [(d,) for d in dates])
        expr = RexCall("EXTRACT_WEEK", (col(0, DATE),), INT)
        out = evaluate(expr, batch).to_values()
        assert out == [d.isocalendar()[1] for d in dates]


class TestVirtualClock:
    def test_current_date_comes_from_context(self, batch):
        from repro.exec.compile import EvalContext
        ctx = EvalContext(now_s=86400.0 * 365 * 10 + 7200)
        expr = RexCall("CURRENT_DATE", (), DATE)
        out = evaluate(expr, batch, ctx).to_values()
        want = (datetime.date(1970, 1, 1)
                + datetime.timedelta(days=3650))
        assert out == [want] * batch.num_rows

    def test_current_timestamp_from_context(self, batch):
        from repro.common.types import TIMESTAMP
        from repro.exec.compile import EvalContext
        ctx = EvalContext(now_s=12.345)
        expr = RexCall("CURRENT_TIMESTAMP", (), TIMESTAMP)
        out = evaluate(expr, batch, ctx).to_values()
        assert out[0] == datetime.datetime(1970, 1, 1, 0, 0, 12, 345000)

    def test_default_context_is_fixed_epoch_not_wall_clock(self, batch):
        # two evaluations arbitrarily far apart must agree: the default
        # context pins the virtual epoch, never the host clock
        expr = RexCall("CURRENT_DATE", (), DATE)
        first = evaluate(expr, batch).to_values()
        second = evaluate(expr, batch).to_values()
        assert first == second == [datetime.date(1970, 1, 1)] * 4


class TestRandDeterminism:
    def test_seeded_rand_reproduces(self, batch):
        expr = RexCall("RAND", (lit(42, INT),), DOUBLE)
        a = evaluate(expr, batch).to_values()
        b = evaluate(expr, batch).to_values()
        assert a == b
        assert all(0.0 <= v < 1.0 for v in a)
        assert len(set(a)) > 1    # per-row stream, not one number

    def test_seed_changes_stream(self, batch):
        one = evaluate(RexCall("RAND", (lit(1, INT),), DOUBLE),
                       batch).to_values()
        two = evaluate(RexCall("RAND", (lit(2, INT),), DOUBLE),
                       batch).to_values()
        assert one != two

    def test_unseeded_rand_salted_by_query_id(self, batch):
        from repro.exec.compile import EvalContext
        expr = RexCall("RAND", (), DOUBLE)
        q1 = evaluate(expr, batch, EvalContext(query_id=1)).to_values()
        q2 = evaluate(expr, batch, EvalContext(query_id=2)).to_values()
        q1_again = evaluate(expr, batch,
                            EvalContext(query_id=1)).to_values()
        assert q1 != q2
        assert q1 == q1_again

    def test_row_offset_continues_stream(self):
        from repro.exec.compile import EvalContext
        schema = Schema([Column("i", INT)])
        big = VectorBatch.from_rows(schema, [(k,) for k in range(10)])
        lo = VectorBatch.from_rows(schema, [(k,) for k in range(6)])
        hi = VectorBatch.from_rows(schema, [(k,) for k in range(4)])
        expr = RexCall("RAND", (lit(9, INT),), DOUBLE)
        whole = evaluate(expr, big).to_values()
        first = evaluate(expr, lo).to_values()
        rest = evaluate(expr, hi,
                        EvalContext(row_offset=6)).to_values()
        assert whole == first + rest
