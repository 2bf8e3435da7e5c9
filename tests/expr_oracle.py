"""The tree-walking Rex interpreter: parity oracle for the one
expression engine in ``src/``, :mod:`repro.exec.compile`.

It re-walks the expression tree on every batch — isinstance checks,
dict dispatch, per-row Python loops for string functions and casts —
which makes it slow and easy to read, the two things a reference wants
to be.  tests/test_expr_compile.py evaluates every expression both
ways and demands identical values, null masks and dtypes.

It imports nothing from ``repro.exec``: the EXTRACT / ADD_MONTHS /
RAND helpers below are its own copies, so an error in the compiler's
copy cannot hide by being shared.

NULL semantics: three-valued logic for comparisons and AND/OR; nulls
propagate through arithmetic and functions; predicates treat NULL as
false at filter time.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass

import numpy as np

from repro.common.types import (BOOLEAN, DATE, DOUBLE, INT, STRING,
                                TIMESTAMP, DataType)
from repro.common.vector import ColumnVector, VectorBatch
from repro.errors import ExecutionError
from repro.plan.rexnodes import RexCall, RexInputRef, RexLiteral, RexNode

_EPOCH = datetime.date(1970, 1, 1)
_EPOCH_DT = datetime.datetime(1970, 1, 1)

@dataclass
class EvalContext:
    """Statement-scoped inputs for context-dependent expressions.

    Everything non-deterministic an expression may observe comes from
    here, pinned at statement start on the session's *virtual* clock —
    never the wall clock — so a statement sees one consistent
    ``CURRENT_TIMESTAMP`` and repeated runs reproduce bit-identically.
    """

    #: virtual statement time, seconds since the virtual epoch
    now_s: float = 0.0
    #: query id of the statement being evaluated (salts unseeded RAND)
    query_id: int = 0
    #: absolute row index of the batch's first row (RAND stream offset)
    row_offset: int = 0

    def statement_date(self) -> datetime.date:
        return _EPOCH + datetime.timedelta(days=int(self.now_s // 86400.0))

    def statement_timestamp(self) -> datetime.datetime:
        ms = int(round(self.now_s * 1000.0))
        return _EPOCH_DT + datetime.timedelta(milliseconds=ms)


#: fallback context: the virtual epoch (deterministic, not wall time)
DEFAULT_CONTEXT = EvalContext()


def evaluate(expr: RexNode, batch: VectorBatch,
             ctx: EvalContext | None = None) -> ColumnVector:
    """Evaluate ``expr`` against every row of ``batch``."""
    if ctx is None:
        ctx = DEFAULT_CONTEXT
    if isinstance(expr, RexInputRef):
        return batch.vectors[expr.index]
    if isinstance(expr, RexLiteral):
        return _broadcast(expr.value, expr.dtype, batch.num_rows)
    if isinstance(expr, RexCall):
        return _call(expr, batch, ctx)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def evaluate_predicate(expr: RexNode, batch: VectorBatch,
                       ctx: EvalContext | None = None) -> np.ndarray:
    """Boolean mask with NULL treated as false."""
    result = evaluate(expr, batch, ctx)
    mask = result.data.astype(bool, copy=True)
    mask[result.nulls] = False
    return mask


# --------------------------------------------------------------------------- #

def _broadcast(value, dtype: DataType, n: int) -> ColumnVector:
    storage = dtype.to_storage(value)
    np_dtype = dtype.numpy_dtype
    if value is None:
        data = np.zeros(n, dtype=np_dtype if np_dtype != np.dtype(object)
                        else object)
        if np_dtype == np.dtype(object):
            data[:] = ""
        return ColumnVector(dtype, data, np.ones(n, dtype=bool))
    if np_dtype == np.dtype(object):
        data = np.empty(n, dtype=object)
        data[:] = storage
    else:
        data = np.full(n, storage, dtype=np_dtype)
    return ColumnVector(dtype, data, np.zeros(n, dtype=bool))


def _call(expr: RexCall, batch: VectorBatch,
          ctx: EvalContext) -> ColumnVector:
    op = expr.op
    handler = _HANDLERS.get(op)
    if handler is not None:
        return handler(expr, batch, ctx)
    raise ExecutionError(f"no evaluator for operator {op!r}")


# -- arithmetic ---------------------------------------------------------------- #

def _arith(expr: RexCall, batch: VectorBatch,
           ctx: EvalContext) -> ColumnVector:
    left = evaluate(expr.operands[0], batch, ctx)
    right = evaluate(expr.operands[1], batch, ctx)
    nulls = left.nulls | right.nulls
    a = left.data.astype(np.float64) if expr.op == "/" else left.data
    b = right.data.astype(np.float64) if expr.op == "/" else right.data
    out_dtype = expr.dtype.numpy_dtype
    with np.errstate(divide="ignore", invalid="ignore"):
        if expr.op == "+":
            data = a + b
        elif expr.op == "-":
            data = a - b
        elif expr.op == "*":
            data = a * b
        elif expr.op == "/":
            data = np.divide(a, b)
            div_zero = (b == 0)
            nulls = nulls | div_zero
        elif expr.op in ("%", "MOD"):
            safe_b = np.where(b == 0, 1, b)
            # Hive follows Java: the result takes the *dividend*'s sign
            # (C fmod), not numpy's floored modulo which follows the
            # divisor — -7 % 3 must be -1, not 2
            data = np.fmod(a, safe_b)
            nulls = nulls | (b == 0)
        else:  # pragma: no cover
            raise ExecutionError(expr.op)
    return ColumnVector(expr.dtype, data.astype(out_dtype, copy=False),
                        nulls)


def _negate(expr: RexCall, batch: VectorBatch,
            ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    return ColumnVector(expr.dtype, -operand.data, operand.nulls.copy())


# -- comparison ---------------------------------------------------------------- #

def _compare(expr: RexCall, batch: VectorBatch,
             ctx: EvalContext) -> ColumnVector:
    left = evaluate(expr.operands[0], batch, ctx)
    right = evaluate(expr.operands[1], batch, ctx)
    nulls = left.nulls | right.nulls
    a, b = _align_for_compare(left, right)
    op = expr.op
    if op == "=":
        data = a == b
    elif op == "<>":
        data = a != b
    elif op == "<":
        data = a < b
    elif op == "<=":
        data = a <= b
    elif op == ">":
        data = a > b
    elif op == ">=":
        data = a >= b
    else:  # pragma: no cover
        raise ExecutionError(op)
    return ColumnVector(BOOLEAN, np.asarray(data, dtype=bool), nulls)


def _align_for_compare(left: ColumnVector, right: ColumnVector):
    """Give both sides comparable numpy representations."""
    a, b = left.data, right.data
    if a.dtype == np.dtype(object) or b.dtype == np.dtype(object):
        return a.astype(object), b.astype(object)
    if a.dtype != b.dtype:
        common = np.result_type(a.dtype, b.dtype)
        return a.astype(common), b.astype(common)
    return a, b


# -- boolean logic (three-valued) --------------------------------------------------- #

def _and(expr: RexCall, batch: VectorBatch,
         ctx: EvalContext) -> ColumnVector:
    left = evaluate(expr.operands[0], batch, ctx)
    right = evaluate(expr.operands[1], batch, ctx)
    lv = left.data.astype(bool) & ~left.nulls
    rv = right.data.astype(bool) & ~right.nulls
    lf = ~left.data.astype(bool) & ~left.nulls
    rf = ~right.data.astype(bool) & ~right.nulls
    data = lv & rv
    # false AND anything = false; otherwise null if either side null
    nulls = ~(data | lf | rf)
    return ColumnVector(BOOLEAN, data, nulls)


def _or(expr: RexCall, batch: VectorBatch,
        ctx: EvalContext) -> ColumnVector:
    left = evaluate(expr.operands[0], batch, ctx)
    right = evaluate(expr.operands[1], batch, ctx)
    lv = left.data.astype(bool) & ~left.nulls
    rv = right.data.astype(bool) & ~right.nulls
    data = lv | rv
    nulls = ~data & (left.nulls | right.nulls)
    return ColumnVector(BOOLEAN, data, nulls)


def _not(expr: RexCall, batch: VectorBatch,
         ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    return ColumnVector(BOOLEAN, ~operand.data.astype(bool),
                        operand.nulls.copy())


def _is_null(expr: RexCall, batch: VectorBatch,
             ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    data = operand.nulls.copy()
    if expr.op == "IS_NOT_NULL":
        data = ~data
    return ColumnVector(BOOLEAN, data,
                        np.zeros(len(operand), dtype=bool))


# -- membership / pattern ------------------------------------------------------------ #

def _in(expr: RexCall, batch: VectorBatch,
        ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    values = []
    for v in expr.operands[1:]:
        if isinstance(v, RexLiteral):
            values.append(operand.dtype.to_storage(v.value))
        else:
            raise ExecutionError("IN list values must be literals")
    if operand.data.dtype == np.dtype(object):
        value_set = set(values)
        data = np.fromiter((x in value_set for x in operand.data),
                           dtype=bool, count=len(operand))
    else:
        data = np.isin(operand.data, np.array(values))
    return ColumnVector(BOOLEAN, data, operand.nulls.copy())


def _like(expr: RexCall, batch: VectorBatch,
          ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    pattern = expr.operands[1]
    if not isinstance(pattern, RexLiteral):
        raise ExecutionError("LIKE pattern must be a literal")
    regex = _like_to_regex(str(pattern.value))
    data = np.fromiter(
        (bool(regex.match(str(x))) for x in operand.data),
        dtype=bool, count=len(operand))
    return ColumnVector(BOOLEAN, data, operand.nulls.copy())


def _like_to_regex(pattern: str) -> re.Pattern:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


# -- conditional ---------------------------------------------------------------- #

def _case(expr: RexCall, batch: VectorBatch,
          ctx: EvalContext) -> ColumnVector:
    n = batch.num_rows
    result = _broadcast(None, expr.dtype, n)
    data = result.data.copy()
    nulls = np.ones(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)
    operands = expr.operands
    pairs, default = operands[:-1], operands[-1]
    for i in range(0, len(pairs), 2):
        cond = evaluate_predicate(pairs[i], batch, ctx)
        take = cond & ~decided
        if take.any():
            value = evaluate(pairs[i + 1], batch, ctx)
            value_data = _cast_array(value, expr.dtype)
            data[take] = value_data[take]
            nulls[take] = value.nulls[take]
        decided |= cond
    rest = ~decided
    if rest.any():
        value = evaluate(default, batch, ctx)
        value_data = _cast_array(value, expr.dtype)
        data[rest] = value_data[rest]
        nulls[rest] = value.nulls[rest]
    return ColumnVector(expr.dtype, data, nulls)


def _cast_array(vector: ColumnVector, target: DataType) -> np.ndarray:
    if vector.dtype.numpy_dtype == target.numpy_dtype:
        return vector.data
    if target.numpy_dtype == np.dtype(object):
        out = np.empty(len(vector), dtype=object)
        for i, v in enumerate(vector.data):
            out[i] = str(v)
        return out
    return vector.data.astype(target.numpy_dtype)


# -- cast ---------------------------------------------------------------------- #

def _cast(expr: RexCall, batch: VectorBatch,
          ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    target = expr.dtype
    nulls = operand.nulls.copy()
    src_family = operand.dtype._family()
    dst_family = target._family()
    if src_family == dst_family:
        return ColumnVector(target, operand.data, nulls)
    if dst_family == "STRING":
        out = np.empty(len(operand), dtype=object)
        for i in range(len(operand)):
            out[i] = "" if nulls[i] else str(
                operand.dtype.from_storage(operand.data[i]))
        return ColumnVector(target, out, nulls)
    if src_family == "STRING":
        out = np.zeros(len(operand), dtype=target.numpy_dtype)
        for i in range(len(operand)):
            if nulls[i]:
                continue
            try:
                out[i] = target.to_storage(operand.data[i])
            except (ValueError, TypeError):
                nulls[i] = True
        return ColumnVector(target, out, nulls)
    # numeric / temporal conversions
    data = operand.data.astype(target.numpy_dtype)
    return ColumnVector(target, data, nulls)


# -- temporal ---------------------------------------------------------------------- #

def _dates_of(operand: ColumnVector) -> np.ndarray:
    """Convert a DATE (days) or TIMESTAMP (millis) vector to datetime64[D]."""
    if operand.dtype._family() == "TIMESTAMP":
        return operand.data.astype("datetime64[ms]").astype("datetime64[D]")
    return operand.data.astype(np.int64).astype("datetime64[D]")


def iso_week(days: np.ndarray) -> np.ndarray:
    """ISO-8601 week of year, vectorized.

    Weeks run Monday-Sunday and week 1 is the week containing the
    year's first Thursday, so a date's week number is determined by the
    Thursday of its own week — matching ``date.isocalendar()`` (and
    Hive's ``weekofyear``) including the years with a week 53.
    """
    d = days.astype("datetime64[D]").astype(np.int64)  # epoch is a Thu
    dow = (d + 3) % 7                    # 0=Mon .. 6=Sun
    thursday = d + 3 - dow               # the Thursday of d's ISO week
    year_start = (thursday.astype("datetime64[D]")
                  .astype("datetime64[Y]").astype("datetime64[D]")
                  .astype(np.int64))
    return (thursday - year_start) // 7 + 1


def extract_unit(unit: str, operand: ColumnVector) -> np.ndarray:
    """The EXTRACT computation for one unit, as int64."""
    days = _dates_of(operand)
    years = days.astype("datetime64[Y]")
    if unit == "YEAR":
        data = years.astype(int) + 1970
    elif unit == "MONTH":
        months = days.astype("datetime64[M]")
        data = (months - years.astype("datetime64[M]")).astype(int) + 1
    elif unit == "DAY":
        months = days.astype("datetime64[M]")
        data = (days - months.astype("datetime64[D]")).astype(int) + 1
    elif unit == "QUARTER":
        months = days.astype("datetime64[M]")
        month_num = (months - years.astype("datetime64[M]")).astype(int)
        data = month_num // 3 + 1
    elif unit == "WEEK":
        data = iso_week(days)
    elif unit in ("HOUR", "MINUTE", "SECOND"):
        if operand.dtype._family() != "TIMESTAMP":
            data = np.zeros(len(operand), dtype=np.int64)
        else:
            ms = operand.data.astype(np.int64)
            seconds = ms // 1000
            if unit == "HOUR":
                data = (seconds // 3600) % 24
            elif unit == "MINUTE":
                data = (seconds // 60) % 60
            else:
                data = seconds % 60
    else:  # pragma: no cover
        raise ExecutionError(unit)
    return data.astype(np.int64)


def _extract(expr: RexCall, batch: VectorBatch,
             ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    unit = expr.op.split("_", 1)[1]
    return ColumnVector(INT, extract_unit(unit, operand),
                        operand.nulls.copy())


def _date_add_days(expr: RexCall, batch: VectorBatch,
                   ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    amount = evaluate(expr.operands[1], batch, ctx)
    data = operand.data + amount.data.astype(operand.data.dtype)
    return ColumnVector(operand.dtype, data,
                        operand.nulls | amount.nulls)


def add_months_array(operand: ColumnVector,
                     amount: ColumnVector) -> np.ndarray:
    """DATE_ADD_MONTHS payload, row by row over Python dates."""
    out = np.zeros(len(operand), dtype=operand.data.dtype)
    for i in range(len(operand)):
        if operand.nulls[i] or amount.nulls[i]:
            continue
        base = _EPOCH + datetime.timedelta(days=int(operand.data[i]))
        total = base.year * 12 + (base.month - 1) + int(amount.data[i])
        year, month = divmod(total, 12)
        day = min(base.day, _days_in_month(year, month + 1))
        out[i] = (datetime.date(year, month + 1, day) - _EPOCH).days
    return out


def _date_add_months(expr: RexCall, batch: VectorBatch,
                     ctx: EvalContext) -> ColumnVector:
    operand = evaluate(expr.operands[0], batch, ctx)
    amount = evaluate(expr.operands[1], batch, ctx)
    return ColumnVector(operand.dtype, add_months_array(operand, amount),
                        operand.nulls | amount.nulls)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (datetime.date(year, month + 1, 1)
            - datetime.date(year, month, 1)).days


# -- context-dependent (virtual clock / seeded randomness) ---------------------- #

def _current_date(expr: RexCall, batch: VectorBatch,
                  ctx: EvalContext) -> ColumnVector:
    return _broadcast(ctx.statement_date(), DATE, batch.num_rows)


def _current_timestamp(expr: RexCall, batch: VectorBatch,
                       ctx: EvalContext) -> ColumnVector:
    return _broadcast(ctx.statement_timestamp(), TIMESTAMP,
                      batch.num_rows)


def rand_vector(n: int, base: int, offset: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1): splitmix64 of (base, row).

    A pure function of its arguments — no process RNG state — so a
    seeded fault replay that re-executes the same query over the same
    rows reproduces bit-identical samples.
    """
    idx = np.arange(offset, offset + n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (idx + np.uint64(base & 0xFFFFFFFFFFFFFFFF)) \
            * np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def rand_base(expr: RexCall, ctx: EvalContext) -> int:
    """RAND's stream identity: explicit seed, else per-query salt."""
    if expr.operands:
        seed = expr.operands[0]
        if isinstance(seed, RexLiteral) and seed.value is not None:
            return int(seed.value)
    # unseeded: deterministic per query, distinct across queries
    return (int(ctx.query_id) * 0x5851F42D4C957F2D) & 0xFFFFFFFFFFFFFFFF


def _rand(expr: RexCall, batch: VectorBatch,
          ctx: EvalContext) -> ColumnVector:
    data = rand_vector(batch.num_rows, rand_base(expr, ctx),
                       ctx.row_offset)
    return ColumnVector(DOUBLE, data,
                        np.zeros(batch.num_rows, dtype=bool))


# -- string / scalar functions ----------------------------------------------------- #

def _rowwise(fn):
    def evaluator(expr: RexCall, batch: VectorBatch,
                  ctx: EvalContext) -> ColumnVector:
        args = [evaluate(o, batch, ctx) for o in expr.operands]
        n = batch.num_rows
        nulls = np.zeros(n, dtype=bool)
        for a in args:
            nulls |= a.nulls
        np_dtype = expr.dtype.numpy_dtype
        if np_dtype == np.dtype(object):
            out = np.empty(n, dtype=object)
            out[:] = ""
        else:
            out = np.zeros(n, dtype=np_dtype)
        for i in range(n):
            if nulls[i]:
                continue
            out[i] = fn(*[a.data[i] for a in args])
        return ColumnVector(expr.dtype, out, nulls)
    return evaluator


def _concat(expr: RexCall, batch: VectorBatch,
            ctx: EvalContext) -> ColumnVector:
    args = [evaluate(o, batch, ctx) for o in expr.operands]
    n = batch.num_rows
    nulls = np.zeros(n, dtype=bool)
    for a in args:
        nulls |= a.nulls
    out = np.empty(n, dtype=object)
    for i in range(n):
        out[i] = "" if nulls[i] else "".join(str(a.data[i]) for a in args)
    return ColumnVector(STRING, out, nulls)


def _coalesce(expr: RexCall, batch: VectorBatch,
              ctx: EvalContext) -> ColumnVector:
    args = [evaluate(o, batch, ctx) for o in expr.operands]
    n = batch.num_rows
    np_dtype = expr.dtype.numpy_dtype
    if np_dtype == np.dtype(object):
        out = np.empty(n, dtype=object)
        out[:] = ""
    else:
        out = np.zeros(n, dtype=np_dtype)
    nulls = np.ones(n, dtype=bool)
    for arg in args:
        take = nulls & ~arg.nulls
        if take.any():
            out[take] = _cast_array(arg, expr.dtype)[take]
            nulls[take] = False
    return ColumnVector(expr.dtype, out, nulls)


def _if(expr: RexCall, batch: VectorBatch,
        ctx: EvalContext) -> ColumnVector:
    cond = evaluate_predicate(expr.operands[0], batch, ctx)
    then_v = evaluate(expr.operands[1], batch, ctx)
    else_v = evaluate(expr.operands[2], batch, ctx)
    data = np.where(cond, _cast_array(then_v, expr.dtype),
                    _cast_array(else_v, expr.dtype))
    nulls = np.where(cond, then_v.nulls, else_v.nulls)
    return ColumnVector(expr.dtype, data, nulls)


def _nullif(expr: RexCall, batch: VectorBatch,
            ctx: EvalContext) -> ColumnVector:
    a = evaluate(expr.operands[0], batch, ctx)
    b = evaluate(expr.operands[1], batch, ctx)
    equal = (a.data == b.data) & ~a.nulls & ~b.nulls
    # result is typed by the *expression*, not the left operand — the
    # analyzer may have widened it
    return ColumnVector(expr.dtype, _cast_array(a, expr.dtype),
                        a.nulls | equal)


def _substr(*args):
    text = str(args[0])
    start = int(args[1]) - 1
    if len(args) > 2:
        return text[start:start + int(args[2])]
    return text[start:]


def _year_fn(expr: RexCall, batch: VectorBatch,
             ctx: EvalContext) -> ColumnVector:
    return _extract(RexCall("EXTRACT_YEAR", expr.operands, INT),
                    batch, ctx)


def _month_fn(expr: RexCall, batch: VectorBatch,
              ctx: EvalContext) -> ColumnVector:
    return _extract(RexCall("EXTRACT_MONTH", expr.operands, INT),
                    batch, ctx)


def _day_fn(expr: RexCall, batch: VectorBatch,
            ctx: EvalContext) -> ColumnVector:
    return _extract(RexCall("EXTRACT_DAY", expr.operands, INT),
                    batch, ctx)


def _quarter_fn(expr: RexCall, batch: VectorBatch,
                ctx: EvalContext) -> ColumnVector:
    return _extract(RexCall("EXTRACT_QUARTER", expr.operands, INT),
                    batch, ctx)


_HANDLERS = {
    "+": _arith, "-": _arith, "*": _arith, "/": _arith, "%": _arith,
    "MOD": _arith,
    "NEGATE": _negate,
    "=": _compare, "<>": _compare, "<": _compare, "<=": _compare,
    ">": _compare, ">=": _compare,
    "AND": _and, "OR": _or, "NOT": _not,
    "IS_NULL": _is_null, "IS_NOT_NULL": _is_null,
    "IN": _in, "LIKE": _like,
    "CASE": _case, "CAST": _cast,
    "EXTRACT_YEAR": _extract, "EXTRACT_MONTH": _extract,
    "EXTRACT_DAY": _extract, "EXTRACT_QUARTER": _extract,
    "EXTRACT_WEEK": _extract, "EXTRACT_HOUR": _extract,
    "EXTRACT_MINUTE": _extract, "EXTRACT_SECOND": _extract,
    "DATE_ADD_DAYS": _date_add_days, "DATE_ADD_MONTHS": _date_add_months,
    "CONCAT": _concat, "COALESCE": _coalesce, "IF": _if,
    "NULLIF": _nullif,
    "YEAR": _year_fn, "MONTH": _month_fn, "DAY": _day_fn,
    "QUARTER": _quarter_fn,
    "UPPER": _rowwise(lambda s: str(s).upper()),
    "LOWER": _rowwise(lambda s: str(s).lower()),
    "LENGTH": _rowwise(lambda s: len(str(s))),
    "TRIM": _rowwise(lambda s: str(s).strip()),
    "SUBSTR": _rowwise(_substr),
    "SUBSTRING": _rowwise(_substr),
    "ABS": _rowwise(abs),
    "ROUND": _rowwise(lambda x, *d: round(float(x), int(d[0]) if d else 0)),
    "FLOOR": _rowwise(lambda x: int(np.floor(x))),
    "CEIL": _rowwise(lambda x: int(np.ceil(x))),
    "SQRT": _rowwise(lambda x: float(np.sqrt(x))),
    "LN": _rowwise(lambda x: float(np.log(x))),
    "EXP": _rowwise(lambda x: float(np.exp(x))),
    "POWER": _rowwise(lambda x, y: float(np.power(x, y))),
    "GREATEST": _rowwise(lambda *xs: max(xs)),
    "LEAST": _rowwise(lambda *xs: min(xs)),
    "HASH": _rowwise(lambda *xs: hash(xs) & 0x7FFFFFFFFFFFFFFF),
    "RAND": _rand,
    "CURRENT_DATE": _current_date,
    "CURRENT_TIMESTAMP": _current_timestamp,
}
