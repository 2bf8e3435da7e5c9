"""Rex expression evaluation: lower a tree once, run it per batch.

This module owns *how a Rex expression is evaluated*.  A
:class:`~repro.plan.rexnodes.RexNode` is lowered **once** into a chain
of closures over numpy arrays — the "vectorized operators" half of
Hive's runtime improvements ([39], Section 5) — and the resulting
kernel ``fn(batch, ctx) -> ColumnVector`` is what operators, DML and
the optimizer's constant folding run:

* dispatch happens at *lowering* time — a kernel is a plain Python
  closure calling straight into numpy, no AST in sight;
* dtype decisions (comparison alignment, cast direction, branch
  coercions) are resolved from the static Rex types at lowering time;
* a literal-only, context-independent subtree is folded into a single
  broadcast by running its own freshly built kernel over one row;
* string functions and string casts are object-array ufuncs
  (``np.frompyfunc``) or direct array ops, not per-row Python;
* what cannot be lowered is an error *at lowering time*: an operator
  without a compiler, a non-literal ``IN`` list or ``LIKE`` pattern.

The per-row Python loops that remain are named as such:
:func:`_rowwise_kernel` (``HASH``, a ``SUBSTR`` whose bounds are
columns, a ``ROUND`` whose digits are a column) and the calendar
arithmetic of :func:`add_months_array`.

NULL semantics: three-valued logic for comparisons and AND/OR; nulls
propagate through arithmetic and functions; predicates treat NULL as
false at filter time.  Data under a null position is unspecified.

Determinism: expressions never read the wall clock or unseeded process
randomness.  ``CURRENT_DATE``/``CURRENT_TIMESTAMP`` resolve against the
:class:`EvalContext`'s *virtual* statement time (pinned once per
statement from the session clock) and ``RAND`` is a pure function of
(seed-or-query-id, absolute row index), so repeated runs — including
seeded fault replays — are bit-identical.

Kernels are memoized in a :class:`KernelCache` keyed by the
expression's *typed digest* (digest + input-ref types — two plans may
share a digest over differently-typed inputs).  The serving layer
hangs one cache off every compiled-plan-cache entry, so repeated
fingerprints pay lowering once.

The tree-walking interpreter this module displaced lives on as
``tests/expr_oracle.py``; tests/test_expr_compile.py pins every kernel
to it, values and null masks, over randomized batches.
"""

from __future__ import annotations

import datetime
import itertools
import operator as _op
import re
from dataclasses import dataclass

import numpy as np

from ..common import sync
from ..common.rows import Column, Schema
from ..common.types import (BOOLEAN, DATE, DOUBLE, INT, TIMESTAMP,
                            DataType)
from ..common.vector import ColumnVector, VectorBatch
from ..errors import ExecutionError
from ..plan.rexnodes import RexCall, RexInputRef, RexLiteral, RexNode

_EPOCH = datetime.date(1970, 1, 1)
_EPOCH_DT = datetime.datetime(1970, 1, 1)

#: operators whose value depends on the evaluation context rather than
#: the input batch alone — never constant-folded, here or by the
#: optimizer
CONTEXT_DEPENDENT_OPS = frozenset({
    "RAND", "CURRENT_DATE", "CURRENT_TIMESTAMP",
})


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


#: default LRU bound of a KernelCache (per plan-cache entry / per query)
DEFAULT_KERNEL_CACHE_CAPACITY = 256

_OBJECT = np.dtype(object)

# shared object-array ufuncs (allocated once, reused by every kernel)
_UF_STR = np.frompyfunc(str, 1, 1)
_UF_UPPER = np.frompyfunc(lambda s: str(s).upper(), 1, 1)
_UF_LOWER = np.frompyfunc(lambda s: str(s).lower(), 1, 1)
_UF_TRIM = np.frompyfunc(lambda s: str(s).strip(), 1, 1)
_UF_LEN = np.frompyfunc(lambda s: len(str(s)), 1, 1)


# --------------------------------------------------------------------------- #
# public entry points

def compile_expr(expr: RexNode):
    """Lower ``expr`` to a kernel: ``fn(batch, ctx) -> ColumnVector``."""
    return _compile(expr)


def compile_predicate(expr: RexNode):
    """Lower ``expr`` to a mask kernel: ``fn(batch, ctx) -> bool array``
    with NULL treated as false."""
    return _as_mask(_compile(expr))


def _as_mask(kernel):
    def mask_kernel(batch, ctx) -> np.ndarray:
        result = kernel(batch, ctx)
        mask = result.data.astype(bool, copy=True)
        mask[result.nulls] = False
        return mask
    return mask_kernel


def evaluate(expr: RexNode, batch: VectorBatch,
             ctx: EvalContext | None = None) -> ColumnVector:
    """Lower and run once — for callers with one batch per expression."""
    return compile_expr(expr)(batch, ctx or DEFAULT_CONTEXT)


def evaluate_predicate(expr: RexNode, batch: VectorBatch,
                       ctx: EvalContext | None = None) -> np.ndarray:
    """Lower and run once; boolean mask with NULL treated as false."""
    return compile_predicate(expr)(batch, ctx or DEFAULT_CONTEXT)


def typed_digest(expr: RexNode) -> str:
    """Cache key: the digest is blind to input-ref *types*, so fold
    them in — two plans over differently-typed inputs must not share a
    kernel."""
    refs: dict[int, str] = {}
    _collect_ref_types(expr, refs)
    sig = ",".join(f"${i}:{refs[i]}" for i in sorted(refs))
    return f"{expr.digest}|{sig}"


def _collect_ref_types(expr: RexNode, acc: dict) -> None:
    if isinstance(expr, RexInputRef):
        acc[expr.index] = str(expr.dtype)
    elif isinstance(expr, RexCall):
        for operand in expr.operands:
            _collect_ref_types(operand, acc)


class KernelCache:
    """Thread-safe LRU of compiled kernels, keyed by typed digest.

    One instance hangs off each compiled-plan-cache entry (so the
    serving layer amortizes compilation across repeated fingerprints)
    and the runtime creates an ephemeral one per ad-hoc query (so a
    multi-batch scan compiles each expression once, not per batch).
    """

    def __init__(self, capacity: int = DEFAULT_KERNEL_CACHE_CAPACITY):
        self.capacity = capacity
        self.compiled = 0
        self.hits = 0
        self._lock = sync.new_lock('KernelCache._lock')
        self._kernels: dict[str, object] = {}
        self._masks: dict[str, object] = {}
        self._ticks: dict[str, int] = {}
        self._clock = itertools.count(1)

    def kernel(self, expr: RexNode):
        return self._get(False, expr, compile_expr)

    def predicate(self, expr: RexNode):
        return self._get(True, expr, compile_predicate)

    def _get(self, as_mask: bool, expr: RexNode, compiler):
        key = typed_digest(expr)
        with self._lock:
            table = self._masks if as_mask else self._kernels
            fn = table.get(key)
            if fn is not None:
                self.hits += 1
                self._ticks[key] = next(self._clock)
                return fn
        # compile outside the lock — pure and idempotent, so a
        # concurrent duplicate compile is wasted work, never a race
        fn = compiler(expr)
        with self._lock:
            table = self._masks if as_mask else self._kernels
            table[key] = fn
            self._ticks[key] = next(self._clock)
            self.compiled += 1
            while (len(self._kernels) + len(self._masks)
                   > self.capacity):
                lru = min(self._ticks, key=self._ticks.get)
                self._kernels.pop(lru, None)
                self._masks.pop(lru, None)
                del self._ticks[lru]
        return fn

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels) + len(self._masks)


# --------------------------------------------------------------------------- #
# lowering core

#: the one-row input constant folding runs a literal-only kernel over
_ONE_ROW = VectorBatch.from_rows(Schema([Column("__d__", INT)]), [(0,)])


def _compile(expr: RexNode):
    if isinstance(expr, RexInputRef):
        index = expr.index

        def ref_kernel(batch, ctx):
            return batch.vectors[index]
        return ref_kernel

    if isinstance(expr, RexLiteral):
        return _literal_kernel(expr.value, expr.dtype)

    if not isinstance(expr, RexCall):
        raise ExecutionError(f"cannot evaluate {expr!r}")

    compiler = _COMPILERS.get(expr.op)
    if compiler is None:
        raise ExecutionError(f"no evaluator for operator {expr.op!r}")
    kernel = compiler(expr, [_compile(o) for o in expr.operands])
    return _try_fold(expr, kernel)


def _broadcast(value, dtype: DataType, n: int) -> ColumnVector:
    storage = dtype.to_storage(value)
    np_dtype = dtype.numpy_dtype
    if value is None:
        data = np.zeros(n, dtype=np_dtype)
        if np_dtype == _OBJECT:
            data[:] = ""
        return ColumnVector(dtype, data, np.ones(n, dtype=bool))
    if np_dtype == _OBJECT:
        data = np.empty(n, dtype=object)
        data[:] = storage
    else:
        data = np.full(n, storage, dtype=np_dtype)
    return ColumnVector(dtype, data, np.zeros(n, dtype=bool))


def _literal_kernel(value, dtype: DataType):
    def kernel(batch, ctx):
        return _broadcast(value, dtype, batch.num_rows)
    return kernel


def _has_context_op(expr: RexNode) -> bool:
    if isinstance(expr, RexCall):
        if expr.op in CONTEXT_DEPENDENT_OPS:
            return True
        return any(_has_context_op(o) for o in expr.operands)
    return False


def _try_fold(expr: RexCall, kernel):
    """Constant-fold a literal-only, context-independent subtree.

    Operands were lowered (and folded) first, so this runs bottom-up:
    the subtree's own kernel is evaluated over one row and replaced by
    a broadcast of that value.  Deeper than the optimizer's literal
    folding, which only folds single calls over literal operands.
    RAND/CURRENT_* never fold — their value belongs to the statement,
    not the plan.  A kernel that raises is left to raise at run time.
    """
    if expr.input_refs() or _has_context_op(expr):
        return kernel
    try:
        value = kernel(_ONE_ROW, DEFAULT_CONTEXT).value(0)
    except Exception:
        return kernel
    return _literal_kernel(value, expr.dtype)


def _rowwise_kernel(expr: RexCall, kids, fn):
    """A per-row Python loop: ``fn`` over the plain values of each row
    with no NULL argument.  Only for what has no array form."""
    def kernel(batch, ctx):
        args = [kid(batch, ctx) for kid in kids]
        n = batch.num_rows
        nulls = np.zeros(n, dtype=bool)
        for a in args:
            nulls |= a.nulls
        out = _broadcast(None, expr.dtype, n).data
        for i in np.flatnonzero(~nulls).tolist():
            out[i] = fn(*[a.data[i] for a in args])
        return ColumnVector(expr.dtype, out, nulls)
    return kernel


# --------------------------------------------------------------------------- #
# arithmetic / comparison / boolean

_ARITH_FNS = {"+": _op.add, "-": _op.sub, "*": _op.mul}


def _compile_arith(expr: RexCall, kids):
    op = expr.op
    out_dtype = expr.dtype.numpy_dtype
    a_k, b_k = kids
    if op in _ARITH_FNS:
        fn = _ARITH_FNS[op]

        def kernel(batch, ctx):
            left, right = a_k(batch, ctx), b_k(batch, ctx)
            with np.errstate(all="ignore"):
                data = fn(left.data, right.data)
            return ColumnVector(expr.dtype,
                                data.astype(out_dtype, copy=False),
                                left.nulls | right.nulls)
        return kernel
    if op == "/":
        def kernel(batch, ctx):
            left, right = a_k(batch, ctx), b_k(batch, ctx)
            a = left.data.astype(np.float64)
            b = right.data.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                data = np.divide(a, b)
            nulls = left.nulls | right.nulls | (b == 0)
            return ColumnVector(expr.dtype,
                                data.astype(out_dtype, copy=False),
                                nulls)
        return kernel
    # % / MOD — Java sign-of-dividend semantics (np.fmod)
    def kernel(batch, ctx):
        left, right = a_k(batch, ctx), b_k(batch, ctx)
        b = right.data
        safe_b = np.where(b == 0, 1, b)
        with np.errstate(all="ignore"):
            data = np.fmod(left.data, safe_b)
        nulls = left.nulls | right.nulls | (b == 0)
        return ColumnVector(expr.dtype,
                            data.astype(out_dtype, copy=False), nulls)
    return kernel


def _compile_negate(expr: RexCall, kids):
    a_k, = kids

    def kernel(batch, ctx):
        operand = a_k(batch, ctx)
        return ColumnVector(expr.dtype, -operand.data,
                            operand.nulls.copy())
    return kernel


_COMPARE_FNS = {"=": _op.eq, "<>": _op.ne, "<": _op.lt, "<=": _op.le,
                ">": _op.gt, ">=": _op.ge}


def _compile_compare(expr: RexCall, kids):
    fn = _COMPARE_FNS[expr.op]
    a_k, b_k = kids
    lt = expr.operands[0].dtype.numpy_dtype
    rt = expr.operands[1].dtype.numpy_dtype
    # alignment decided at compile time from the static types
    if lt == _OBJECT or rt == _OBJECT:
        def align(a, b):
            return a.astype(object), b.astype(object)
    elif lt != rt:
        common = np.result_type(lt, rt)

        def align(a, b):
            return a.astype(common), b.astype(common)
    else:
        def align(a, b):
            return a, b

    def kernel(batch, ctx):
        left, right = a_k(batch, ctx), b_k(batch, ctx)
        a, b = align(left.data, right.data)
        data = fn(a, b)
        return ColumnVector(BOOLEAN, np.asarray(data, dtype=bool),
                            left.nulls | right.nulls)
    return kernel


def _compile_and(expr: RexCall, kids):
    a_k, b_k = kids

    def kernel(batch, ctx):
        left, right = a_k(batch, ctx), b_k(batch, ctx)
        lv = left.data.astype(bool) & ~left.nulls
        rv = right.data.astype(bool) & ~right.nulls
        lf = ~left.data.astype(bool) & ~left.nulls
        rf = ~right.data.astype(bool) & ~right.nulls
        data = lv & rv
        return ColumnVector(BOOLEAN, data, ~(data | lf | rf))
    return kernel


def _compile_or(expr: RexCall, kids):
    a_k, b_k = kids

    def kernel(batch, ctx):
        left, right = a_k(batch, ctx), b_k(batch, ctx)
        lv = left.data.astype(bool) & ~left.nulls
        rv = right.data.astype(bool) & ~right.nulls
        data = lv | rv
        return ColumnVector(BOOLEAN, data,
                            ~data & (left.nulls | right.nulls))
    return kernel


def _compile_not(expr: RexCall, kids):
    a_k, = kids

    def kernel(batch, ctx):
        operand = a_k(batch, ctx)
        return ColumnVector(BOOLEAN, ~operand.data.astype(bool),
                            operand.nulls.copy())
    return kernel


def _compile_is_null(expr: RexCall, kids):
    a_k, = kids
    negate = expr.op == "IS_NOT_NULL"

    def kernel(batch, ctx):
        operand = a_k(batch, ctx)
        data = ~operand.nulls if negate else operand.nulls.copy()
        return ColumnVector(BOOLEAN, data,
                            np.zeros(len(operand), dtype=bool))
    return kernel


# --------------------------------------------------------------------------- #
# membership / pattern

def _compile_in(expr: RexCall, kids):
    operand_dtype = expr.operands[0].dtype
    values = []
    for v in expr.operands[1:]:
        if not isinstance(v, RexLiteral):
            raise ExecutionError("IN list values must be literals")
        values.append(operand_dtype.to_storage(v.value))
    a_k = kids[0]
    if operand_dtype.numpy_dtype == _OBJECT:
        value_set = set(values)

        def kernel(batch, ctx):
            operand = a_k(batch, ctx)
            data = np.fromiter(
                (x in value_set for x in operand.data),
                dtype=bool, count=len(operand))
            return ColumnVector(BOOLEAN, data, operand.nulls.copy())
        return kernel
    value_array = np.array(values)

    def kernel(batch, ctx):
        operand = a_k(batch, ctx)
        data = np.isin(operand.data, value_array)
        return ColumnVector(BOOLEAN, data, operand.nulls.copy())
    return kernel


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


def _compile_like(expr: RexCall, kids):
    pattern = expr.operands[1]
    if not isinstance(pattern, RexLiteral):
        raise ExecutionError("LIKE pattern must be a literal")
    regex = _like_to_regex(str(pattern.value))
    matcher = np.frompyfunc(lambda x: bool(regex.match(str(x))), 1, 1)
    a_k = kids[0]

    def kernel(batch, ctx):
        operand = a_k(batch, ctx)
        data = matcher(operand.data).astype(bool)
        return ColumnVector(BOOLEAN, data, operand.nulls.copy())
    return kernel


# --------------------------------------------------------------------------- #
# conditionals — branch coercion plans are chosen at compile time

def _cast_plan(src: DataType, target: DataType):
    """Compile-time ``_cast_array``: vector -> data array of target's
    numpy representation."""
    if src.numpy_dtype == target.numpy_dtype:
        return lambda v: v.data
    if target.numpy_dtype == _OBJECT:
        return lambda v: _UF_STR(v.data)
    np_target = target.numpy_dtype
    return lambda v: v.data.astype(np_target)


def _compile_case(expr: RexCall, kids):
    target = expr.dtype
    operands = expr.operands
    pairs, default = operands[:-1], operands[-1]
    branches = []         # (mask kernel, value kernel, cast plan)
    for i in range(0, len(pairs), 2):
        branches.append((_as_mask(kids[i]), kids[i + 1],
                         _cast_plan(pairs[i + 1].dtype, target)))
    default_kernel = kids[-1]
    default_plan = _cast_plan(default.dtype, target)

    def kernel(batch, ctx):
        n = batch.num_rows
        data = _broadcast(None, target, n).data
        nulls = np.ones(n, dtype=bool)
        decided = np.zeros(n, dtype=bool)
        for mask_k, value_k, plan in branches:
            cond = mask_k(batch, ctx)
            take = cond & ~decided
            if take.any():
                value = value_k(batch, ctx)
                value_data = plan(value)
                data[take] = value_data[take]
                nulls[take] = value.nulls[take]
            decided |= cond
        rest = ~decided
        if rest.any():
            value = default_kernel(batch, ctx)
            value_data = default_plan(value)
            data[rest] = value_data[rest]
            nulls[rest] = value.nulls[rest]
        return ColumnVector(target, data, nulls)
    return kernel


def _compile_if(expr: RexCall, kids):
    target = expr.dtype
    cond_k = _as_mask(kids[0])
    then_k, else_k = kids[1], kids[2]
    then_plan = _cast_plan(expr.operands[1].dtype, target)
    else_plan = _cast_plan(expr.operands[2].dtype, target)

    def kernel(batch, ctx):
        cond = cond_k(batch, ctx)
        then_v = then_k(batch, ctx)
        else_v = else_k(batch, ctx)
        data = np.where(cond, then_plan(then_v), else_plan(else_v))
        nulls = np.where(cond, then_v.nulls, else_v.nulls)
        return ColumnVector(target, data, nulls)
    return kernel


def _compile_coalesce(expr: RexCall, kids):
    target = expr.dtype
    plans = [_cast_plan(o.dtype, target) for o in expr.operands]

    def kernel(batch, ctx):
        n = batch.num_rows
        out = _broadcast(None, target, n).data
        nulls = np.ones(n, dtype=bool)
        for kid, plan in zip(kids, plans):
            arg = kid(batch, ctx)
            take = nulls & ~arg.nulls
            if take.any():
                out[take] = plan(arg)[take]
                nulls[take] = False
        return ColumnVector(target, out, nulls)
    return kernel


def _compile_nullif(expr: RexCall, kids):
    a_k, b_k = kids
    plan = _cast_plan(expr.operands[0].dtype, expr.dtype)

    def kernel(batch, ctx):
        a, b = a_k(batch, ctx), b_k(batch, ctx)
        equal = (a.data == b.data) & ~a.nulls & ~b.nulls
        return ColumnVector(expr.dtype, plan(a), a.nulls | equal)
    return kernel


# --------------------------------------------------------------------------- #
# cast — direction resolved at compile time, string paths vectorized

def _compile_cast(expr: RexCall, kids):
    src = expr.operands[0].dtype
    target = expr.dtype
    a_k, = kids
    src_family = src._family()
    dst_family = target._family()
    if src_family == dst_family:
        def kernel(batch, ctx):
            operand = a_k(batch, ctx)
            return ColumnVector(target, operand.data,
                                operand.nulls.copy())
        return kernel
    if dst_family == "STRING":
        from_storage = src.from_storage

        def render(v):
            # garbage under null positions may not decode (e.g. a wild
            # TIMESTAMP millis value); those slots are overwritten below
            try:
                return str(from_storage(v))
            except (ValueError, OverflowError, OSError):
                return ""
        to_str = np.frompyfunc(render, 1, 1)

        def kernel(batch, ctx):
            operand = a_k(batch, ctx)
            nulls = operand.nulls.copy()
            out = to_str(operand.data)
            out[nulls] = ""
            return ColumnVector(target, out, nulls)
        return kernel
    if src_family == "STRING":
        to_storage = target.to_storage

        def convert(v):
            try:
                return to_storage(v)
            except (ValueError, TypeError):
                return None
        conv = np.frompyfunc(convert, 1, 1)
        is_none = np.frompyfunc(lambda x: x is None, 1, 1)
        np_target = target.numpy_dtype

        def kernel(batch, ctx):
            operand = a_k(batch, ctx)
            raw = conv(operand.data)
            failed = is_none(raw).astype(bool)
            raw[failed] = 0
            return ColumnVector(target, raw.astype(np_target),
                                operand.nulls | failed)
        return kernel
    np_target = target.numpy_dtype

    def kernel(batch, ctx):
        operand = a_k(batch, ctx)
        return ColumnVector(target, operand.data.astype(np_target),
                            operand.nulls.copy())
    return kernel


# --------------------------------------------------------------------------- #
# temporal

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


def _compile_extract(unit: str):
    def compiler(expr: RexCall, kids):
        a_k, = kids

        def kernel(batch, ctx):
            operand = a_k(batch, ctx)
            return ColumnVector(INT, extract_unit(unit, operand),
                                operand.nulls.copy())
        return kernel
    return compiler


def _compile_date_add_days(expr: RexCall, kids):
    a_k, b_k = kids

    def kernel(batch, ctx):
        operand, amount = a_k(batch, ctx), b_k(batch, ctx)
        data = operand.data + amount.data.astype(operand.data.dtype)
        return ColumnVector(operand.dtype, data,
                            operand.nulls | amount.nulls)
    return kernel


def add_months_array(operand: ColumnVector,
                     amount: ColumnVector) -> np.ndarray:
    """DATE_ADD_MONTHS payload: a per-row loop over Python dates (the
    day clamps to the target month's length)."""
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


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (datetime.date(year, month + 1, 1)
            - datetime.date(year, month, 1)).days


def _compile_date_add_months(expr: RexCall, kids):
    a_k, b_k = kids

    def kernel(batch, ctx):
        operand, amount = a_k(batch, ctx), b_k(batch, ctx)
        return ColumnVector(operand.dtype,
                            add_months_array(operand, amount),
                            operand.nulls | amount.nulls)
    return kernel


# --------------------------------------------------------------------------- #
# context-dependent

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


def _compile_rand(expr: RexCall, kids):
    def kernel(batch, ctx):
        data = rand_vector(batch.num_rows, rand_base(expr, ctx),
                           ctx.row_offset)
        return ColumnVector(DOUBLE, data,
                            np.zeros(batch.num_rows, dtype=bool))
    return kernel


def _compile_current_date(expr: RexCall, kids):
    def kernel(batch, ctx):
        return _broadcast(ctx.statement_date(), DATE, batch.num_rows)
    return kernel


def _compile_current_timestamp(expr: RexCall, kids):
    def kernel(batch, ctx):
        return _broadcast(ctx.statement_timestamp(), TIMESTAMP,
                          batch.num_rows)
    return kernel


# --------------------------------------------------------------------------- #
# string / scalar functions

def _compile_string_ufunc(ufunc):
    def compiler(expr: RexCall, kids):
        a_k, = kids

        def kernel(batch, ctx):
            operand = a_k(batch, ctx)
            nulls = operand.nulls.copy()
            out = ufunc(operand.data)
            out[nulls] = ""
            return ColumnVector(expr.dtype, out, nulls)
        return kernel
    return compiler


def _compile_length(expr: RexCall, kids):
    a_k, = kids
    np_dtype = expr.dtype.numpy_dtype

    def kernel(batch, ctx):
        operand = a_k(batch, ctx)
        out = _UF_LEN(operand.data).astype(np_dtype)
        out[operand.nulls] = 0
        return ColumnVector(expr.dtype, out, operand.nulls.copy())
    return kernel


def _all_fixed(operands) -> bool:
    """Every operand is a non-NULL literal, so its value can be baked
    into the kernel."""
    return all(isinstance(o, RexLiteral) and o.value is not None
               for o in operands)


def _substr(text, start, length=None) -> str:
    start = int(start) - 1
    stop = None if length is None else start + int(length)
    return str(text)[start:stop]


def _compile_substr(expr: RexCall, kids):
    bounds = expr.operands[1:]
    if not _all_fixed(bounds):
        return _rowwise_kernel(expr, kids, _substr)
    start = int(bounds[0].value) - 1
    stop = start + int(bounds[1].value) if len(bounds) > 1 else None
    slicer = np.frompyfunc(lambda s: str(s)[start:stop], 1, 1)
    return _compile_string_ufunc(slicer)(expr, kids[:1])


def _compile_concat(expr: RexCall, kids):
    # per-argument string conversion chosen at compile time: STRING
    # operands pass through, everything else goes through str() once
    converters = [(lambda v: v.data)
                  if o.dtype.numpy_dtype == _OBJECT
                  else (lambda v: _UF_STR(v.data))
                  for o in expr.operands]

    def kernel(batch, ctx):
        args = [kid(batch, ctx) for kid in kids]
        nulls = args[0].nulls.copy()
        for a in args[1:]:
            nulls |= a.nulls
        pieces = [conv(a) for conv, a in zip(converters, args)]
        out = pieces[0].astype(object, copy=True)
        for piece in pieces[1:]:
            out = out + piece          # elementwise str concat
        out[nulls] = ""
        return ColumnVector(expr.dtype, out, nulls)
    return kernel


def _compile_unary_math(np_fn, as_float: bool):
    def compiler(expr: RexCall, kids):
        a_k, = kids
        out_dtype = expr.dtype.numpy_dtype

        def kernel(batch, ctx):
            operand = a_k(batch, ctx)
            data = operand.data
            if as_float:
                data = data.astype(np.float64)
            with np.errstate(all="ignore"):
                data = np_fn(data)
            return ColumnVector(expr.dtype,
                                data.astype(out_dtype, copy=False),
                                operand.nulls.copy())
        return kernel
    return compiler


def _compile_power(expr: RexCall, kids):
    # numpy's *scalar* power path and its array ufunc round the last
    # bit differently for some inputs (3.85**2 → ...02 vs ...00); the
    # pinned semantics are the scalar computation, batched through
    # frompyfunc
    a_k, b_k = kids
    out_dtype = expr.dtype.numpy_dtype
    pow_uf = np.frompyfunc(
        lambda x, y: float(np.power(x, y)), 2, 1)

    def kernel(batch, ctx):
        a = a_k(batch, ctx)
        b = b_k(batch, ctx)
        with np.errstate(all="ignore"):
            data = pow_uf(a.data, b.data).astype(out_dtype)
        return ColumnVector(expr.dtype, data, a.nulls | b.nulls)
    return kernel


def _compile_round(expr: RexCall, kids):
    # python round() is decimal-correct where np.round's
    # scale-round-unscale can be off by one ulp for decimals > 0 —
    # keep the exact semantics, fused into one ufunc pass
    digits = expr.operands[1:]
    if not _all_fixed(digits):
        return _rowwise_kernel(
            expr, kids, lambda x, d: round(float(x), int(d)))
    decimals = int(digits[0].value) if digits else 0
    rounder = np.frompyfunc(lambda x: round(float(x), decimals), 1, 1)
    a_k = kids[0]
    out_dtype = expr.dtype.numpy_dtype

    def kernel(batch, ctx):
        operand = a_k(batch, ctx)
        data = rounder(operand.data).astype(out_dtype)
        return ColumnVector(expr.dtype, data, operand.nulls.copy())
    return kernel


def _compile_hash(expr: RexCall, kids):
    # python hash() of a tuple of scalars has no array form
    return _rowwise_kernel(
        expr, kids, lambda *xs: hash(xs) & 0x7FFFFFFFFFFFFFFF)


def _compile_minmax(reduce_fn):
    def compiler(expr: RexCall, kids):
        out_np = expr.dtype.numpy_dtype
        is_object = out_np == _OBJECT

        def kernel(batch, ctx):
            args = [kid(batch, ctx) for kid in kids]
            nulls = args[0].nulls.copy()
            for a in args[1:]:
                nulls |= a.nulls
            with np.errstate(all="ignore"):
                data = reduce_fn([a.data for a in args])
            if is_object:
                data = data.astype(object, copy=True)
                data[nulls] = ""
            else:
                data = data.astype(out_np, copy=False)
            return ColumnVector(expr.dtype, data, nulls)
        return kernel
    return compiler


_COMPILERS = {
    "+": _compile_arith, "-": _compile_arith, "*": _compile_arith,
    "/": _compile_arith, "%": _compile_arith, "MOD": _compile_arith,
    "NEGATE": _compile_negate,
    "=": _compile_compare, "<>": _compile_compare,
    "<": _compile_compare, "<=": _compile_compare,
    ">": _compile_compare, ">=": _compile_compare,
    "AND": _compile_and, "OR": _compile_or, "NOT": _compile_not,
    "IS_NULL": _compile_is_null, "IS_NOT_NULL": _compile_is_null,
    "IN": _compile_in, "LIKE": _compile_like,
    "CASE": _compile_case, "CAST": _compile_cast,
    **{f"EXTRACT_{unit}": _compile_extract(unit)
       for unit in ("YEAR", "MONTH", "DAY", "QUARTER", "WEEK", "HOUR",
                    "MINUTE", "SECOND")},
    **{unit: _compile_extract(unit)
       for unit in ("YEAR", "MONTH", "DAY", "QUARTER")},
    "DATE_ADD_DAYS": _compile_date_add_days,
    "DATE_ADD_MONTHS": _compile_date_add_months,
    "CONCAT": _compile_concat, "COALESCE": _compile_coalesce,
    "IF": _compile_if, "NULLIF": _compile_nullif,
    "UPPER": _compile_string_ufunc(_UF_UPPER),
    "LOWER": _compile_string_ufunc(_UF_LOWER),
    "TRIM": _compile_string_ufunc(_UF_TRIM),
    "LENGTH": _compile_length,
    "SUBSTR": _compile_substr, "SUBSTRING": _compile_substr,
    "ABS": _compile_unary_math(np.abs, as_float=False),
    "FLOOR": _compile_unary_math(np.floor, as_float=False),
    "CEIL": _compile_unary_math(np.ceil, as_float=False),
    "SQRT": _compile_unary_math(np.sqrt, as_float=True),
    "LN": _compile_unary_math(np.log, as_float=True),
    "EXP": _compile_unary_math(np.exp, as_float=True),
    "POWER": _compile_power,
    "ROUND": _compile_round,
    "HASH": _compile_hash,
    "GREATEST": _compile_minmax(np.maximum.reduce),
    "LEAST": _compile_minmax(np.minimum.reduce),
    "RAND": _compile_rand,
    "CURRENT_DATE": _compile_current_date,
    "CURRENT_TIMESTAMP": _compile_current_timestamp,
}
