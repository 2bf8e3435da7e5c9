"""Function registry: names, arities and result-type inference.

Evaluation lives in :mod:`repro.exec.compile`; this module is the
shared metadata the analyzer uses for type checking.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..common.types import (BIGINT, BOOLEAN, DOUBLE, DATE, INT, STRING,
                            TIMESTAMP, DataType, common_type)
from ..errors import AnalysisError

#: aggregate function names (lower case)
AGGREGATE_FUNCTIONS = frozenset({
    "sum", "count", "min", "max", "avg", "stddev", "variance",
})

#: window-capable ranking functions
RANKING_FUNCTIONS = frozenset({"rank", "dense_rank", "row_number", "ntile"})


def aggregate_result_type(func: str, arg_type: DataType | None) -> DataType:
    if func == "count":
        return BIGINT
    if func in ("avg", "stddev", "variance"):
        return DOUBLE
    if func in ("sum",):
        if arg_type is None:
            raise AnalysisError("sum requires an argument")
        return BIGINT if arg_type.is_integral else DOUBLE
    if func in ("min", "max"):
        if arg_type is None:
            raise AnalysisError(f"{func} requires an argument")
        return arg_type
    raise AnalysisError(f"unknown aggregate function: {func}")


def _same_as_first(args: Sequence[DataType]) -> DataType:
    return args[0]


def _common(args: Sequence[DataType]) -> DataType:
    result = args[0]
    for arg in args[1:]:
        result = common_type(result, arg)
    return result


def _fixed(dtype: DataType) -> Callable[[Sequence[DataType]], DataType]:
    return lambda args: dtype


#: scalar functions: name -> (min_args, max_args, result_type_fn)
SCALAR_FUNCTIONS: dict[str, tuple[int, int, Callable]] = {
    "abs": (1, 1, _same_as_first),
    "round": (1, 2, _same_as_first),
    "floor": (1, 1, _fixed(BIGINT)),
    "ceil": (1, 1, _fixed(BIGINT)),
    "sqrt": (1, 1, _fixed(DOUBLE)),
    "ln": (1, 1, _fixed(DOUBLE)),
    "exp": (1, 1, _fixed(DOUBLE)),
    "power": (2, 2, _fixed(DOUBLE)),
    "mod": (2, 2, _same_as_first),
    "upper": (1, 1, _fixed(STRING)),
    "lower": (1, 1, _fixed(STRING)),
    "length": (1, 1, _fixed(INT)),
    "trim": (1, 1, _fixed(STRING)),
    "substr": (2, 3, _fixed(STRING)),
    "substring": (2, 3, _fixed(STRING)),
    "concat": (1, 99, _fixed(STRING)),
    "coalesce": (1, 99, _common),
    "nullif": (2, 2, _same_as_first),
    "if": (3, 3, lambda args: _common(args[1:])),
    "year": (1, 1, _fixed(INT)),
    "month": (1, 1, _fixed(INT)),
    "day": (1, 1, _fixed(INT)),
    "quarter": (1, 1, _fixed(INT)),
    "date_add": (2, 2, _fixed(DATE)),
    "date_sub": (2, 2, _fixed(DATE)),
    "to_date": (1, 1, _fixed(DATE)),
    "greatest": (1, 99, _common),
    "least": (1, 99, _common),
    "hash": (1, 99, _fixed(BIGINT)),
    # non-deterministic / runtime-constant functions: results may not be
    # cached (Section 4.3)
    "rand": (0, 1, _fixed(DOUBLE)),
    "current_date": (0, 0, _fixed(DATE)),
    "current_timestamp": (0, 0, _fixed(TIMESTAMP)),
}

#: functions whose results may differ between executions — a query that
#: calls any of these is not eligible for the result cache.
NON_CACHEABLE_FUNCTIONS = frozenset({
    "rand", "current_date", "current_timestamp",
})


def scalar_result_type(name: str, arg_types: Sequence[DataType]) -> DataType:
    try:
        min_args, max_args, type_fn = SCALAR_FUNCTIONS[name]
    except KeyError:
        raise AnalysisError(f"unknown function: {name}") from None
    if not min_args <= len(arg_types) <= max_args:
        raise AnalysisError(
            f"{name} expects {min_args}..{max_args} arguments, "
            f"got {len(arg_types)}")
    return type_fn(arg_types)
