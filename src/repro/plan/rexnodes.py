"""Row expressions (Rex) — the typed expression language inside plans.

Mirrors Calcite's RexNode: after semantic analysis, every expression is
resolved to input ordinals and annotated with a type.  Rex trees are
immutable, hashable, and carry a stable ``digest`` used for plan
comparison (shared-work optimization, MV rewriting, result cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..common.types import BOOLEAN, DataType

#: operators whose result type is BOOLEAN regardless of operands
BOOLEAN_OPS = frozenset({
    "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "NOT", "IS_NULL",
    "IS_NOT_NULL", "LIKE", "NOT_LIKE", "IN", "NOT_IN", "BETWEEN",
    "NOT_BETWEEN",
})

#: operators that are commutative-associative for normalization purposes
_COMMUTATIVE = frozenset({"+", "*", "=", "<>", "AND", "OR"})


class RexNode:
    """Base class for row expressions."""

    dtype: DataType

    @property
    def digest(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def input_refs(self) -> set[int]:
        """Ordinals of all input columns referenced by this expression."""
        refs: set[int] = set()
        _collect_refs(self, refs)
        return refs

    def __repr__(self) -> str:
        return self.digest

    def __eq__(self, other) -> bool:
        return isinstance(other, RexNode) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)


@dataclass(frozen=True, eq=False)
class RexInputRef(RexNode):
    """Reference to the input row's column by ordinal."""

    index: int
    dtype: DataType

    @property
    def digest(self) -> str:
        return f"$" + str(self.index)


@dataclass(frozen=True, eq=False)
class RexLiteral(RexNode):
    """A constant value (already in Python-value form, not storage form)."""

    value: object
    dtype: DataType

    @property
    def digest(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, eq=False)
class RexCall(RexNode):
    """An operator or function application."""

    op: str
    operands: tuple[RexNode, ...]
    dtype: DataType

    @property
    def digest(self) -> str:
        inner = ", ".join(o.digest for o in self.operands)
        return f"{self.op}({inner})"


@dataclass(frozen=True)
class AggregateCall:
    """One aggregate in an Aggregate node.

    ``arg`` is the input ordinal (None for ``count(*)``); ``name`` is the
    output column name.
    """

    func: str               # sum, count, min, max, avg, count_distinct
    arg: Optional[int]
    dtype: DataType
    name: str
    distinct: bool = False

    @property
    def digest(self) -> str:
        arg = "*" if self.arg is None else f"${self.arg}"
        d = "DISTINCT " if self.distinct else ""
        return f"{self.func}({d}{arg})"


# --------------------------------------------------------------------------- #
# construction and manipulation helpers

def make_call(op: str, *operands: RexNode,
              dtype: Optional[DataType] = None) -> RexCall:
    """Build a call, defaulting boolean ops to BOOLEAN type."""
    if dtype is None:
        if op in BOOLEAN_OPS:
            dtype = BOOLEAN
        else:
            dtype = operands[0].dtype
    return RexCall(op, tuple(operands), dtype)


def conjunctions(expr: Optional[RexNode]) -> list[RexNode]:
    """Flatten an AND tree into its conjuncts (None → [])."""
    if expr is None:
        return []
    if isinstance(expr, RexCall) and expr.op == "AND":
        out: list[RexNode] = []
        for operand in expr.operands:
            out.extend(conjunctions(operand))
        return out
    return [expr]


def make_and(conjuncts: list[RexNode]) -> Optional[RexNode]:
    """Rebuild an AND tree (inverse of :func:`conjunctions`)."""
    conjuncts = [c for c in conjuncts if c is not None]
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = make_call("AND", result, conjunct)
    return result


def shift_refs(expr: RexNode, offset: int) -> RexNode:
    """Shift every input ordinal by ``offset`` (join-side remapping)."""
    return remap_refs(expr, lambda i: i + offset)


def remap_refs(expr: RexNode, mapping: Callable[[int], int]) -> RexNode:
    """Rewrite input ordinals via ``mapping``."""
    if isinstance(expr, RexInputRef):
        return RexInputRef(mapping(expr.index), expr.dtype)
    if isinstance(expr, RexCall):
        return RexCall(expr.op,
                       tuple(remap_refs(o, mapping) for o in expr.operands),
                       expr.dtype)
    return expr


def _collect_refs(expr: RexNode, refs: set[int]) -> None:
    if isinstance(expr, RexInputRef):
        refs.add(expr.index)
    elif isinstance(expr, RexCall):
        for operand in expr.operands:
            _collect_refs(operand, refs)


def type_errors(expr: RexNode, columns) -> list[str]:
    """Structural/type problems of ``expr`` against an input row type.

    ``columns`` is any ordered sequence of Column (a Schema works).  Used
    by the plan validator (repro.lint.plan_check): every input ref must
    land inside the row type with a matching declared type, and boolean
    operators must be typed BOOLEAN.
    """
    problems: list[str] = []
    width = len(columns)

    def visit(e: RexNode) -> None:
        if isinstance(e, RexInputRef):
            if not 0 <= e.index < width:
                problems.append(
                    f"input ref ${e.index} out of range "
                    f"(input width {width})")
            elif columns[e.index].dtype != e.dtype:
                problems.append(
                    f"input ref ${e.index} typed {e.dtype}, but input "
                    f"column {columns[e.index].name!r} is "
                    f"{columns[e.index].dtype}")
        elif isinstance(e, RexCall):
            if e.op in BOOLEAN_OPS and e.dtype != BOOLEAN:
                problems.append(
                    f"boolean operator {e.op} typed {e.dtype}")
            for operand in e.operands:
                visit(operand)

    visit(expr)
    return problems


def references_only(expr: RexNode, allowed: set[int]) -> bool:
    """True if the expression touches no ordinal outside ``allowed``."""
    return expr.input_refs() <= allowed


def split_equi_condition(condition: Optional[RexNode], left_width: int,
                         ) -> tuple[list[tuple[int, int]], list[RexNode]]:
    """Split a join condition into equi-key pairs and a residual.

    Returns ``(pairs, residual)`` where each pair is (left ordinal, right
    ordinal relative to the right input) for conjuncts of the form
    ``left_col = right_col``; everything else lands in ``residual``.
    """
    pairs: list[tuple[int, int]] = []
    residual: list[RexNode] = []
    for conjunct in conjunctions(condition):
        pair = _as_equi_pair(conjunct, left_width)
        if pair is not None:
            pairs.append(pair)
        else:
            residual.append(conjunct)
    return pairs, residual


def _as_equi_pair(expr: RexNode,
                  left_width: int) -> Optional[tuple[int, int]]:
    if not (isinstance(expr, RexCall) and expr.op == "="
            and len(expr.operands) == 2):
        return None
    a, b = expr.operands
    if not (isinstance(a, RexInputRef) and isinstance(b, RexInputRef)):
        return None
    if a.index < left_width <= b.index:
        return (a.index, b.index - left_width)
    if b.index < left_width <= a.index:
        return (b.index, a.index - left_width)
    return None
