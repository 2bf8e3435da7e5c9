"""Logical relational operators (RelNodes).

The analyzer produces these from the AST; the optimizer transforms them;
the physical planner lowers them to a Tez-style DAG.  Nodes are immutable
(transformations build new trees) and each carries its output
:class:`~repro.common.rows.Schema` plus a recursive ``digest`` that the
shared-work optimizer and result cache use for equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..common.rows import Column, Schema
from ..common.types import BIGINT, DOUBLE, DataType
from ..errors import AnalysisError
from .rexnodes import AggregateCall, RexNode

# type returned by count(*) / count(x)
COUNT_TYPE = BIGINT


class RelNode:
    """Base class.  Subclasses are dataclasses with an ``inputs`` view."""

    schema: Schema

    @property
    def inputs(self) -> tuple["RelNode", ...]:
        return ()

    def with_inputs(self, inputs: Sequence["RelNode"]) -> "RelNode":
        """Copy of this node with replaced inputs (arity must match)."""
        raise NotImplementedError

    @property
    def digest(self) -> str:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Multi-line plan rendering (EXPLAIN output)."""
        line = "  " * indent + self._explain_label()
        lines = [line]
        for child in self.inputs:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _explain_label(self) -> str:
        return self.digest

    def __eq__(self, other) -> bool:
        return isinstance(other, RelNode) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return self._explain_label()


# --------------------------------------------------------------------------- #
# leaves

@dataclass(frozen=True, eq=False)
class TableScan(RelNode):
    """Scan of a catalog table (native or federated).

    Optimizer passes may attach:

    * ``pruned_partitions`` — static partition pruning result (None = all),
    * ``sarg_conjuncts`` — pushed-down sargable predicates (Rex, over this
      scan's schema) evaluated by the file reader,
    * ``semijoin_sources`` — ids of dynamic semijoin reducers feeding this
      scan at runtime (Section 4.6),
    * ``pushed_query`` — an engine-specific query for federated scans
      (Section 6.2); when set the external engine computes it.
    """

    table_name: str                      # qualified db.table
    schema: Schema
    pruned_partitions: Optional[tuple[tuple, ...]] = None
    sarg_conjuncts: tuple[RexNode, ...] = ()
    semijoin_sources: tuple[str, ...] = ()
    pushed_query: Optional[object] = None
    scan_id: int = 0                     # disambiguates self-joins

    @property
    def digest(self) -> str:
        # NOTE: scan_id is deliberately NOT part of the digest — two scans
        # of the same table with the same pushed state read the same data,
        # which is exactly what the shared-work optimizer merges
        # (Section 4.5).  scan_id only addresses scans for semijoin
        # reducer attachment.
        extras = []
        if self.pruned_partitions is not None:
            extras.append(f"parts={len(self.pruned_partitions)}")
        if self.sarg_conjuncts:
            extras.append(
                "sargs=[" + ",".join(s.digest for s in self.sarg_conjuncts)
                + "]")
        if self.semijoin_sources:
            extras.append(f"sj={list(self.semijoin_sources)}")
        if self.pushed_query is not None:
            extras.append(f"pushed={self.pushed_query!r}")
        columns = ",".join(c.name for c in self.schema)
        suffix = (" " + " ".join(extras)) if extras else ""
        return f"TableScan({self.table_name}[{columns}]{suffix})"

    def with_inputs(self, inputs):
        if inputs:
            raise AnalysisError("TableScan takes no inputs")
        return self


@dataclass(frozen=True, eq=False)
class Values(RelNode):
    """Inline constant relation (INSERT ... VALUES, empty results)."""

    schema: Schema
    rows: tuple[tuple, ...]

    @property
    def digest(self) -> str:
        return f"Values({len(self.rows)} rows)"

    def with_inputs(self, inputs):
        if inputs:
            raise AnalysisError("Values takes no inputs")
        return self


# --------------------------------------------------------------------------- #
# unary operators

@dataclass(frozen=True, eq=False)
class Filter(RelNode):
    input: RelNode
    condition: RexNode

    @property
    def schema(self) -> Schema:
        return self.input.schema

    @property
    def inputs(self):
        return (self.input,)

    def with_inputs(self, inputs):
        (child,) = inputs
        return Filter(child, self.condition)

    @property
    def digest(self) -> str:
        return f"Filter({self.condition.digest})\n{self.input.digest}"

    def _explain_label(self) -> str:
        return f"Filter(condition={self.condition.digest})"


@dataclass(frozen=True, eq=False)
class Project(RelNode):
    input: RelNode
    exprs: tuple[RexNode, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.exprs) != len(self.names):
            raise AnalysisError("Project exprs/names length mismatch")

    @property
    def schema(self) -> Schema:
        return Schema(Column(name, expr.dtype)
                      for name, expr in zip(self.names, self.exprs))

    @property
    def inputs(self):
        return (self.input,)

    def with_inputs(self, inputs):
        (child,) = inputs
        return Project(child, self.exprs, self.names)

    @property
    def digest(self) -> str:
        cols = ", ".join(f"{e.digest} AS {n}"
                         for e, n in zip(self.exprs, self.names))
        return f"Project({cols})\n{self.input.digest}"

    def _explain_label(self) -> str:
        cols = ", ".join(f"{e.digest} AS {n}"
                         for e, n in zip(self.exprs, self.names))
        return f"Project({cols})"

    def is_identity(self) -> bool:
        from .rexnodes import RexInputRef
        if len(self.exprs) != len(self.input.schema):
            return False
        return all(isinstance(e, RexInputRef) and e.index == i
                   and n == self.input.schema[i].name
                   for i, (e, n) in enumerate(zip(self.exprs, self.names)))


@dataclass(frozen=True, eq=False)
class Aggregate(RelNode):
    """Group-by + aggregates.

    ``group_keys`` are input ordinals; output schema is group keys (in
    order) followed by one column per aggregate call.  With
    ``grouping_sets`` the output gains a trailing BIGINT ``grouping_id``
    and non-grouped keys are NULL per set (Section 3.1, OLAP operations).
    """

    input: RelNode
    group_keys: tuple[int, ...]
    agg_calls: tuple[AggregateCall, ...]
    group_names: tuple[str, ...] = ()
    grouping_sets: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def schema(self) -> Schema:
        columns = []
        in_schema = self.input.schema
        names = self.group_names or tuple(
            in_schema[k].name for k in self.group_keys)
        for key, name in zip(self.group_keys, names):
            columns.append(Column(name, in_schema[key].dtype))
        for call in self.agg_calls:
            columns.append(Column(call.name, call.dtype))
        if self.grouping_sets is not None:
            columns.append(Column("grouping_id", BIGINT, nullable=False))
        return Schema(columns)

    @property
    def inputs(self):
        return (self.input,)

    def with_inputs(self, inputs):
        (child,) = inputs
        return Aggregate(child, self.group_keys, self.agg_calls,
                         self.group_names, self.grouping_sets)

    @property
    def digest(self) -> str:
        keys = ",".join(f"${k}" for k in self.group_keys)
        aggs = ",".join(c.digest for c in self.agg_calls)
        gs = ""
        if self.grouping_sets is not None:
            gs = " sets=" + repr(self.grouping_sets)
        return f"Aggregate(keys=[{keys}] aggs=[{aggs}]{gs})\n{self.input.digest}"

    def _explain_label(self) -> str:
        keys = ",".join(f"${k}" for k in self.group_keys)
        aggs = ",".join(c.digest for c in self.agg_calls)
        return f"Aggregate(group=[{keys}], aggs=[{aggs}])"


@dataclass(frozen=True)
class SortKey:
    index: int
    ascending: bool = True

    @property
    def digest(self) -> str:
        return f"${self.index}{'' if self.ascending else ' DESC'}"


@dataclass(frozen=True, eq=False)
class Sort(RelNode):
    """Total order; with ``fetch`` set it becomes TopN."""

    input: RelNode
    keys: tuple[SortKey, ...]
    fetch: Optional[int] = None

    @property
    def schema(self) -> Schema:
        return self.input.schema

    @property
    def inputs(self):
        return (self.input,)

    def with_inputs(self, inputs):
        (child,) = inputs
        return Sort(child, self.keys, self.fetch)

    @property
    def digest(self) -> str:
        keys = ",".join(k.digest for k in self.keys)
        fetch = f" fetch={self.fetch}" if self.fetch is not None else ""
        return f"Sort(keys=[{keys}]{fetch})\n{self.input.digest}"

    def _explain_label(self) -> str:
        keys = ",".join(k.digest for k in self.keys)
        fetch = f", fetch={self.fetch}" if self.fetch is not None else ""
        return f"Sort(keys=[{keys}]{fetch})"


@dataclass(frozen=True, eq=False)
class Limit(RelNode):
    input: RelNode
    count: int

    @property
    def schema(self) -> Schema:
        return self.input.schema

    @property
    def inputs(self):
        return (self.input,)

    def with_inputs(self, inputs):
        (child,) = inputs
        return Limit(child, self.count)

    @property
    def digest(self) -> str:
        return f"Limit({self.count})\n{self.input.digest}"

    def _explain_label(self) -> str:
        return f"Limit({self.count})"


@dataclass(frozen=True)
class WindowCall:
    """One windowed function: rank/row_number/sum/min/max/count/avg."""

    func: str
    arg: Optional[int]
    partition_keys: tuple[int, ...]
    order_keys: tuple[SortKey, ...]
    dtype: DataType
    name: str

    @property
    def digest(self) -> str:
        arg = "" if self.arg is None else f"${self.arg}"
        part = ",".join(f"${k}" for k in self.partition_keys)
        order = ",".join(k.digest for k in self.order_keys)
        return f"{self.func}({arg}) OVER(p=[{part}] o=[{order}])"


@dataclass(frozen=True, eq=False)
class Window(RelNode):
    """Appends window-function columns to the input schema."""

    input: RelNode
    calls: tuple[WindowCall, ...]

    @property
    def schema(self) -> Schema:
        columns = list(self.input.schema.columns)
        columns.extend(Column(c.name, c.dtype) for c in self.calls)
        return Schema(columns)

    @property
    def inputs(self):
        return (self.input,)

    def with_inputs(self, inputs):
        (child,) = inputs
        return Window(child, self.calls)

    @property
    def digest(self) -> str:
        calls = ",".join(c.digest for c in self.calls)
        return f"Window({calls})\n{self.input.digest}"

    def _explain_label(self) -> str:
        return f"Window({','.join(c.digest for c in self.calls)})"


# --------------------------------------------------------------------------- #
# binary / n-ary operators

@dataclass(frozen=True, eq=False)
class Join(RelNode):
    """``kind`` in inner/left/right/full/semi/anti; condition over the

    concatenated (left ++ right) schema."""

    left: RelNode
    right: RelNode
    kind: str
    condition: Optional[RexNode] = None

    @property
    def schema(self) -> Schema:
        if self.kind in ("semi", "anti"):
            return self.left.schema
        left, right = self.left.schema, self.right.schema
        if self.kind in ("left", "full"):
            right = Schema(replace(c, nullable=True) for c in right.columns)
        if self.kind in ("right", "full"):
            left = Schema(replace(c, nullable=True) for c in left.columns)
        return left.concat(right, dedupe=True)

    @property
    def inputs(self):
        return (self.left, self.right)

    def with_inputs(self, inputs):
        left, right = inputs
        return Join(left, right, self.kind, self.condition)

    def condition_columns(self) -> tuple:
        """Row type the join condition is resolved against: the raw
        left ++ right concatenation (even for semi/anti joins, whose
        *output* schema is the left side only)."""
        return self.left.schema.columns + self.right.schema.columns

    @property
    def digest(self) -> str:
        cond = self.condition.digest if self.condition else "true"
        return (f"Join({self.kind} cond={cond})\n"
                f"{self.left.digest}\n{self.right.digest}")

    def _explain_label(self) -> str:
        cond = self.condition.digest if self.condition else "true"
        return f"Join(kind={self.kind}, condition={cond})"


@dataclass(frozen=True, eq=False)
class Union(RelNode):
    rels: tuple[RelNode, ...]
    all: bool = True

    @property
    def schema(self) -> Schema:
        return self.rels[0].schema

    @property
    def inputs(self):
        return self.rels

    def with_inputs(self, inputs):
        return Union(tuple(inputs), self.all)

    @property
    def digest(self) -> str:
        inner = "\n".join(r.digest for r in self.rels)
        return f"Union(all={self.all})\n{inner}"

    def _explain_label(self) -> str:
        return f"Union(all={self.all})"


@dataclass(frozen=True, eq=False)
class SetOp(RelNode):
    """INTERSECT / EXCEPT (always set semantics unless ``all``)."""

    kind: str                # intersect | except
    left: RelNode
    right: RelNode
    all: bool = False

    @property
    def schema(self) -> Schema:
        return self.left.schema

    @property
    def inputs(self):
        return (self.left, self.right)

    def with_inputs(self, inputs):
        left, right = inputs
        return SetOp(self.kind, left, right, self.all)

    @property
    def digest(self) -> str:
        return (f"SetOp({self.kind} all={self.all})\n"
                f"{self.left.digest}\n{self.right.digest}")

    def _explain_label(self) -> str:
        return f"SetOp(kind={self.kind}, all={self.all})"


# --------------------------------------------------------------------------- #
# traversal helpers

def walk(rel: RelNode):
    """Pre-order traversal."""
    yield rel
    for child in rel.inputs:
        yield from walk(child)


def transform_bottom_up(rel: RelNode, fn) -> RelNode:
    """Rebuild the tree applying ``fn`` to each node after its children."""
    new_inputs = [transform_bottom_up(c, fn) for c in rel.inputs]
    if list(rel.inputs) != new_inputs:
        rel = rel.with_inputs(new_inputs)
    replaced = fn(rel)
    return replaced if replaced is not None else rel


def find_scans(rel: RelNode) -> list[TableScan]:
    return [n for n in walk(rel) if isinstance(n, TableScan)]
