"""Abstract syntax tree for the SQL dialect.

Plain dataclasses; the parser builds these and the analyzer converts them
to the logical algebra in :mod:`repro.plan.relnodes`.  Every node knows
how to render itself back to SQL-ish text (``unparse``) — the query
result cache keys on a normalized AST rendering (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union


class Node:
    """Base class; subclasses are frozen dataclasses."""

    def unparse(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError(type(self).__name__)


# --------------------------------------------------------------------------- #
# expressions

class Expr(Node):
    pass


@dataclass(frozen=True)
class Literal(Expr):
    value: object          # int | float | str | bool | datetime.date | None

    def unparse(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        import datetime
        if isinstance(self.value, datetime.datetime):
            return f"TIMESTAMP '{self.value.isoformat(sep=' ')}'"
        if isinstance(self.value, datetime.date):
            return f"DATE '{self.value.isoformat()}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    qualifier: Optional[str] = None

    def unparse(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star(Expr):
    qualifier: Optional[str] = None

    def unparse(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str                 # + - * / % = <> < <= > >= AND OR ||
    left: Expr
    right: Expr

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str                 # NOT, -
    operand: Expr

    def unparse(self) -> str:
        return f"({self.op} {self.operand.unparse()})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def unparse(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.unparse()} {suffix})"


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: str
    negated: bool = False

    def unparse(self) -> str:
        not_kw = "NOT " if self.negated else ""
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand.unparse()} {not_kw}LIKE '{escaped}')"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def unparse(self) -> str:
        not_kw = "NOT " if self.negated else ""
        return (f"({self.operand.unparse()} {not_kw}BETWEEN "
                f"{self.low.unparse()} AND {self.high.unparse()})")


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    values: tuple[Expr, ...]
    negated: bool = False

    def unparse(self) -> str:
        not_kw = "NOT " if self.negated else ""
        inner = ", ".join(v.unparse() for v in self.values)
        return f"({self.operand.unparse()} {not_kw}IN ({inner}))"


@dataclass(frozen=True)
class InSubquery(Expr):
    operand: Expr
    query: "Query"
    negated: bool = False

    def unparse(self) -> str:
        not_kw = "NOT " if self.negated else ""
        return (f"({self.operand.unparse()} {not_kw}IN "
                f"({self.query.unparse()}))")


@dataclass(frozen=True)
class Exists(Expr):
    query: "Query"
    negated: bool = False

    def unparse(self) -> str:
        not_kw = "NOT " if self.negated else ""
        return f"({not_kw}EXISTS ({self.query.unparse()}))"


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    query: "Query"

    def unparse(self) -> str:
        return f"({self.query.unparse()})"


@dataclass(frozen=True)
class WindowSpec(Node):
    partition_by: tuple[Expr, ...] = ()
    order_by: tuple["OrderItem", ...] = ()
    frame: str = ""     # "ROWS|RANGE BETWEEN <bound> AND <bound>" or ""

    def unparse(self) -> str:
        parts = []
        if self.partition_by:
            cols = ", ".join(e.unparse() for e in self.partition_by)
            parts.append(f"PARTITION BY {cols}")
        if self.order_by:
            cols = ", ".join(o.unparse() for o in self.order_by)
            parts.append(f"ORDER BY {cols}")
        if self.frame:
            parts.append(self.frame)
        return " ".join(parts)


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str               # lower-cased
    args: tuple[Expr, ...] = ()
    distinct: bool = False
    window: Optional[WindowSpec] = None

    def unparse(self) -> str:
        inner = ", ".join(a.unparse() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        text = f"{self.name}({inner if self.args else '*' if self.name == 'count' and not self.args else inner})"
        if self.name == "count" and not self.args:
            text = "count(*)"
        if self.window is not None:
            text += f" OVER ({self.window.unparse()})"
        return text


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    type_name: str
    type_params: tuple[int, ...] = ()

    def unparse(self) -> str:
        params = (f"({', '.join(str(p) for p in self.type_params)})"
                  if self.type_params else "")
        return f"CAST({self.operand.unparse()} AS {self.type_name}{params})"


@dataclass(frozen=True)
class CaseExpr(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    else_expr: Optional[Expr] = None

    def unparse(self) -> str:
        parts = ["CASE"]
        for cond, result in self.whens:
            parts.append(f"WHEN {cond.unparse()} THEN {result.unparse()}")
        if self.else_expr is not None:
            parts.append(f"ELSE {self.else_expr.unparse()}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class ExtractExpr(Expr):
    unit: str               # YEAR, MONTH, DAY, ...
    operand: Expr

    def unparse(self) -> str:
        return f"EXTRACT({self.unit} FROM {self.operand.unparse()})"


@dataclass(frozen=True)
class IntervalLiteral(Expr):
    value: int
    unit: str               # DAY, MONTH, YEAR, ...

    def unparse(self) -> str:
        return f"INTERVAL '{self.value}' {self.unit}"


# --------------------------------------------------------------------------- #
# query structure

@dataclass(frozen=True)
class OrderItem(Node):
    expr: Expr
    ascending: bool = True

    def unparse(self) -> str:
        return f"{self.expr.unparse()}{'' if self.ascending else ' DESC'}"


@dataclass(frozen=True)
class SelectItem(Node):
    expr: Expr
    alias: Optional[str] = None

    def unparse(self) -> str:
        if self.alias:
            return f"{self.expr.unparse()} AS {self.alias}"
        return self.expr.unparse()


class TableRef(Node):
    pass


@dataclass(frozen=True)
class NamedTable(TableRef):
    name: str               # possibly db-qualified
    alias: Optional[str] = None

    def unparse(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class SubqueryRef(TableRef):
    query: "Query"
    alias: str

    def unparse(self) -> str:
        return f"({self.query.unparse()}) {self.alias}"


@dataclass(frozen=True)
class JoinRef(TableRef):
    left: TableRef
    right: TableRef
    kind: str               # inner, left, right, full, cross
    condition: Optional[Expr] = None

    def unparse(self) -> str:
        kw = {"inner": "JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN",
              "full": "FULL JOIN", "cross": "CROSS JOIN"}[self.kind]
        text = f"{self.left.unparse()} {kw} {self.right.unparse()}"
        if self.condition is not None:
            text += f" ON {self.condition.unparse()}"
        return text


@dataclass(frozen=True)
class QuerySpec(Node):
    """One SELECT block."""

    select_items: tuple[SelectItem, ...]
    from_refs: tuple[TableRef, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    grouping_sets: Optional[tuple[tuple[Expr, ...], ...]] = None
    having: Optional[Expr] = None
    distinct: bool = False

    def unparse(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(i.unparse() for i in self.select_items))
        if self.from_refs:
            parts.append("FROM")
            parts.append(", ".join(r.unparse() for r in self.from_refs))
        if self.where is not None:
            parts.append(f"WHERE {self.where.unparse()}")
        if self.grouping_sets is not None:
            sets = ", ".join(
                "(" + ", ".join(e.unparse() for e in gs) + ")"
                for gs in self.grouping_sets)
            parts.append(f"GROUP BY GROUPING SETS ({sets})")
        elif self.group_by:
            parts.append("GROUP BY " + ", ".join(
                e.unparse() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.unparse()}")
        return " ".join(parts)


@dataclass(frozen=True)
class SetOperation(Node):
    op: str                 # union, intersect, except
    all: bool
    left: Union[QuerySpec, "SetOperation"]
    right: Union[QuerySpec, "SetOperation"]

    def unparse(self) -> str:
        kw = self.op.upper() + (" ALL" if self.all else "")
        return f"({self.left.unparse()}) {kw} ({self.right.unparse()})"


@dataclass(frozen=True)
class CommonTableExpr(Node):
    name: str
    query: "Query"

    def unparse(self) -> str:
        return f"{self.name} AS ({self.query.unparse()})"


@dataclass(frozen=True)
class Query(Node):
    """A full query: optional CTEs, a body, ordering and limit."""

    body: Union[QuerySpec, SetOperation]
    ctes: tuple[CommonTableExpr, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None

    def unparse(self) -> str:
        parts = []
        if self.ctes:
            parts.append("WITH " + ", ".join(c.unparse() for c in self.ctes))
        parts.append(self.body.unparse())
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(
                o.unparse() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


# --------------------------------------------------------------------------- #
# statements

class Statement(Node):
    pass


@dataclass(frozen=True)
class SelectStatement(Statement):
    query: Query

    def unparse(self) -> str:
        return self.query.unparse()


@dataclass(frozen=True)
class ColumnDef(Node):
    name: str
    type_name: str
    type_params: tuple[int, ...] = ()
    not_null: bool = False

    def unparse(self) -> str:
        params = (f"({','.join(str(p) for p in self.type_params)})"
                  if self.type_params else "")
        nn = " NOT NULL" if self.not_null else ""
        return f"{self.name} {self.type_name}{params}{nn}"


@dataclass(frozen=True)
class ForeignKeyDef(Node):
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    partition_columns: tuple[ColumnDef, ...] = ()
    external: bool = False
    file_format: str = "orc"
    storage_handler: Optional[str] = None
    properties: tuple[tuple[str, str], ...] = ()
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKeyDef, ...] = ()
    unique_keys: tuple[tuple[str, ...], ...] = ()
    if_not_exists: bool = False
    as_query: Optional[Query] = None

    def unparse(self) -> str:
        cols = ", ".join(c.unparse() for c in self.columns)
        return f"CREATE TABLE {self.name} ({cols})"


@dataclass(frozen=True)
class CreateMaterializedView(Statement):
    name: str
    query: Query
    properties: tuple[tuple[str, str], ...] = ()
    stored_by: Optional[str] = None
    disable_rewrite: bool = False

    def unparse(self) -> str:
        return (f"CREATE MATERIALIZED VIEW {self.name} AS "
                f"{self.query.unparse()}")


@dataclass(frozen=True)
class AlterMaterializedViewRebuild(Statement):
    name: str

    def unparse(self) -> str:
        return f"ALTER MATERIALIZED VIEW {self.name} REBUILD"


@dataclass(frozen=True)
class AlterTableRename(Statement):
    name: str
    new_name: str

    def unparse(self) -> str:
        return f"ALTER TABLE {self.name} RENAME TO {self.new_name}"


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False
    is_materialized_view: bool = False

    def unparse(self) -> str:
        kind = "MATERIALIZED VIEW" if self.is_materialized_view else "TABLE"
        return f"DROP {kind} {self.name}"


@dataclass(frozen=True)
class CreateDatabase(Statement):
    name: str
    if_not_exists: bool = False

    def unparse(self) -> str:
        return f"CREATE DATABASE {self.name}"


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    partition_spec: tuple[tuple[str, object], ...] = ()
    columns: tuple[str, ...] = ()
    values: Optional[tuple[tuple[Expr, ...], ...]] = None
    query: Optional[Query] = None
    overwrite: bool = False

    def unparse(self) -> str:
        return f"INSERT INTO {self.table} ..."


@dataclass(frozen=True)
class MultiInsert(Statement):
    """Hive's multi-insert: FROM src INSERT INTO t1 SELECT ... INSERT

    INTO t2 SELECT ... — one source scan feeding several targets inside
    a single transaction (paper §3.2)."""

    source: TableRef
    branches: tuple["Insert", ...]

    def unparse(self) -> str:
        inserts = " ".join(b.unparse() for b in self.branches)
        return f"FROM {self.source.unparse()} {inserts}"


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Optional[Expr] = None

    def unparse(self) -> str:
        sets = ", ".join(f"{c} = {e.unparse()}" for c, e in self.assignments)
        text = f"UPDATE {self.table} SET {sets}"
        if self.where is not None:
            text += f" WHERE {self.where.unparse()}"
        return text


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expr] = None

    def unparse(self) -> str:
        text = f"DELETE FROM {self.table}"
        if self.where is not None:
            text += f" WHERE {self.where.unparse()}"
        return text


@dataclass(frozen=True)
class MergeWhenClause(Node):
    matched: bool
    action: str             # update | delete | insert
    condition: Optional[Expr] = None
    assignments: tuple[tuple[str, Expr], ...] = ()
    insert_values: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Merge(Statement):
    target: str
    target_alias: Optional[str]
    source: TableRef
    condition: Expr
    when_clauses: tuple[MergeWhenClause, ...] = ()

    def unparse(self) -> str:
        return f"MERGE INTO {self.target} ..."


@dataclass(frozen=True)
class Explain(Statement):
    statement: Statement
    #: EXPLAIN ANALYZE: execute, then annotate the plan with observed
    #: per-operator rows, IO and the virtual-time breakdown
    analyze: bool = False
    #: EXPLAIN VALIDATE: compile with the plan-invariant checker forced
    #: on and report per-stage verdicts instead of the plan
    validate: bool = False
    #: EXPLAIN HISTORY: render the query store's per-plan-hash stats
    #: and last plan diff for the statement's fingerprint
    history: bool = False
    #: EXPLAIN LINEAGE: compile (don't execute) and render the
    #: column-level dependency edges of the optimized plan
    lineage: bool = False

    def unparse(self) -> str:
        keyword = "EXPLAIN"
        if self.analyze:
            keyword = "EXPLAIN ANALYZE"
        elif self.validate:
            keyword = "EXPLAIN VALIDATE"
        elif self.history:
            keyword = "EXPLAIN HISTORY"
        elif self.lineage:
            keyword = "EXPLAIN LINEAGE"
        return f"{keyword} {self.statement.unparse()}"


@dataclass(frozen=True)
class AnalyzeTable(Statement):
    table: str
    for_columns: bool = False

    def unparse(self) -> str:
        suffix = " FOR COLUMNS" if self.for_columns else ""
        return f"ANALYZE TABLE {self.table} COMPUTE STATISTICS{suffix}"


@dataclass(frozen=True)
class SetConfig(Statement):
    key: str
    value: str

    def unparse(self) -> str:
        return f"SET {self.key}={self.value}"


@dataclass(frozen=True)
class ShowTables(Statement):
    def unparse(self) -> str:
        return "SHOW TABLES"


@dataclass(frozen=True)
class ShowDatabases(Statement):
    def unparse(self) -> str:
        return "SHOW DATABASES"


@dataclass(frozen=True)
class ShowPartitions(Statement):
    table: str

    def unparse(self) -> str:
        return f"SHOW PARTITIONS {self.table}"


@dataclass(frozen=True)
class ShowMaterializedViews(Statement):
    def unparse(self) -> str:
        return "SHOW MATERIALIZED VIEWS"


@dataclass(frozen=True)
class DescribeTable(Statement):
    table: str

    def unparse(self) -> str:
        return f"DESCRIBE {self.table}"


@dataclass(frozen=True)
class StartTransaction(Statement):
    """START TRANSACTION / BEGIN (multi-statement transactions, §9)."""

    def unparse(self) -> str:
        return "START TRANSACTION"


@dataclass(frozen=True)
class Commit(Statement):
    def unparse(self) -> str:
        return "COMMIT"


@dataclass(frozen=True)
class Rollback(Statement):
    def unparse(self) -> str:
        return "ROLLBACK"


@dataclass(frozen=True)
class KillQuery(Statement):
    """``KILL QUERY <id>`` — terminate a live query (HS2 UI kill)."""

    query_id: int

    def unparse(self) -> str:
        return f"KILL QUERY {self.query_id}"


# -- workload management DDL (Section 5.2) ---------------------------------- #

@dataclass(frozen=True)
class CreateResourcePlan(Statement):
    name: str

    def unparse(self) -> str:
        return f"CREATE RESOURCE PLAN {self.name}"


@dataclass(frozen=True)
class CreatePool(Statement):
    plan: str
    pool: str
    alloc_fraction: float
    query_parallelism: int

    def unparse(self) -> str:
        return (f"CREATE POOL {self.plan}.{self.pool} WITH "
                f"alloc_fraction={self.alloc_fraction}, "
                f"query_parallelism={self.query_parallelism}")


@dataclass(frozen=True)
class CreateTriggerRule(Statement):
    name: str
    plan: str
    metric: str             # e.g. total_runtime, rate(faults.injected)
    threshold: float
    action: str             # MOVE | KILL
    action_arg: Optional[str] = None
    #: trailing window for rate(...) alert rules ("OVER 60s"); 0 keeps
    #: the workload manager's default window
    over_s: float = 0.0

    def unparse(self) -> str:
        arg = f" {self.action_arg}" if self.action_arg else ""
        over = f" OVER {self.over_s:g}s" if self.over_s else ""
        return (f"CREATE RULE {self.name} IN {self.plan} WHEN "
                f"{self.metric} > {self.threshold}{over} THEN "
                f"{self.action}{arg}")


@dataclass(frozen=True)
class AddRuleToPool(Statement):
    rule: str
    pool: str

    def unparse(self) -> str:
        return f"ADD RULE {self.rule} TO {self.pool}"


@dataclass(frozen=True)
class CreateApplicationMapping(Statement):
    application: str
    plan: str
    pool: str

    def unparse(self) -> str:
        return (f"CREATE APPLICATION MAPPING {self.application} IN "
                f"{self.plan} TO {self.pool}")


@dataclass(frozen=True)
class AlterPlan(Statement):
    plan: str
    default_pool: Optional[str] = None
    enable_activate: bool = False

    def unparse(self) -> str:
        if self.default_pool is not None:
            return f"ALTER PLAN {self.plan} SET DEFAULT POOL = {self.default_pool}"
        return f"ALTER RESOURCE PLAN {self.plan} ENABLE ACTIVATE"


# --------------------------------------------------------------------------- #
# traversal helpers

def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression (pre-order)."""
    yield expr
    children: Sequence[Expr] = ()
    if isinstance(expr, BinaryOp):
        children = (expr.left, expr.right)
    elif isinstance(expr, UnaryOp):
        children = (expr.operand,)
    elif isinstance(expr, (IsNull, Like)):
        children = (expr.operand,)
    elif isinstance(expr, Between):
        children = (expr.operand, expr.low, expr.high)
    elif isinstance(expr, InList):
        children = (expr.operand, *expr.values)
    elif isinstance(expr, InSubquery):
        children = (expr.operand,)
    elif isinstance(expr, FuncCall):
        children = expr.args
    elif isinstance(expr, Cast):
        children = (expr.operand,)
    elif isinstance(expr, CaseExpr):
        flat = [e for pair in expr.whens for e in pair]
        if expr.else_expr is not None:
            flat.append(expr.else_expr)
        children = tuple(flat)
    elif isinstance(expr, ExtractExpr):
        children = (expr.operand,)
    for child in children:
        yield from walk_expr(child)


def contains_aggregate(expr: Expr, aggregate_names: frozenset[str]) -> bool:
    return any(isinstance(e, FuncCall) and e.window is None
               and e.name in aggregate_names for e in walk_expr(expr))
