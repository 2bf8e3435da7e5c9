"""Semantic analyzer: AST → logical plan.

Responsibilities (mirroring HS2's query preparation, Figure 2):

* name resolution against the HMS catalog, with scopes for joins, CTEs
  and subqueries,
* type checking and coercion via the type lattice,
* subquery translation: ``IN``/``EXISTS`` (correlated or not) become
  semi/anti joins; scalar subqueries become (grouped) left joins —
  the decorrelation the paper credits to the Calcite plan representation,
* aggregation planning (pre-projection → Aggregate → post-projection),
  GROUPING SETS, HAVING, window functions,
* profile gating: ORDER BY on unselected columns and non-equi correlation
  raise :class:`UnsupportedFeatureError` on the legacy profile
  (Figure 7's "only 50 of 99 queries").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..common.rows import Column, Schema
from ..common.types import (BIGINT, BOOLEAN, DATE, DOUBLE, INT, STRING,
                            DataType, common_type, infer_literal_type,
                            type_from_name)
from ..config import HiveConf
from ..errors import AnalysisError, UnsupportedFeatureError
from ..metastore.hms import HiveMetastore
from ..plan import relnodes as rel
from ..plan import rexnodes as rex
from . import ast_nodes as ast
from .functions import (AGGREGATE_FUNCTIONS, RANKING_FUNCTIONS,
                        aggregate_result_type, scalar_result_type)

_EXTRACT_OPS = {
    "YEAR": "EXTRACT_YEAR", "MONTH": "EXTRACT_MONTH", "DAY": "EXTRACT_DAY",
    "QUARTER": "EXTRACT_QUARTER", "WEEK": "EXTRACT_WEEK",
    "HOUR": "EXTRACT_HOUR", "MINUTE": "EXTRACT_MINUTE",
    "SECOND": "EXTRACT_SECOND",
}


# --------------------------------------------------------------------------- #
# scopes

@dataclass
class ScopeEntry:
    alias: Optional[str]          # lower-cased table alias or name
    schema: Schema
    offset: int


class Scope:
    """Visible columns at one query level; ``parent`` is the outer query."""

    def __init__(self, entries: Sequence[ScopeEntry],
                 parent: Optional["Scope"] = None):
        self.entries = list(entries)
        self.parent = parent

    @property
    def width(self) -> int:
        return sum(len(e.schema) for e in self.entries)

    def resolve_local(self, qualifier: Optional[str],
                      name: str) -> Optional[tuple[int, DataType]]:
        """Resolve in this scope only; None when not found."""
        name_l = name.lower()
        matches: list[tuple[int, DataType]] = []
        for entry in self.entries:
            if qualifier is not None:
                q = qualifier.lower()
                if entry.alias != q and not (
                        entry.alias is None and q in ("",)):
                    # also allow db-qualified table name match
                    if entry.alias is None or not entry.alias.endswith(q):
                        continue
            if name_l in entry.schema:
                idx = entry.schema.index_of(name_l)
                matches.append((entry.offset + idx,
                                entry.schema[idx].dtype))
        if not matches:
            return None
        if len(matches) > 1:
            raise AnalysisError(f"ambiguous column reference: {name}")
        return matches[0]

    def resolve(self, qualifier: Optional[str], name: str,
                ) -> tuple[int, DataType]:
        result = self.resolve_local(qualifier, name)
        if result is None:
            raise AnalysisError(
                f"unknown column: "
                f"{qualifier + '.' if qualifier else ''}{name}")
        return result


# --------------------------------------------------------------------------- #
# analyzer

class Analyzer:
    """Stateless facade; one instance per session."""

    def __init__(self, hms: HiveMetastore, conf: HiveConf,
                 default_db: str = "default"):
        self.hms = hms
        self.conf = conf
        self.default_db = default_db
        self._scan_counter = 0

    # -- public entry points -------------------------------------------------- #
    def analyze_query(self, query: ast.Query,
                      outer: Optional[Scope] = None,
                      cte_env: Optional[dict] = None) -> rel.RelNode:
        cte_env = dict(cte_env or {})
        for cte in query.ctes:
            cte_env[cte.name.lower()] = cte.query
        body = query.body
        if isinstance(body, ast.QuerySpec):
            return self._analyze_spec(body, query.order_by, query.limit,
                                      outer, cte_env)
        plan = self._analyze_setop(body, outer, cte_env)
        if query.order_by:
            plan = self._order_by_names(plan, query.order_by)
        if query.limit is not None:
            plan = self._apply_limit(plan, query.limit)
        return plan

    def convert_predicate(self, expr: ast.Expr, schema: Schema,
                          alias: Optional[str] = None) -> rex.RexNode:
        """Convert a standalone predicate over one table (UPDATE/DELETE)."""
        scope = Scope([ScopeEntry(alias, schema, 0)])
        converter = _ExprConverter(self, scope, None, {})
        condition = converter.convert(expr)
        if condition.dtype != BOOLEAN:
            raise AnalysisError("predicate must be boolean")
        return condition

    def convert_scalar(self, expr: ast.Expr, schema: Schema,
                       alias: Optional[str] = None) -> rex.RexNode:
        scope = Scope([ScopeEntry(alias, schema, 0)])
        return _ExprConverter(self, scope, None, {}).convert(expr)

    # -- set operations --------------------------------------------------------- #
    def _analyze_setop(self, body, outer, cte_env) -> rel.RelNode:
        if isinstance(body, ast.QuerySpec):
            return self._analyze_spec(body, (), None, outer, cte_env)
        left = self._analyze_setop(body.left, outer, cte_env)
        right = self._analyze_setop(body.right, outer, cte_env)
        left, right = self._align_setop_schemas(left, right)
        if body.op == "union":
            plan: rel.RelNode = rel.Union((left, right), all=body.all)
            if not body.all:
                plan = self._distinct(plan)
            return plan
        return rel.SetOp(body.op, left, right, all=body.all)

    def _align_setop_schemas(self, left: rel.RelNode, right: rel.RelNode):
        ls, rs = left.schema, right.schema
        if len(ls) != len(rs):
            raise AnalysisError(
                f"set operation inputs have {len(ls)} vs {len(rs)} columns")
        target_types = [common_type(a.dtype, b.dtype)
                        for a, b in zip(ls, rs)]
        left = _cast_to(left, target_types)
        right = _cast_to(right, target_types)
        return left, right

    # -- SELECT block ------------------------------------------------------------ #
    def _analyze_spec(self, spec: ast.QuerySpec,
                      order_by: tuple[ast.OrderItem, ...],
                      limit: Optional[int],
                      outer: Optional[Scope],
                      cte_env: dict) -> rel.RelNode:
        plan, scope = self._analyze_from(spec.from_refs, outer, cte_env)

        # WHERE: split top-level conjuncts; IN/EXISTS become joins
        if spec.where is not None:
            plan = self._apply_where(plan, scope, spec.where, cte_env)
            scope = _rebased_scope(scope, plan)

        has_aggs = self._needs_aggregation(spec, order_by)
        post_map: dict[str, tuple[int, DataType]] = {}
        group_width = 0

        if has_aggs:
            plan, post_map, group_width = self._build_aggregate(
                plan, scope, spec, cte_env)
            current_scope = None
        else:
            current_scope = scope

        # window functions
        window_calls = self._collect_window_calls(spec, order_by)
        if window_calls:
            plan, post_map = self._build_window(
                plan, current_scope, post_map, window_calls, has_aggs)

        post_mode = has_aggs or bool(window_calls)

        # HAVING
        if spec.having is not None:
            if not has_aggs:
                raise AnalysisError("HAVING requires aggregation")
            converter = _ExprConverter(self, None, plan.schema, post_map)
            condition = converter.convert(spec.having)
            plan = rel.Filter(plan, condition)

        # SELECT list (may widen the plan with scalar-subquery joins)
        select_exprs, select_names, plan = self._convert_select_items(
            spec, plan, current_scope, post_map, post_mode, cte_env)
        projected = rel.Project(plan, tuple(select_exprs),
                                tuple(select_names))

        if spec.distinct:
            projected = self._distinct(projected)

        # ORDER BY / LIMIT
        final = self._apply_order_by(
            projected, plan, order_by, select_exprs, select_names,
            current_scope, post_map, post_mode, cte_env)
        if limit is not None:
            final = self._apply_limit(final, limit)
        return final

    # -- FROM --------------------------------------------------------------------- #
    def _analyze_from(self, refs: tuple[ast.TableRef, ...],
                      outer: Optional[Scope],
                      cte_env: dict) -> tuple[rel.RelNode, Scope]:
        if not refs:
            schema = Schema([Column("__dummy__", INT, nullable=False)])
            plan = rel.Values(schema, ((0,),))
            return plan, Scope([ScopeEntry(None, schema, 0)], parent=outer)
        plan = None
        entries: list[ScopeEntry] = []
        for ref in refs:
            sub_plan, sub_entries = self._analyze_table_ref(
                ref, outer, cte_env,
                offset=0 if plan is None else _scope_width(entries))
            if plan is None:
                plan = sub_plan
                entries = sub_entries
            else:
                plan = rel.Join(plan, sub_plan, "inner", None)
                entries = entries + sub_entries
        return plan, Scope(entries, parent=outer)

    def _analyze_table_ref(self, ref: ast.TableRef, outer, cte_env,
                           offset: int
                           ) -> tuple[rel.RelNode, list[ScopeEntry]]:
        if isinstance(ref, ast.NamedTable):
            name_l = ref.name.lower()
            if name_l in cte_env and "." not in name_l:
                inner = self.analyze_query(cte_env[name_l], None,
                                           {k: v for k, v in cte_env.items()
                                            if k != name_l})
                alias = (ref.alias or ref.name).lower()
                return inner, [ScopeEntry(alias, inner.schema, offset)]
            table = self.hms.get_table(ref.name, self.default_db)
            self._scan_counter += 1
            scan = rel.TableScan(table.qualified_name, table.full_schema(),
                                 scan_id=self._scan_counter)
            alias = (ref.alias or table.name).lower()
            return scan, [ScopeEntry(alias, scan.schema, offset)]
        if isinstance(ref, ast.SubqueryRef):
            inner = self.analyze_query(ref.query, None, cte_env)
            return inner, [ScopeEntry(ref.alias.lower(), inner.schema,
                                      offset)]
        if isinstance(ref, ast.JoinRef):
            left_plan, left_entries = self._analyze_table_ref(
                ref.left, outer, cte_env, offset)
            right_plan, right_entries = self._analyze_table_ref(
                ref.right, outer, cte_env,
                offset + len(left_plan.schema))
            scope = Scope(left_entries + right_entries, parent=outer)
            condition = None
            if ref.condition is not None:
                converter = _ExprConverter(self, scope, None, {})
                condition = converter.convert(ref.condition)
                if condition.dtype != BOOLEAN:
                    raise AnalysisError("join condition must be boolean")
            kind = "inner" if ref.kind == "cross" else ref.kind
            join = rel.Join(left_plan, right_plan, kind, condition)
            return join, left_entries + right_entries
        raise AnalysisError(f"unsupported table reference {ref!r}")

    # -- WHERE with subqueries ------------------------------------------------------- #
    def _apply_where(self, plan: rel.RelNode, scope: Scope,
                     where: ast.Expr, cte_env: dict) -> rel.RelNode:
        conjuncts = _split_and(where)
        plain: list[ast.Expr] = []
        for conjunct in conjuncts:
            inner, negated = _strip_not(conjunct)
            if isinstance(inner, ast.Exists):
                plan = self._apply_exists(plan, scope, inner,
                                          negated != inner.negated, cte_env)
                scope = _rebased_scope(scope, plan)
            elif isinstance(inner, ast.InSubquery):
                plan = self._apply_in_subquery(
                    plan, scope, inner, negated != inner.negated, cte_env)
                scope = _rebased_scope(scope, plan)
            else:
                plain.append(conjunct)
        if plain:
            converter = _ExprConverter(self, scope, None, {},
                                       cte_env=cte_env, plan_holder=[plan])
            condition_parts = [converter.convert(c) for c in plain]
            plan = converter.plan_holder[0]
            condition = rex.make_and(condition_parts)
            if condition is not None:
                if condition.dtype != BOOLEAN:
                    raise AnalysisError("WHERE must be boolean")
                plan = rel.Filter(plan, condition)
        return plan

    def _split_subquery_where(self, spec: ast.QuerySpec, local_scope: Scope,
                              ) -> tuple[list[ast.Expr], list[ast.Expr]]:
        """Split the subquery WHERE into local and correlated conjuncts.

        A conjunct is correlated when some column reference does not
        resolve in the subquery's own scope.
        """
        local: list[ast.Expr] = []
        correlated: list[ast.Expr] = []
        if spec.where is None:
            return local, correlated
        for conjunct in _split_and(spec.where):
            is_correlated = False
            for node in ast.walk_expr(conjunct):
                if isinstance(node, ast.ColumnRef):
                    if local_scope.resolve_local(node.qualifier,
                                                 node.name) is None:
                        is_correlated = True
                        break
            (correlated if is_correlated else local).append(conjunct)
        return local, correlated

    def _check_correlation_shape(self, condition: rex.RexNode) -> None:
        """Legacy profile rejects non-equi correlation (Figure 7)."""
        if self.conf.support_nonequi_correlation:
            return
        for conjunct in rex.conjunctions(condition):
            if not (isinstance(conjunct, rex.RexCall)
                    and conjunct.op == "="):
                raise UnsupportedFeatureError(
                    "correlated subqueries with non-equi conditions are "
                    f"not supported by profile {self.conf.name}")

    def _apply_exists(self, plan, scope, node: ast.Exists, negated: bool,
                      cte_env: dict) -> rel.RelNode:
        spec = _only_spec(node.query)
        inner_plan, inner_scope = self._analyze_from(
            spec.from_refs, scope, cte_env)
        local, correlated = self._split_subquery_where(spec, inner_scope)
        if local:
            inner_plan = self._filter_with(inner_plan, inner_scope, local,
                                           cte_env)
        condition = self._correlated_condition(
            scope, inner_scope, plan, inner_plan, correlated)
        if condition is not None:
            self._check_correlation_shape(condition)
        return rel.Join(plan, inner_plan, "anti" if negated else "semi",
                        condition)

    def _apply_in_subquery(self, plan, scope, node: ast.InSubquery,
                           negated: bool, cte_env: dict) -> rel.RelNode:
        spec = _only_spec(node.query)
        operand = _ExprConverter(self, scope, None, {}).convert(node.operand)
        if spec.group_by or spec.having or self._spec_has_aggregates(spec):
            # aggregated inner: analyze standalone (must be uncorrelated)
            inner_plan = self.analyze_query(node.query, None, cte_env)
            if len(inner_plan.schema) != 1:
                raise AnalysisError("IN subquery must return one column")
            in_value = rex.RexInputRef(len(plan.schema),
                                       inner_plan.schema[0].dtype)
            condition = rex.make_call("=", operand, in_value)
            return rel.Join(plan, inner_plan,
                            "anti" if negated else "semi", condition)
        inner_plan, inner_scope = self._analyze_from(
            spec.from_refs, scope, cte_env)
        local, correlated = self._split_subquery_where(spec, inner_scope)
        if local:
            inner_plan = self._filter_with(inner_plan, inner_scope, local,
                                           cte_env)
        if len(spec.select_items) != 1 or isinstance(
                spec.select_items[0].expr, ast.Star):
            raise AnalysisError("IN subquery must select exactly one column")
        combined = Scope(
            scope.entries + [ScopeEntry(e.alias, e.schema,
                                        e.offset + len(plan.schema))
                             for e in inner_scope.entries])
        in_value = _ExprConverter(self, combined, None, {}).convert(
            ast.ColumnRef(spec.select_items[0].alias) if False
            else spec.select_items[0].expr)
        eq = rex.make_call("=", operand, in_value)
        corr = self._correlated_condition(scope, inner_scope, plan,
                                          inner_plan, correlated)
        if corr is not None:
            self._check_correlation_shape(corr)
        condition = rex.make_and([eq] + rex.conjunctions(corr))
        return rel.Join(plan, inner_plan, "anti" if negated else "semi",
                        condition)

    def _correlated_condition(self, outer_scope, inner_scope, outer_plan,
                              inner_plan, correlated: list[ast.Expr]
                              ) -> Optional[rex.RexNode]:
        if not correlated:
            return None
        combined = Scope(
            outer_scope.entries
            + [ScopeEntry(e.alias, e.schema,
                          e.offset + len(outer_plan.schema))
               for e in inner_scope.entries])
        converter = _ExprConverter(self, combined, None, {})
        return rex.make_and([converter.convert(c) for c in correlated])

    def _filter_with(self, plan, scope, conjuncts: list[ast.Expr],
                     cte_env: dict) -> rel.RelNode:
        converter = _ExprConverter(self, scope, None, {}, cte_env=cte_env,
                                   plan_holder=[plan])
        parts = [converter.convert(c) for c in conjuncts]
        plan = converter.plan_holder[0]
        condition = rex.make_and(parts)
        return rel.Filter(plan, condition) if condition is not None else plan

    # -- aggregation ------------------------------------------------------------------ #
    def _needs_aggregation(self, spec: ast.QuerySpec, order_by) -> bool:
        if spec.group_by or spec.grouping_sets or spec.having is not None:
            return True
        return self._spec_has_aggregates(spec) or any(
            ast.contains_aggregate(o.expr, AGGREGATE_FUNCTIONS)
            and not _is_windowed(o.expr)
            for o in order_by)

    def _spec_has_aggregates(self, spec: ast.QuerySpec) -> bool:
        for item in spec.select_items:
            if isinstance(item.expr, ast.Star):
                continue
            if _has_plain_aggregate(item.expr):
                return True
        if spec.having is not None and _has_plain_aggregate(spec.having):
            return True
        return False

    def _build_aggregate(self, plan, scope, spec: ast.QuerySpec, cte_env,
                         ) -> tuple[rel.RelNode, dict, int]:
        converter = _ExprConverter(self, scope, None, {}, cte_env=cte_env,
                                   plan_holder=[plan])
        group_rex: list[rex.RexNode] = []
        group_ast_keys: list[str] = []
        group_names: list[str] = []
        for i, expr in enumerate(spec.group_by):
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                # positional GROUP BY
                idx = expr.value - 1
                if not 0 <= idx < len(spec.select_items):
                    raise AnalysisError(
                        f"GROUP BY position {expr.value} out of range")
                expr = spec.select_items[idx].expr
            group_rex.append(converter.convert(expr))
            group_ast_keys.append(expr.unparse().lower())
            group_names.append(_derive_name(expr, f"_g{i}"))
        plan = converter.plan_holder[0]

        # collect aggregate calls from select / having / order
        agg_asts: list[ast.FuncCall] = []
        seen: set[str] = set()

        def collect(expr: ast.Expr):
            for node in ast.walk_expr(expr):
                if (isinstance(node, ast.FuncCall) and node.window is None
                        and node.name in AGGREGATE_FUNCTIONS):
                    key = node.unparse().lower()
                    if key not in seen:
                        seen.add(key)
                        agg_asts.append(node)

        for item in spec.select_items:
            if not isinstance(item.expr, ast.Star):
                collect(item.expr)
        if spec.having is not None:
            collect(spec.having)

        # pre-projection: group exprs then distinct agg args
        pre_exprs: list[rex.RexNode] = list(group_rex)
        pre_names: list[str] = list(group_names)
        arg_index: dict[str, int] = {}
        agg_calls: list[rex.AggregateCall] = []
        for i, call in enumerate(agg_asts):
            arg_ordinal: Optional[int] = None
            arg_type: Optional[DataType] = None
            if call.args:
                if len(call.args) != 1:
                    raise AnalysisError(
                        f"aggregate {call.name} takes one argument")
                arg_rex = converter.convert(call.args[0])
                key = arg_rex.digest
                if key not in arg_index:
                    arg_index[key] = len(pre_exprs)
                    pre_exprs.append(arg_rex)
                    pre_names.append(f"_a{len(arg_index)}")
                arg_ordinal = arg_index[key]
                arg_type = arg_rex.dtype
            plan = converter.plan_holder[0]
            agg_calls.append(rex.AggregateCall(
                call.name, arg_ordinal,
                aggregate_result_type(call.name, arg_type),
                f"_agg{i}", call.distinct))

        plan = converter.plan_holder[0]
        if pre_exprs:
            pre_project: rel.RelNode = rel.Project(
                plan, tuple(pre_exprs), tuple(_dedupe_strs(pre_names)))
        else:
            # e.g. SELECT COUNT(*) FROM t — no keys, no agg arguments
            pre_project = plan

        grouping_sets = None
        if spec.grouping_sets is not None:
            sets = []
            for gs in spec.grouping_sets:
                indices = []
                for expr in gs:
                    key = expr.unparse().lower()
                    if key not in group_ast_keys:
                        raise AnalysisError(
                            f"grouping set column {expr.unparse()} not in "
                            "GROUP BY")
                    indices.append(group_ast_keys.index(key))
                sets.append(tuple(indices))
            grouping_sets = tuple(sets)

        aggregate = rel.Aggregate(
            pre_project, tuple(range(len(group_rex))), tuple(agg_calls),
            tuple(_dedupe_strs(group_names)), grouping_sets)

        # post map: AST digest -> (output ordinal, dtype)
        post_map: dict[str, tuple[int, DataType]] = {}
        for i, key in enumerate(group_ast_keys):
            post_map[key] = (i, aggregate.schema[i].dtype)
        base = len(group_rex)
        for i, call in enumerate(agg_asts):
            post_map[call.unparse().lower()] = (
                base + i, agg_calls[i].dtype)
        if grouping_sets is not None:
            post_map["grouping_id"] = (len(aggregate.schema) - 1, BIGINT)
        return aggregate, post_map, len(group_rex)

    # -- window functions --------------------------------------------------------------- #
    def _collect_window_calls(self, spec: ast.QuerySpec, order_by,
                              ) -> list[ast.FuncCall]:
        calls: list[ast.FuncCall] = []
        seen: set[str] = set()

        def collect(expr: ast.Expr):
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.FuncCall) and node.window is not None:
                    key = node.unparse().lower()
                    if key not in seen:
                        seen.add(key)
                        calls.append(node)

        for item in spec.select_items:
            if not isinstance(item.expr, ast.Star):
                collect(item.expr)
        for item in order_by:
            collect(item.expr)
        return calls

    def _build_window(self, plan, scope, post_map,
                      calls: list[ast.FuncCall], post_mode: bool):
        window_calls = []
        converter = _ExprConverter(self, scope, plan.schema if post_mode
                                   else None, post_map)
        for i, call in enumerate(calls):
            def to_ordinal(expr: ast.Expr) -> int:
                converted = converter.convert(expr)
                if not isinstance(converted, rex.RexInputRef):
                    raise AnalysisError(
                        "window partition/order expressions must be "
                        "plain columns")
                return converted.index

            partition = tuple(to_ordinal(e)
                              for e in call.window.partition_by)
            order_keys = tuple(
                rel.SortKey(to_ordinal(o.expr), o.ascending)
                for o in call.window.order_by)
            arg = None
            dtype: DataType
            if call.name in RANKING_FUNCTIONS:
                dtype = BIGINT
            else:
                if not call.args:
                    dtype = BIGINT  # count(*) over ()
                else:
                    converted = converter.convert(call.args[0])
                    if not isinstance(converted, rex.RexInputRef):
                        raise AnalysisError(
                            "window aggregate arguments must be plain "
                            "columns")
                    arg = converted.index
                    dtype = aggregate_result_type(call.name, converted.dtype)
            window_calls.append(rel.WindowCall(
                call.name, arg, partition, order_keys, dtype, f"_w{i}"))
        window = rel.Window(plan, tuple(window_calls))
        new_map = dict(post_map)
        base = len(plan.schema)
        for i, call in enumerate(calls):
            new_map[call.unparse().lower()] = (
                base + i, window_calls[i].dtype)
        # passthrough columns stay valid in post mode; in base mode the
        # scope still resolves them because Window appends to the right.
        return window, new_map

    # -- select list / order by ----------------------------------------------------------- #
    def _convert_select_items(self, spec, plan, scope, post_map,
                              post_mode: bool, cte_env):
        exprs: list[rex.RexNode] = []
        names: list[str] = []
        holder = [plan]
        converter = _ExprConverter(self, scope,
                                   plan.schema if post_mode else None,
                                   post_map, cte_env=cte_env,
                                   plan_holder=holder)
        for i, item in enumerate(spec.select_items):
            if isinstance(item.expr, ast.Star):
                if post_mode:
                    raise AnalysisError("* not allowed with GROUP BY")
                for entry in scope.entries:
                    if (item.expr.qualifier is not None
                            and entry.alias != item.expr.qualifier.lower()):
                        continue
                    for j, col in enumerate(entry.schema):
                        exprs.append(rex.RexInputRef(entry.offset + j,
                                                     col.dtype))
                        names.append(col.name)
                continue
            exprs.append(converter.convert(item.expr))
            names.append(item.alias or _derive_name(item.expr, f"_c{i}"))
        if not exprs:
            raise AnalysisError("empty select list")
        # scalar subqueries may have widened the plan via appended joins
        return exprs, _dedupe_strs(names), holder[0]

    def _apply_order_by(self, projected, pre_plan, order_by, select_exprs,
                        select_names, scope, post_map, post_mode, cte_env):
        if not order_by:
            return projected
        if not isinstance(projected, rel.Project):
            # DISTINCT was applied; only selected columns can be sorted
            return self._order_by_names(projected, order_by)
        keys: list[rel.SortKey] = []
        extra_exprs: list[rex.RexNode] = []
        extra_names: list[str] = []
        lower_names = [n.lower() for n in select_names]
        converter = _ExprConverter(
            self, scope, pre_plan.schema if post_mode else None, post_map,
            cte_env=cte_env)
        select_digests = [e.digest for e in select_exprs]
        for item in order_by:
            expr = item.expr
            ordinal: Optional[int] = None
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                idx = expr.value - 1
                if not 0 <= idx < len(select_exprs):
                    raise AnalysisError(
                        f"ORDER BY position {expr.value} out of range")
                ordinal = idx
            elif isinstance(expr, ast.ColumnRef) and expr.qualifier is None \
                    and expr.name.lower() in lower_names:
                ordinal = lower_names.index(expr.name.lower())
            else:
                converted = converter.convert(expr)
                if converted.digest in select_digests:
                    ordinal = select_digests.index(converted.digest)
                else:
                    if not self.conf.support_order_by_unselected:
                        raise UnsupportedFeatureError(
                            "ORDER BY on unselected expressions is not "
                            f"supported by profile {self.conf.name}")
                    ordinal = (len(select_exprs) + len(extra_exprs))
                    extra_exprs.append(converted)
                    extra_names.append(f"_o{len(extra_exprs)}")
            keys.append(rel.SortKey(ordinal, item.ascending))
        if extra_exprs:
            # re-project with extra sort columns, sort, then trim
            inner = projected.input
            wide = rel.Project(
                inner, tuple(select_exprs) + tuple(extra_exprs),
                tuple(_dedupe_strs(list(select_names) + extra_names)))
            sorted_plan = rel.Sort(wide, tuple(keys))
            trim_exprs = tuple(
                rex.RexInputRef(i, wide.schema[i].dtype)
                for i in range(len(select_exprs)))
            return rel.Project(sorted_plan, trim_exprs,
                               tuple(select_names))
        return rel.Sort(projected, tuple(keys))

    def _order_by_names(self, plan: rel.RelNode,
                        order_by: tuple[ast.OrderItem, ...]) -> rel.RelNode:
        """ORDER BY over a plan's output columns by name or position."""
        keys = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                ordinal = expr.value - 1
                if not 0 <= ordinal < len(plan.schema):
                    raise AnalysisError(
                        f"ORDER BY position {expr.value} out of range")
            elif isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
                ordinal = plan.schema.index_of(expr.name)
            else:
                raise AnalysisError(
                    "ORDER BY here must reference output columns")
            keys.append(rel.SortKey(ordinal, item.ascending))
        return rel.Sort(plan, tuple(keys))

    def _apply_limit(self, plan: rel.RelNode, limit: int) -> rel.RelNode:
        if isinstance(plan, rel.Sort) and plan.fetch is None:
            return rel.Sort(plan.input, plan.keys, fetch=limit)
        if (isinstance(plan, rel.Project)
                and isinstance(plan.input, rel.Sort)
                and plan.input.fetch is None):
            inner = plan.input
            return plan.with_inputs(
                [rel.Sort(inner.input, inner.keys, fetch=limit)])
        return rel.Limit(plan, limit)

    def _distinct(self, plan: rel.RelNode) -> rel.RelNode:
        return rel.Aggregate(
            plan, tuple(range(len(plan.schema))), (),
            tuple(c.name for c in plan.schema))


# --------------------------------------------------------------------------- #
# expression conversion

class _ExprConverter:
    """Converts AST expressions to Rex over a scope (or post-agg schema).

    In *post mode* (``post_schema`` set) sub-expressions are first matched
    against ``post_map`` (AST digest → output ordinal); anything else must
    bottom out in matched nodes, otherwise the column is not functionally
    dependent on the GROUP BY.
    """

    def __init__(self, analyzer: Analyzer, scope: Optional[Scope],
                 post_schema: Optional[Schema],
                 post_map: dict[str, tuple[int, DataType]],
                 cte_env: Optional[dict] = None,
                 plan_holder: Optional[list] = None):
        self.analyzer = analyzer
        self.scope = scope
        self.post_schema = post_schema
        self.post_map = post_map
        self.cte_env = cte_env or {}
        self.plan_holder = plan_holder

    # -- dispatch ---------------------------------------------------------------- #
    def convert(self, expr: ast.Expr) -> rex.RexNode:
        if self.post_map:
            hit = self.post_map.get(expr.unparse().lower())
            if hit is not None:
                return rex.RexInputRef(hit[0], hit[1])
        if isinstance(expr, ast.Literal):
            return rex.RexLiteral(expr.value, infer_literal_type(expr.value))
        if isinstance(expr, ast.ColumnRef):
            return self._column(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr)
        if isinstance(expr, ast.IsNull):
            operand = self.convert(expr.operand)
            op = "IS_NOT_NULL" if expr.negated else "IS_NULL"
            return rex.make_call(op, operand)
        if isinstance(expr, ast.Like):
            operand = self.convert(expr.operand)
            call = rex.make_call("LIKE", operand,
                                 rex.RexLiteral(expr.pattern, STRING))
            return rex.make_call("NOT", call) if expr.negated else call
        if isinstance(expr, ast.Between):
            operand = self.convert(expr.operand)
            low = self._coerce_pair(operand, self.convert(expr.low))
            high = self._coerce_pair(operand, self.convert(expr.high))
            call = rex.make_call(
                "AND", rex.make_call(">=", operand, low),
                rex.make_call("<=", operand, high))
            return rex.make_call("NOT", call) if expr.negated else call
        if isinstance(expr, ast.InList):
            operand = self.convert(expr.operand)
            values = [self._coerce_pair(operand, self.convert(v))
                      for v in expr.values]
            call = rex.make_call("IN", operand, *values)
            return rex.make_call("NOT", call) if expr.negated else call
        if isinstance(expr, ast.CaseExpr):
            return self._case(expr)
        if isinstance(expr, ast.Cast):
            operand = self.convert(expr.operand)
            target = type_from_name(expr.type_name, *expr.type_params)
            return rex.RexCall("CAST", (operand,), target)
        if isinstance(expr, ast.ExtractExpr):
            operand = self.convert(expr.operand)
            op = _EXTRACT_OPS.get(expr.unit)
            if op is None:
                raise AnalysisError(f"EXTRACT unit {expr.unit} unsupported")
            return rex.RexCall(op, (operand,), INT)
        if isinstance(expr, ast.FuncCall):
            return self._function(expr)
        if isinstance(expr, ast.ScalarSubquery):
            return self._scalar_subquery(expr)
        if isinstance(expr, (ast.InSubquery, ast.Exists)):
            raise AnalysisError(
                "IN/EXISTS subqueries are only supported as top-level "
                "WHERE conjuncts")
        if isinstance(expr, ast.IntervalLiteral):
            raise AnalysisError(
                "INTERVAL literal only valid in +/- date arithmetic")
        raise AnalysisError(f"cannot convert expression {expr!r}")

    # -- leaves ------------------------------------------------------------------- #
    def _column(self, expr: ast.ColumnRef) -> rex.RexNode:
        if self.post_schema is not None:
            # lookup against aggregate/window output by bare name (the
            # qualified form was already tried via the digest map)
            if expr.name.lower() in self.post_schema:
                idx = self.post_schema.index_of(expr.name)
                return rex.RexInputRef(idx, self.post_schema[idx].dtype)
            raise AnalysisError(
                f"column {expr.unparse()} is neither grouped nor "
                "aggregated")
        ordinal, dtype = self.scope.resolve(expr.qualifier, expr.name)
        return rex.RexInputRef(ordinal, dtype)

    # -- operators ------------------------------------------------------------------ #
    def _binary(self, expr: ast.BinaryOp) -> rex.RexNode:
        op = expr.op
        if op in ("AND", "OR"):
            left, right = self.convert(expr.left), self.convert(expr.right)
            if left.dtype != BOOLEAN or right.dtype != BOOLEAN:
                raise AnalysisError(f"{op} requires boolean operands")
            return rex.make_call(op, left, right)
        # date/interval arithmetic
        if op in ("+", "-") and isinstance(expr.right, ast.IntervalLiteral):
            left = self.convert(expr.left)
            interval = expr.right
            amount = interval.value if op == "+" else -interval.value
            if interval.unit == "DAY":
                return rex.RexCall(
                    "DATE_ADD_DAYS",
                    (left, rex.RexLiteral(amount, INT)), left.dtype)
            if interval.unit == "WEEK":
                return rex.RexCall(
                    "DATE_ADD_DAYS",
                    (left, rex.RexLiteral(amount * 7, INT)), left.dtype)
            if interval.unit in ("MONTH", "YEAR", "QUARTER"):
                months = {"MONTH": 1, "QUARTER": 3, "YEAR": 12}[
                    interval.unit] * amount
                return rex.RexCall(
                    "DATE_ADD_MONTHS",
                    (left, rex.RexLiteral(months, INT)), left.dtype)
            raise AnalysisError(
                f"INTERVAL unit {interval.unit} not supported in "
                "date arithmetic")
        left, right = self.convert(expr.left), self.convert(expr.right)
        if op == "||":
            return rex.RexCall("CONCAT", (left, right), STRING)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            right = self._coerce_pair(left, right)
            left = self._coerce_pair(right, left)
            return rex.make_call(op, left, right)
        if op in ("+", "-", "*", "/", "%"):
            if not (left.dtype.is_numeric and right.dtype.is_numeric):
                if not (left.dtype.is_temporal or right.dtype.is_temporal):
                    raise AnalysisError(
                        f"arithmetic on non-numeric types "
                        f"{left.dtype}/{right.dtype}")
            dtype = (DOUBLE if op == "/" else
                     common_type(left.dtype, right.dtype))
            return rex.RexCall(op, (left, right), dtype)
        raise AnalysisError(f"unknown operator {op}")

    def _unary(self, expr: ast.UnaryOp) -> rex.RexNode:
        operand = self.convert(expr.operand)
        if expr.op == "NOT":
            if operand.dtype != BOOLEAN:
                raise AnalysisError("NOT requires a boolean operand")
            return rex.make_call("NOT", operand)
        if expr.op == "-":
            return rex.RexCall("NEGATE", (operand,), operand.dtype)
        raise AnalysisError(f"unknown unary operator {expr.op}")

    def _case(self, expr: ast.CaseExpr) -> rex.RexNode:
        operands: list[rex.RexNode] = []
        result_types: list[DataType] = []
        for cond, value in expr.whens:
            converted_cond = self.convert(cond)
            if converted_cond.dtype != BOOLEAN:
                raise AnalysisError("CASE WHEN condition must be boolean")
            converted_value = self.convert(value)
            operands.extend((converted_cond, converted_value))
            result_types.append(converted_value.dtype)
        else_value = (self.convert(expr.else_expr)
                      if expr.else_expr is not None
                      else rex.RexLiteral(None, result_types[0]))
        operands.append(else_value)
        result_types.append(else_value.dtype)
        dtype = result_types[0]
        for t in result_types[1:]:
            try:
                dtype = common_type(dtype, t)
            except AnalysisError:
                pass  # NULL literal defaults to STRING; keep first type
        return rex.RexCall("CASE", tuple(operands), dtype)

    def _function(self, expr: ast.FuncCall) -> rex.RexNode:
        if expr.window is not None:
            raise AnalysisError(
                f"window function {expr.name} in unsupported position")
        if expr.name in AGGREGATE_FUNCTIONS:
            raise AnalysisError(
                f"aggregate {expr.name} not allowed in this context")
        args = tuple(self.convert(a) for a in expr.args)
        dtype = scalar_result_type(expr.name, [a.dtype for a in args])
        return rex.RexCall(expr.name.upper(), args, dtype)

    def _scalar_subquery(self, expr: ast.ScalarSubquery) -> rex.RexNode:
        if self.plan_holder is None or self.scope is None:
            raise AnalysisError(
                "scalar subquery not allowed in this context")
        return self.analyzer._append_scalar_subquery(
            self, expr.query)

    # -- coercion ----------------------------------------------------------------- #
    def _coerce_pair(self, reference: rex.RexNode,
                     value: rex.RexNode) -> rex.RexNode:
        """Coerce string literals to dates/timestamps when compared."""
        if (reference.dtype in (DATE,) and value.dtype == STRING
                and isinstance(value, rex.RexLiteral)):
            import datetime
            return rex.RexLiteral(
                datetime.date.fromisoformat(value.value), DATE)
        return value


# --------------------------------------------------------------------------- #
# scalar-subquery planning (method of Analyzer, defined here for locality)

def _append_scalar_subquery(self: Analyzer, converter: _ExprConverter,
                            query: ast.Query) -> rex.RexNode:
    """Turn a scalar subquery into a join appended to the current plan.

    * uncorrelated: single-row inner joined with a cartesian left join,
    * correlated by equality: inner grouped by the correlation keys and
      left-joined on them.
    """
    scope = converter.scope
    plan = converter.plan_holder[0]
    spec = _only_spec(query)

    # detect correlation
    inner_plan, inner_scope = self._analyze_from(spec.from_refs, scope, {})
    local, correlated = self._split_subquery_where(spec, inner_scope)

    if not correlated:
        inner = self.analyze_query(query, None, {})
        if len(inner.schema) != 1:
            raise AnalysisError("scalar subquery must return one column")
        join = rel.Join(plan, inner, "left", None)
        converter.plan_holder[0] = join
        _extend_scope(scope, inner.schema, len(plan.schema))
        return rex.RexInputRef(len(plan.schema), inner.schema[0].dtype)

    # correlated: inner must be a single aggregate over its FROM
    if len(spec.select_items) != 1:
        raise AnalysisError("scalar subquery must return one column")
    item = spec.select_items[0].expr
    if not (isinstance(item, ast.FuncCall)
            and item.name in AGGREGATE_FUNCTIONS and item.window is None):
        raise AnalysisError(
            "correlated scalar subquery must select a single aggregate")
    if local:
        inner_plan = self._filter_with(inner_plan, inner_scope, local, {})
        inner_scope = _rebased_scope(inner_scope, inner_plan)

    # correlation conjuncts: inner_col = outer_expr
    combined = Scope(
        scope.entries + [ScopeEntry(e.alias, e.schema,
                                    e.offset + scope.width)
                         for e in inner_scope.entries])
    cc = _ExprConverter(self, combined, None, {})
    outer_width = scope.width
    join_pairs: list[tuple[rex.RexNode, int]] = []  # (outer expr, inner ord)
    for conjunct in correlated:
        converted = cc.convert(conjunct)
        if not (isinstance(converted, rex.RexCall) and converted.op == "="):
            if not self.conf.support_nonequi_correlation:
                raise UnsupportedFeatureError(
                    "correlated scalar subqueries with non-equi "
                    f"conditions are not supported by {self.conf.name}")
            raise AnalysisError(
                "only equality correlation is supported for scalar "
                "subqueries")
        a, b = converted.operands
        if (a.input_refs() and max(a.input_refs()) >= outer_width
                and rex.references_only(b, set(range(outer_width)))):
            inner_side, outer_side = a, b
        elif (b.input_refs() and max(b.input_refs()) >= outer_width
                and rex.references_only(a, set(range(outer_width)))):
            inner_side, outer_side = b, a
        else:
            raise AnalysisError(
                "unsupported correlation shape in scalar subquery")
        if not isinstance(inner_side, rex.RexInputRef):
            raise AnalysisError(
                "correlation must reference a plain inner column")
        join_pairs.append((outer_side, inner_side.index - outer_width))

    # build inner aggregate: group by correlation keys, compute the agg
    inner_converter = _ExprConverter(self, inner_scope, None, {})
    key_ordinals = [p[1] for p in join_pairs]
    pre_exprs = [rex.RexInputRef(k, inner_plan.schema[k].dtype)
                 for k in key_ordinals]
    pre_names = [f"_k{i}" for i in range(len(key_ordinals))]
    arg_ordinal = None
    arg_type = None
    if item.args:
        arg = inner_converter.convert(item.args[0])
        arg_ordinal = len(pre_exprs)
        arg_type = arg.dtype
        pre_exprs.append(arg)
        pre_names.append("_arg")
    pre = rel.Project(inner_plan, tuple(pre_exprs), tuple(pre_names))
    agg_call = rex.AggregateCall(
        item.name, arg_ordinal, aggregate_result_type(item.name, arg_type),
        "_sq", item.distinct)
    aggregated = rel.Aggregate(pre, tuple(range(len(key_ordinals))),
                               (agg_call,),
                               tuple(pre_names[:len(key_ordinals)]))

    condition_parts = []
    for i, (outer_side, _) in enumerate(join_pairs):
        condition_parts.append(rex.make_call(
            "=", outer_side,
            rex.RexInputRef(outer_width + i, aggregated.schema[i].dtype)))
    join = rel.Join(plan, aggregated, "left",
                    rex.make_and(condition_parts))
    converter.plan_holder[0] = join
    _extend_scope(scope, aggregated.schema, outer_width)
    value_ordinal = outer_width + len(key_ordinals)
    return rex.RexInputRef(value_ordinal, agg_call.dtype)


Analyzer._append_scalar_subquery = _append_scalar_subquery


# --------------------------------------------------------------------------- #
# small helpers

def _scope_width(entries: list[ScopeEntry]) -> int:
    return sum(len(e.schema) for e in entries)


def _rebased_scope(scope: Scope, plan: rel.RelNode) -> Scope:
    """Scope unchanged structurally but re-validated against plan width."""
    return scope


def _extend_scope(scope: Scope, schema: Schema, offset: int) -> None:
    scope.entries.append(ScopeEntry(None, schema, offset))


def _split_and(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def _strip_not(expr: ast.Expr) -> tuple[ast.Expr, bool]:
    negated = False
    while isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        negated = not negated
        expr = expr.operand
    return expr, negated


def _only_spec(query: ast.Query) -> ast.QuerySpec:
    if query.ctes or not isinstance(query.body, ast.QuerySpec):
        raise AnalysisError(
            "subquery with CTEs or set operations is not supported here")
    if query.order_by or query.limit is not None:
        if query.limit is None:
            # ORDER BY alone in a subquery is a no-op; ignore it
            return query.body
        raise AnalysisError("LIMIT in this subquery position unsupported")
    return query.body


def _is_windowed(expr: ast.Expr) -> bool:
    return any(isinstance(e, ast.FuncCall) and e.window is not None
               for e in ast.walk_expr(expr))


def _has_plain_aggregate(expr: ast.Expr) -> bool:
    """Aggregate calls not wrapped in an OVER clause."""
    return any(isinstance(e, ast.FuncCall) and e.window is None
               and e.name in AGGREGATE_FUNCTIONS
               for e in ast.walk_expr(expr))


def _derive_name(expr: ast.Expr, fallback: str) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return fallback


def _dedupe_strs(names: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for name in names:
        candidate = name
        suffix = 0
        while candidate.lower() in seen:
            suffix += 1
            candidate = f"{name}_{suffix}"
        seen.add(candidate.lower())
        out.append(candidate)
    return out


def _cast_to(plan: rel.RelNode, target_types: list[DataType]) -> rel.RelNode:
    if all(c.dtype == t for c, t in zip(plan.schema, target_types)):
        return plan
    exprs = []
    for i, (col, target) in enumerate(zip(plan.schema, target_types)):
        ref = rex.RexInputRef(i, col.dtype)
        exprs.append(ref if col.dtype == target
                     else rex.RexCall("CAST", (ref,), target))
    return rel.Project(plan, tuple(exprs),
                       tuple(c.name for c in plan.schema))
