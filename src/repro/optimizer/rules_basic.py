"""Foundation rewrite rules: constant folding, predicate pushdown,

sarg extraction and static partition pruning (Section 4.1).
"""

from __future__ import annotations

from typing import Optional

from ..common.rows import Schema
from ..common.types import BOOLEAN
from ..common.vector import VectorBatch
from ..errors import HiveError
from ..metastore.hms import HiveMetastore
from ..plan import relnodes as rel
from ..plan import rexnodes as rex

# --------------------------------------------------------------------------- #
# constant folding


def fold_constants(root: rel.RelNode) -> rel.RelNode:
    """Evaluate constant sub-expressions and simplify boolean algebra."""

    def fold_node(node: rel.RelNode) -> Optional[rel.RelNode]:
        if isinstance(node, rel.Filter):
            condition = fold_rex(node.condition)
            if isinstance(condition, rex.RexLiteral):
                if condition.value:
                    return node.input
                return rel.Values(node.schema, ())
            return rel.Filter(node.input, condition)
        if isinstance(node, rel.Project):
            return rel.Project(node.input,
                               tuple(fold_rex(e) for e in node.exprs),
                               node.names)
        if isinstance(node, rel.Join) and node.condition is not None:
            return rel.Join(node.left, node.right, node.kind,
                            fold_rex(node.condition))
        return None

    return rel.transform_bottom_up(root, fold_node)


def fold_rex(expr: rex.RexNode) -> rex.RexNode:
    if not isinstance(expr, rex.RexCall):
        return expr
    operands = tuple(fold_rex(o) for o in expr.operands)
    expr = rex.RexCall(expr.op, operands, expr.dtype)
    op = expr.op
    # boolean simplification
    if op == "AND":
        flat = []
        for operand in operands:
            if isinstance(operand, rex.RexLiteral):
                if operand.value is False:
                    return rex.RexLiteral(False, BOOLEAN)
                if operand.value is True:
                    continue
            flat.append(operand)
        if not flat:
            return rex.RexLiteral(True, BOOLEAN)
        return rex.make_and(flat)
    if op == "OR":
        flat = []
        for operand in operands:
            if isinstance(operand, rex.RexLiteral):
                if operand.value is True:
                    return rex.RexLiteral(True, BOOLEAN)
                if operand.value is False:
                    continue
            flat.append(operand)
        if not flat:
            return rex.RexLiteral(False, BOOLEAN)
        result = flat[0]
        for item in flat[1:]:
            result = rex.make_call("OR", result, item)
        return result
    if op == "NOT" and isinstance(operands[0], rex.RexLiteral):
        value = operands[0].value
        return rex.RexLiteral(None if value is None else not value, BOOLEAN)
    # pure-literal call: evaluate eagerly
    if operands and all(isinstance(o, rex.RexLiteral) for o in operands):
        if op in ("IN",):  # keep IN lists for sarg extraction
            return expr
        from ..exec.compile import CONTEXT_DEPENDENT_OPS
        if op in CONTEXT_DEPENDENT_OPS:
            # RAND(literal seed) is per-row, CURRENT_* is per-statement
            # — folding either to a single literal changes results
            return expr
        try:
            return _evaluate_constant(expr)
        except Exception:
            return expr
    return expr


def _evaluate_constant(expr: rex.RexCall) -> rex.RexLiteral:
    """Evaluate a literal-only call against a one-row dummy batch."""
    from ..common.rows import Column
    from ..common.types import INT
    from ..exec.compile import evaluate
    schema = Schema([Column("__d__", INT)])
    batch = VectorBatch.from_rows(schema, [(0,)])
    return rex.RexLiteral(evaluate(expr, batch).value(0), expr.dtype)


# --------------------------------------------------------------------------- #
# predicate pushdown


def push_down_predicates(root: rel.RelNode) -> rel.RelNode:
    """Move filter conjuncts toward the scans (up to a fixpoint)."""
    for _ in range(10):
        new_root = _push_once(root)
        if new_root.digest == root.digest:
            return new_root
        root = new_root
    return root


def _push_once(root: rel.RelNode) -> rel.RelNode:
    def rule(node: rel.RelNode) -> Optional[rel.RelNode]:
        if not isinstance(node, rel.Filter):
            return None
        return _push_filter(node)

    return rel.transform_bottom_up(root, rule)


def _push_filter(node: rel.Filter) -> Optional[rel.RelNode]:
    child = node.input
    conjuncts = rex.conjunctions(node.condition)

    if isinstance(child, rel.Filter):
        merged = rex.make_and(conjuncts + rex.conjunctions(child.condition))
        return rel.Filter(child.input, merged)

    if isinstance(child, rel.Project):
        pushable, stuck = [], []
        for conjunct in conjuncts:
            inlined = _inline_through_project(conjunct, child)
            if inlined is not None:
                pushable.append(inlined)
            else:
                stuck.append(conjunct)
        if not pushable:
            return None
        new_child = rel.Project(
            rel.Filter(child.input, rex.make_and(pushable)),
            child.exprs, child.names)
        if stuck:
            return rel.Filter(new_child, rex.make_and(stuck))
        return new_child

    if isinstance(child, rel.Join):
        return _push_into_join(node, child, conjuncts)

    if isinstance(child, rel.Union):
        pushed = tuple(rel.Filter(branch, node.condition)
                       for branch in child.rels)
        return rel.Union(pushed, child.all)

    if isinstance(child, rel.Aggregate):
        key_positions = set(range(len(child.group_keys)))
        pushable, stuck = [], []
        for conjunct in conjuncts:
            if rex.references_only(conjunct, key_positions):
                remapped = rex.remap_refs(
                    conjunct, lambda i: child.group_keys[i])
                pushable.append(remapped)
            else:
                stuck.append(conjunct)
        if not pushable:
            return None
        new_child = child.with_inputs(
            [rel.Filter(child.input, rex.make_and(pushable))])
        if stuck:
            return rel.Filter(new_child, rex.make_and(stuck))
        return new_child

    if isinstance(child, rel.TableScan):
        return _attach_sargs(node, child, conjuncts)

    return None


def _inline_through_project(conjunct: rex.RexNode,
                            project: rel.Project) -> Optional[rex.RexNode]:
    """Rewrite a predicate over project outputs to one over its input.

    Only safe when every referenced output is deterministic; we inline
    the projected expressions directly.
    """
    ok = True

    def rewrite(expr: rex.RexNode) -> rex.RexNode:
        nonlocal ok
        if isinstance(expr, rex.RexInputRef):
            return project.exprs[expr.index]
        if isinstance(expr, rex.RexCall):
            return rex.RexCall(expr.op,
                               tuple(rewrite(o) for o in expr.operands),
                               expr.dtype)
        return expr

    result = rewrite(conjunct)
    return result if ok else None


def _push_into_join(node: rel.Filter, join: rel.Join,
                    conjuncts: list[rex.RexNode]) -> Optional[rel.RelNode]:
    left_width = len(join.left.schema)
    left_set = set(range(left_width))
    right_set = set(range(left_width, left_width + len(join.right.schema)))
    to_left, to_right, to_join, stuck = [], [], [], []
    for conjunct in conjuncts:
        refs = conjunct.input_refs()
        if refs <= left_set and join.kind in ("inner", "left", "semi",
                                              "anti"):
            to_left.append(conjunct)
        elif refs <= right_set and join.kind in ("inner", "right"):
            to_right.append(rex.shift_refs(conjunct, -left_width))
        elif join.kind == "inner":
            to_join.append(conjunct)
        else:
            stuck.append(conjunct)
    if not to_left and not to_right and not to_join:
        return None
    left = join.left
    right = join.right
    if to_left:
        left = rel.Filter(left, rex.make_and(to_left))
    if to_right:
        right = rel.Filter(right, rex.make_and(to_right))
    condition = join.condition
    if to_join:
        condition = rex.make_and(
            rex.conjunctions(condition) + to_join)
    new_join = rel.Join(left, right, join.kind, condition)
    if stuck:
        return rel.Filter(new_join, rex.make_and(stuck))
    return new_join


def _attach_sargs(node: rel.Filter, scan: rel.TableScan,
                  conjuncts: list[rex.RexNode]) -> Optional[rel.RelNode]:
    """Record sargable conjuncts on the scan for row-group pruning.

    The filter is kept — sargs only *skip* row groups, exact filtering
    still happens above (as in Hive/ORC).
    """
    sargable = tuple(c for c in conjuncts if is_sargable(c))
    if set(s.digest for s in sargable) == set(
            s.digest for s in scan.sarg_conjuncts):
        return None
    new_scan = rel.TableScan(
        scan.table_name, scan.schema, scan.pruned_partitions, sargable,
        scan.semijoin_sources, scan.pushed_query, scan.scan_id)
    return rel.Filter(new_scan, node.condition)


def is_sargable(conjunct: rex.RexNode) -> bool:
    """column <op> literal, column IN (literals), with op sargable."""
    if not isinstance(conjunct, rex.RexCall):
        return False
    if conjunct.op in ("=", "<", "<=", ">", ">="):
        a, b = conjunct.operands
        return (isinstance(a, rex.RexInputRef)
                and isinstance(b, rex.RexLiteral)
                and b.value is not None) or (
            isinstance(b, rex.RexInputRef)
            and isinstance(a, rex.RexLiteral) and a.value is not None)
    if conjunct.op == "IN":
        return (isinstance(conjunct.operands[0], rex.RexInputRef)
                and all(isinstance(v, rex.RexLiteral)
                        and v.value is not None
                        for v in conjunct.operands[1:]))
    return False


# --------------------------------------------------------------------------- #
# static partition pruning


def prune_partitions(root: rel.RelNode, hms: HiveMetastore) -> rel.RelNode:
    """Evaluate sargs against partition values and record survivors."""

    def rule(node: rel.RelNode) -> Optional[rel.RelNode]:
        if not isinstance(node, rel.TableScan) or not node.sarg_conjuncts:
            return None
        if node.pushed_query is not None:
            return None
        table = hms.get_table(node.table_name)
        if not table.is_partitioned or not table.partitions:
            return None
        part_width = len(table.partition_columns)
        data_width = len(table.schema)
        part_ordinals = set(range(data_width, data_width + part_width))
        relevant = [c for c in node.sarg_conjuncts
                    if c.input_refs() and c.input_refs() <= part_ordinals]
        # scans may already be column-pruned: ordinals then differ, so
        # re-derive partition ordinals from the scan schema by name
        if not relevant:
            name_ords = {}
            for i, col in enumerate(node.schema):
                name_ords[col.name.lower()] = i
            part_ords_by_name = {
                name_ords[c.name.lower()]
                for c in table.partition_columns
                if c.name.lower() in name_ords}
            relevant = [c for c in node.sarg_conjuncts
                        if c.input_refs()
                        and c.input_refs() <= part_ords_by_name]
            if not relevant:
                return None
            part_ordinals = part_ords_by_name
        survivors = []
        from ..exec.compile import DEFAULT_CONTEXT, compile_predicate
        holds = [compile_predicate(conjunct) for conjunct in relevant]
        for descriptor in table.list_partitions():
            row = _partition_row(node.schema, table, descriptor)
            batch = VectorBatch.from_rows(node.schema, [row])
            if all(h(batch, DEFAULT_CONTEXT)[0] for h in holds):
                survivors.append(descriptor.values)
        return rel.TableScan(
            node.table_name, node.schema, tuple(survivors),
            node.sarg_conjuncts, node.semijoin_sources, node.pushed_query,
            node.scan_id)

    return rel.transform_bottom_up(root, rule)


def _partition_row(schema: Schema, table, descriptor) -> tuple:
    """A synthetic row carrying the partition values (rest is NULL)."""
    values = {c.name.lower(): v for c, v in
              zip(table.partition_columns, descriptor.values)}
    return tuple(values.get(col.name.lower()) for col in schema)
