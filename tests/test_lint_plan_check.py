"""repro.lint layer 1: plan-invariant validation.

Covers the structural checks themselves, the optimizer integration
(a deliberately broken rule is caught with a stage-naming diagnostic),
EXPLAIN VALIDATE, and rule idempotence on TPC-DS-style plans.
"""

import pytest

from repro.common.rows import Column, Schema
from repro.common.types import BOOLEAN, DOUBLE, INT, STRING
from repro.config import HiveConf
from repro.errors import ConfigError, PlanInvariantError
from repro.fs import SimFileSystem
from repro.lint import check_plan, plan_violations, render_plan_diff
from repro.metastore.hms import HiveMetastore
from repro.metastore.stats import TableStatistics
from repro.optimizer import Optimizer
from repro.optimizer import planner as planner_module
from repro.optimizer.pruning import prune_columns
from repro.optimizer.rules_basic import (fold_constants,
                                         push_down_predicates)
from repro.plan import relnodes as rel
from repro.plan.rexnodes import (RexCall, RexInputRef, RexLiteral,
                                 make_call)
from repro.sql.analyzer import Analyzer
from repro.sql.parser import parse_query

T = Schema([Column("a", INT), Column("b", STRING), Column("c", DOUBLE)])
U = Schema([Column("k", INT), Column("x", INT)])

# TPC-DS-style star schema for the idempotence tests
STORE_SALES = Schema([Column("ss_sold_date_sk", INT),
                      Column("ss_item_sk", INT),
                      Column("ss_quantity", INT),
                      Column("ss_sales_price", DOUBLE)])
DATE_DIM = Schema([Column("d_date_sk", INT), Column("d_year", INT),
                   Column("d_moy", INT)])
ITEM = Schema([Column("i_item_sk", INT), Column("i_category", STRING)])


def scan(schema=T, name="default.t", **kw):
    return rel.TableScan(name, schema, **kw)


def ref(i, dtype=INT):
    return RexInputRef(i, dtype)


def lit(value, dtype=INT):
    return RexLiteral(value, dtype)


@pytest.fixture
def tpcds_env():
    hms = HiveMetastore(SimFileSystem())
    for name, schema, rows in (
            ("store_sales", STORE_SALES,
             [(d % 30, d % 11, d % 7, float(d)) for d in range(2000)]),
            ("date_dim", DATE_DIM,
             [(d, 1998 + d % 5, 1 + d % 12) for d in range(30)]),
            ("item", ITEM,
             [(i, "cat%d" % (i % 4)) for i in range(11)])):
        table = hms.create_table("default", name, schema)
        hms.set_statistics(table, TableStatistics.from_rows(schema, rows))
    return hms


def analyze(hms, sql):
    return Analyzer(hms, HiveConf()).analyze_query(parse_query(sql))


# --------------------------------------------------------------------------- #
class TestPlanViolations:
    def test_valid_plan_has_no_violations(self):
        plan = rel.Sort(
            rel.Project(
                rel.Filter(scan(), make_call(">", ref(0), lit(1),
                                             dtype=BOOLEAN)),
                (ref(0), ref(2, DOUBLE)), ("a", "c")),
            (rel.SortKey(0),), fetch=10)
        assert plan_violations(plan) == []

    def test_out_of_range_input_ref(self):
        bad = rel.Filter(scan(), make_call(">", ref(7), lit(1),
                                           dtype=BOOLEAN))
        problems = plan_violations(bad)
        assert any("$7" in p and "out of range" in p for p in problems)

    def test_ref_dtype_mismatch(self):
        # column 1 is STRING but the ref claims INT
        bad = rel.Project(scan(), (ref(1, INT),), ("b",))
        assert any("typed" in p and "is" in p
                   for p in plan_violations(bad))

    def test_non_boolean_filter_condition(self):
        bad = rel.Filter(scan(), make_call("+", ref(0), lit(1),
                                           dtype=INT))
        assert any("expected BOOLEAN" in p for p in plan_violations(bad))

    def test_shared_node_object(self):
        shared = scan()
        bad = rel.Join(shared, shared, "inner",
                       make_call("=", ref(0), ref(3), dtype=BOOLEAN))
        assert any("appears twice" in p for p in plan_violations(bad))

    def test_cycle_reported_not_crashed(self):
        a = rel.Limit(scan(), 1)
        object.__setattr__(a, "input", a)  # reprolint: disable=RL003
        assert any("appears twice" in p for p in plan_violations(a))

    def test_aggregate_group_key_out_of_range(self):
        # schema derivation itself dies indexing column 9 — the
        # validator reports that instead of crashing
        bad = rel.Aggregate(scan(), (9,), (), ("g",))
        assert any("schema derivation failed" in p
                   for p in plan_violations(bad))

    def test_aggregate_arg_out_of_range(self):
        call = rel.AggregateCall("sum", 42, DOUBLE, "s")
        bad = rel.Aggregate(scan(), (0,), (call,), ("a",))
        assert any("arg $42" in p for p in plan_violations(bad))

    def test_grouping_set_member_not_a_key_position(self):
        bad = rel.Aggregate(scan(), (0, 1), (), ("a", "b"),
                            grouping_sets=((0,), (5,)))
        assert any("grouping set member 5" in p
                   for p in plan_violations(bad))

    def test_sort_key_out_of_range_and_negative_fetch(self):
        bad = rel.Sort(scan(), (rel.SortKey(11),), fetch=-1)
        problems = plan_violations(bad)
        assert any("sort key $11" in p for p in problems)
        assert any("negative fetch" in p for p in problems)

    def test_negative_limit(self):
        assert any("negative limit" in p
                   for p in plan_violations(rel.Limit(scan(), -3)))

    def test_unknown_join_kind(self):
        bad = rel.Join(scan(), scan(U, "default.u", scan_id=1), "sideways")
        assert any("unknown join kind" in p for p in plan_violations(bad))

    def test_semi_join_condition_sees_both_sides(self):
        # a semi join outputs the left schema only, but its condition is
        # resolved against left ++ right — $3 is legal here
        plan = rel.Join(scan(), scan(U, "default.u", scan_id=1), "semi",
                        make_call("=", ref(0), ref(3), dtype=BOOLEAN))
        assert plan_violations(plan) == []

    def test_union_branch_type_mismatch(self):
        bad = rel.Union((rel.Project(scan(), (ref(0),), ("a",)),
                         rel.Project(scan(T, scan_id=1),
                                     (ref(1, STRING),), ("a",))))
        assert any("column types" in p for p in plan_violations(bad))

    def test_values_row_width(self):
        bad = rel.Values(Schema([Column("a", INT), Column("b", INT)]),
                         ((1, 2), (3,)))
        assert any("row 1" in p for p in plan_violations(bad))

    def test_digest_embedding_object_address(self):
        bad = scan(pushed_query=object())
        assert any("object address" in p for p in plan_violations(bad))

    def test_window_ordinal_out_of_range(self):
        call = rel.WindowCall("rank", None, (8,), (), INT, "r")
        bad = rel.Window(scan(), (call,))
        assert any("ordinal $8" in p for p in plan_violations(bad))

    def test_sarg_must_be_boolean_over_scan_schema(self):
        bad = scan(sarg_conjuncts=(make_call("+", ref(0), lit(1),
                                             dtype=INT),))
        assert any("sarg #0" in p for p in plan_violations(bad))


class TestCheckPlan:
    def test_ok_returns_none(self):
        assert check_plan(scan(), stage="unit") is None

    def test_raises_with_stage_and_diff(self):
        before = rel.Project(scan(), (ref(0), ref(1, STRING)), ("a", "b"))
        after = rel.Sort(rel.Project(scan(), (ref(0),), ("a",)),
                         (rel.SortKey(1),))
        with pytest.raises(PlanInvariantError) as excinfo:
            check_plan(after, stage="bad_rule", before=before)
        err = excinfo.value
        assert err.stage == "bad_rule"
        assert err.violations
        assert "-" in err.diff and "+" in err.diff
        assert "bad_rule" in str(err)

    def test_render_plan_diff_is_unified(self):
        a = rel.Limit(scan(), 5)
        b = rel.Limit(scan(), 7)
        diff = render_plan_diff(a, b)
        assert "--- before" in diff and "+++ after" in diff


# --------------------------------------------------------------------------- #
class TestOptimizerIntegration:
    def test_broken_rule_caught_with_stage_name(self, tpcds_env,
                                                monkeypatch):
        """A rule that drops a projection column out from under a Sort
        is caught immediately after its stage, naming the stage."""
        def drops_a_column(root):
            def fix(node):
                node = node.with_inputs([fix(c) for c in node.inputs])
                if isinstance(node, rel.Sort) \
                        and isinstance(node.input, rel.Project):
                    proj = node.input
                    broken = rel.Project(proj.input, proj.exprs[:-1],
                                         proj.names[:-1])
                    return node.with_inputs([broken])
                return node
            return fix(root)

        monkeypatch.setattr(planner_module, "fold_constants",
                            drops_a_column)
        conf = HiveConf(check_plan="on")
        plan = analyze(tpcds_env, """
            SELECT ss_item_sk, sum(ss_sales_price) AS total
            FROM store_sales GROUP BY ss_item_sk ORDER BY total""")
        with pytest.raises(PlanInvariantError) as excinfo:
            Optimizer(tpcds_env, conf).optimize(plan)
        assert excinfo.value.stage == "constant_folding"
        assert "out of range" in str(excinfo.value)
        assert excinfo.value.diff  # before/after plan diff included

    def test_paranoid_names_the_individual_rule(self, tpcds_env,
                                                monkeypatch):
        def breaks_prune(root):
            if isinstance(root, rel.Sort) \
                    and isinstance(root.input, rel.Project):
                proj = root.input
                return root.with_inputs([rel.Project(
                    proj.input, proj.exprs[:-1], proj.names[:-1])])
            return root

        monkeypatch.setattr(planner_module, "choose_build_sides",
                            lambda root, stats: breaks_prune(root))
        conf = HiveConf(check_plan="paranoid")
        plan = analyze(tpcds_env, """
            SELECT d_year, sum(ss_sales_price) AS total
            FROM store_sales JOIN date_dim
              ON ss_sold_date_sk = d_date_sk
            GROUP BY d_year ORDER BY total""")
        with pytest.raises(PlanInvariantError) as excinfo:
            Optimizer(tpcds_env, conf).optimize(plan)
        assert excinfo.value.stage == "join_reordering.build_sides"

    def test_stages_checked_recorded(self, tpcds_env):
        conf = HiveConf(check_plan="on")
        plan = analyze(tpcds_env,
                       "SELECT ss_item_sk FROM store_sales "
                       "WHERE ss_quantity > 2")
        optimized = Optimizer(tpcds_env, conf).optimize(plan)
        assert "constant_folding" in optimized.stages_checked
        assert "filter_pushdown" in optimized.stages_checked

    def test_off_mode_checks_nothing(self, tpcds_env):
        conf = HiveConf(check_plan="off")
        plan = analyze(tpcds_env, "SELECT ss_item_sk FROM store_sales")
        optimized = Optimizer(tpcds_env, conf).optimize(plan)
        assert optimized.stages_checked == []


class TestCheckPlanConfig:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError, match="check_plan"):
            HiveConf(check_plan="sometimes").validate()
        with pytest.raises(ConfigError, match="check_plan"):
            HiveConf.v3_profile().copy(check_plan="bogus")

    def test_boolean_synonyms(self):
        assert HiveConf(check_plan="true").plan_check_mode == "on"
        assert HiveConf(check_plan="FALSE").plan_check_mode == "off"

    def test_session_construction_validates(self):
        import repro
        server = repro.HiveServer2(HiveConf.v3_profile())
        server.conf.check_plan = "garbage"
        with pytest.raises(ConfigError):
            server.connect()  # Session copies + validates the conf


class TestExplainValidate:
    CORPUS = [
        "SELECT a, b FROM t WHERE a > 1",
        "SELECT b, count(*) FROM t GROUP BY b HAVING count(*) > 0",
        "SELECT t.a, u.x FROM t JOIN u ON t.a = u.k WHERE u.x > 10",
        "SELECT a FROM t UNION ALL SELECT k FROM u",
        "SELECT a, sum(c) OVER (PARTITION BY b) FROM t",
        "SELECT a, b, count(*) FROM t GROUP BY ROLLUP (a, b)",
        "WITH big AS (SELECT a FROM t WHERE a > 1) "
        "SELECT * FROM big ORDER BY a LIMIT 2",
        "SELECT a FROM t WHERE a IN (SELECT k FROM u)",
    ]

    def test_ok_for_query_corpus(self, loaded_session):
        for sql in self.CORPUS:
            result = loaded_session.execute(f"EXPLAIN VALIDATE {sql}")
            lines = [row[0] for row in result.rows]
            assert lines[-1].startswith("result: OK"), (sql, lines)
            assert any(line.startswith("check: OK") for line in lines)

    def test_runs_even_when_session_checking_is_off(self, loaded_session):
        loaded_session.execute("SET hive.check.plan=off")
        result = loaded_session.execute(
            "EXPLAIN VALIDATE SELECT a FROM t")
        assert result.rows[-1][0].startswith("result: OK")
        assert result.operation == "explain_validate"

    def test_unparse_round_trip(self):
        from repro.sql.parser import parse_statement
        stmt = parse_statement("EXPLAIN VALIDATE SELECT a FROM t",
                               HiveConf())
        assert stmt.validate and not stmt.analyze
        assert stmt.unparse().startswith("EXPLAIN VALIDATE")


# --------------------------------------------------------------------------- #
class TestRuleIdempotence:
    """fold/pushdown/prune must be fixpoints: running a rule on its own

    output changes nothing (digest-identical), and the output is valid."""

    QUERIES = [
        """SELECT d_year, i_category, sum(ss_sales_price) AS total
           FROM store_sales
           JOIN date_dim ON ss_sold_date_sk = d_date_sk
           JOIN item ON ss_item_sk = i_item_sk
           WHERE d_moy = 11 AND 1 + 1 = 2
           GROUP BY d_year, i_category ORDER BY total DESC LIMIT 10""",
        """SELECT ss_item_sk, count(*) FROM store_sales
           WHERE ss_quantity > 2 + 1 AND ss_sales_price < 100.0
           GROUP BY ss_item_sk""",
        """SELECT d_year, avg(ss_quantity)
           FROM store_sales JOIN date_dim
             ON ss_sold_date_sk = d_date_sk
           WHERE d_year BETWEEN 1998 AND 2000
           GROUP BY d_year""",
    ]

    @pytest.mark.parametrize("rule", [fold_constants,
                                      push_down_predicates,
                                      prune_columns],
                             ids=["fold", "pushdown", "prune"])
    def test_rule_twice_is_fixpoint(self, tpcds_env, rule):
        for sql in self.QUERIES:
            plan = analyze(tpcds_env, sql)
            once = rule(plan)
            assert plan_violations(once) == []
            twice = rule(once)
            assert twice.digest == once.digest, rule.__name__

    def test_whole_pipeline_twice_is_fixpoint(self, tpcds_env):
        for sql in self.QUERIES:
            plan = analyze(tpcds_env, sql)
            for rule in (fold_constants, push_down_predicates,
                         prune_columns):
                plan = rule(plan)
            again = plan
            for rule in (fold_constants, push_down_predicates,
                         prune_columns):
                again = rule(again)
            assert again.digest == plan.digest
            assert plan_violations(again) == []
