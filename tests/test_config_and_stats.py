"""HiveConf profiles/validation and the optimizer's StatsProvider."""

import dataclasses

import pytest

from repro.common.rows import Column, Schema
from repro.common.types import DOUBLE, INT, STRING
from repro.config import KNOBS, NOT_SETTABLE, SET_NAMES, HiveConf
from repro.errors import ConfigError
from repro.fs import SimFileSystem
from repro.metastore.hms import HiveMetastore
from repro.metastore.stats import TableStatistics
from repro.optimizer.stats import StatsProvider
from repro.plan import relnodes as rel
from repro.plan.rexnodes import (AggregateCall, RexInputRef, RexLiteral,
                                 make_call)


class TestHiveConf:
    def test_copy_overrides(self):
        conf = HiveConf.v3_profile()
        clone = conf.copy(llap_enabled=False, num_nodes=3)
        assert clone.llap_enabled is False and clone.num_nodes == 3
        assert conf.llap_enabled is True      # original untouched
        assert clone.cost is not conf.cost    # deep-ish copy

    def test_copy_unknown_key(self):
        with pytest.raises(ConfigError):
            HiveConf().copy(no_such_flag=True)

    def test_validation(self):
        with pytest.raises(ConfigError):
            HiveConf(reexecution_strategy="retry").validate()
        with pytest.raises(ConfigError):
            HiveConf(semijoin_bloom_fpp=2.0).validate()
        with pytest.raises(ConfigError):
            HiveConf(num_nodes=0).validate()

    def test_every_field_is_a_knob_or_listed_not_settable(self):
        declared = [k.attr for k in KNOBS]
        assert len(set(declared)) == len(declared)
        assert set(declared).isdisjoint(NOT_SETTABLE)
        assert {f.name for f in dataclasses.fields(HiveConf)} == \
            set(declared) | set(NOT_SETTABLE)
        # SET keys are unique: no hive.* name is claimed twice
        assert len(SET_NAMES) == sum(1 + len(k.names) for k in KNOBS)
        assert all(k.scope in ("session", "server") for k in KNOBS)

    @pytest.mark.parametrize("override, bounds", [
        ({"audit_capacity": 0}, ">= 1"),
        ({"hook_timeout_s": 0.0}, "> 0.0"),
        ({"monitor_http_port": 70000}, "[0, 65535]"),
        ({"faults_io_error_rate": 1.5}, "[0.0, 1.0]"),
        ({"semijoin_bloom_fpp": 1.0}, "(0.0, 1.0)"),
        ({"reexecution_strategy": "retry"}, "one of overlay, reoptimize, off")])
    def test_bounds_come_from_the_declaration(self, override, bounds):
        (attr, value), = override.items()
        with pytest.raises(ConfigError) as error:
            HiveConf(**override).validate()
        assert str(error.value) == f"{attr} must be {bounds}, got {value!r}"

    def test_env_overrides_a_declared_default(self, monkeypatch):
        monkeypatch.setenv("HIVE_FAULTS_SEED", "9")
        monkeypatch.setenv("HIVE_CHECK_PLAN", "paranoid")
        conf = HiveConf()
        assert conf.faults_seed == 9 and conf.check_plan == "paranoid"

    def test_profiles_differ_where_the_paper_says(self):
        legacy = HiveConf.legacy_profile()
        v3 = HiveConf.v3_profile()
        for flag in ("cbo_enabled", "vectorized_execution",
                     "llap_enabled", "shared_work_optimization",
                     "semijoin_reduction", "mv_rewriting",
                     "results_cache_enabled", "support_setops",
                     "support_interval_notation"):
            assert getattr(v3, flag) and not getattr(legacy, flag), flag
        # rule-based rewrites existed in 1.2 and stay on
        assert legacy.filter_pushdown and legacy.project_pruning
        assert legacy.partition_pruning

    def test_container_profile(self):
        container = HiveConf.v3_container_profile()
        assert container.cbo_enabled and not container.llap_enabled


@pytest.fixture
def stats_env():
    hms = HiveMetastore(SimFileSystem())
    schema = Schema([Column("k", INT), Column("cat", STRING),
                     Column("v", DOUBLE)])
    table = hms.create_table("default", "t", schema)
    rows = [(i % 100, f"c{i % 4}", float(i)) for i in range(10_000)]
    hms.set_statistics(table, TableStatistics.from_rows(schema, rows))
    scan = rel.TableScan("default.t", schema)
    return hms, scan


class TestStatsProvider:
    def test_scan_cardinality(self, stats_env):
        hms, scan = stats_env
        provider = StatsProvider(hms)
        assert provider.row_count(scan) == pytest.approx(10_000)

    def test_equality_selectivity_uses_ndv(self, stats_env):
        hms, scan = stats_env
        provider = StatsProvider(hms)
        predicate = make_call("=", RexInputRef(1, STRING),
                              RexLiteral("c1", STRING))
        filtered = rel.Filter(scan, predicate)
        estimate = provider.row_count(filtered)
        assert 1500 <= estimate <= 4000       # ~1/4 of the rows

    def test_range_selectivity_uses_min_max(self, stats_env):
        hms, scan = stats_env
        provider = StatsProvider(hms)
        predicate = make_call(">", RexInputRef(2, DOUBLE),
                              RexLiteral(7500.0, DOUBLE))
        estimate = provider.row_count(rel.Filter(scan, predicate))
        assert 1500 <= estimate <= 3500       # ~25% of the range

    def test_in_selectivity(self, stats_env):
        hms, scan = stats_env
        provider = StatsProvider(hms)
        predicate = make_call("IN", RexInputRef(0, INT),
                              RexLiteral(1, INT), RexLiteral(2, INT))
        estimate = provider.row_count(rel.Filter(scan, predicate))
        assert 100 <= estimate <= 350         # 2 of ~100 keys

    def test_aggregate_bounded_by_group_ndv(self, stats_env):
        hms, scan = stats_env
        provider = StatsProvider(hms)
        aggregate = rel.Aggregate(scan, (1,), (), ("cat",))
        estimate = provider.row_count(aggregate)
        assert estimate <= 10                 # only 4 categories

    def test_join_cardinality(self, stats_env):
        hms, scan = stats_env
        provider = StatsProvider(hms)
        join = rel.Join(scan, scan, "inner",
                        make_call("=", RexInputRef(0, INT),
                                  RexInputRef(3, INT)))
        estimate = provider.row_count(join)
        # |L| * |R| / ndv(k) = 1e8 / 100 = 1e6
        assert 2e5 <= estimate <= 5e6

    def test_overrides_win(self, stats_env):
        hms, scan = stats_env
        provider = StatsProvider(hms, overrides={scan.digest: 7})
        assert provider.row_count(scan) == 7

    def test_limit_caps(self, stats_env):
        hms, scan = stats_env
        provider = StatsProvider(hms)
        assert provider.row_count(rel.Limit(scan, 5)) == 5
        assert provider.row_count(
            rel.Sort(scan, (rel.SortKey(0),), fetch=9)) == 9

    def test_unknown_table_defaults(self):
        hms = HiveMetastore(SimFileSystem())
        schema = Schema([Column("x", INT)])
        hms.create_table("default", "empty", schema)
        provider = StatsProvider(hms)
        scan = rel.TableScan("default.empty", schema)
        assert provider.row_count(scan) >= 1
