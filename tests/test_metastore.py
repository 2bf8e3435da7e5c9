"""HMS catalog, partitions, additive statistics, resource-plan storage."""

import pytest

from repro.common.rows import Column, Schema
from repro.common.types import DOUBLE, INT, STRING
from repro.errors import CatalogError
from repro.fs import SimFileSystem
from repro.metastore.catalog import TableKind
from repro.metastore.hms import HiveMetastore
from repro.metastore.stats import ColumnStatistics, TableStatistics


@pytest.fixture
def hms():
    return HiveMetastore(SimFileSystem())


@pytest.fixture
def schema():
    return Schema([Column("a", INT), Column("b", STRING),
                   Column("c", DOUBLE)])


class TestDatabases:
    def test_default_exists(self, hms):
        assert "default" in hms.list_databases()

    def test_create_duplicate(self, hms):
        hms.create_database("sales")
        with pytest.raises(CatalogError):
            hms.create_database("sales")
        hms.create_database("sales", if_not_exists=True)  # no raise

    def test_missing(self, hms):
        with pytest.raises(CatalogError):
            hms.get_database("nope")


class TestTables:
    def test_create_and_resolve(self, hms, schema):
        table = hms.create_table("default", "t", schema)
        assert hms.get_table("t") is table
        assert hms.get_table("default.t") is table
        assert table.location == "/warehouse/default/t"
        assert hms.fs.is_dir(table.location)

    def test_duplicate_rejected(self, hms, schema):
        hms.create_table("default", "t", schema)
        with pytest.raises(CatalogError):
            hms.create_table("default", "t", schema)

    def test_drop_purges_data(self, hms, schema):
        table = hms.create_table("default", "t", schema)
        hms.fs.create(f"{table.location}/f", b"data")
        hms.drop_table("t")
        assert not hms.fs.exists(table.location)
        assert not hms.table_exists("t")

    def test_partition_columns_must_not_overlap(self, hms, schema):
        with pytest.raises(CatalogError):
            hms.create_table("default", "t", schema,
                             partition_columns=[Column("a", INT)])

    def test_full_schema_appends_partitions(self, hms, schema):
        table = hms.create_table("default", "t", schema,
                                 partition_columns=[Column("ds", INT)])
        assert table.full_schema().names() == ["a", "b", "c", "ds"]

    def test_events_emitted(self, hms, schema):
        hms.create_table("default", "t", schema)
        hms.drop_table("t")
        kinds = [e.event_type for e in hms.events_since(0)]
        assert kinds == ["CREATE_TABLE", "DROP_TABLE"]


class TestPartitions:
    def test_add_and_layout(self, hms, schema):
        table = hms.create_table("default", "t", schema,
                                 partition_columns=[Column("ds", INT)])
        descriptor = hms.add_partition(table, (5,))
        assert descriptor.location == "/warehouse/default/t/ds=5"
        assert hms.fs.is_dir(descriptor.location)
        assert table.get_partition((5,)) is descriptor

    def test_wrong_arity(self, hms, schema):
        table = hms.create_table("default", "t", schema,
                                 partition_columns=[Column("ds", INT)])
        with pytest.raises(CatalogError):
            hms.add_partition(table, (1, 2))

    def test_duplicate_partition(self, hms, schema):
        table = hms.create_table("default", "t", schema,
                                 partition_columns=[Column("ds", INT)])
        hms.add_partition(table, (1,))
        with pytest.raises(CatalogError):
            hms.add_partition(table, (1,))
        assert hms.get_or_add_partition(table, (1,))

    def test_drop_partition_purges(self, hms, schema):
        table = hms.create_table("default", "t", schema,
                                 partition_columns=[Column("ds", INT)])
        descriptor = hms.add_partition(table, (1,))
        hms.fs.create(f"{descriptor.location}/f", b"x")
        hms.drop_partition(table, (1,))
        assert not hms.fs.exists(descriptor.location)


class TestStatistics:
    def test_column_stats_update(self):
        stats = ColumnStatistics()
        stats.update_all([5, 1, None, 9, 1])
        assert stats.null_count == 1
        assert stats.min_value == 1 and stats.max_value == 9
        assert abs(stats.ndv - 3) <= 1

    def test_nan_counts_but_bounds_nothing(self):
        stats = ColumnStatistics()
        stats.update_all([float("nan"), 5.0, None, 7.0])
        assert (stats.min_value, stats.max_value) == (5.0, 7.0)
        assert stats.null_count == 1 and stats.ndv == 3

    def test_additive_merge(self):
        left, right = ColumnStatistics(), ColumnStatistics()
        left.update_all(range(100))
        right.update_all(range(50, 150))
        merged = left.merge(right)
        assert merged.min_value == 0 and merged.max_value == 149
        assert abs(merged.ndv - 150) <= 5

    def test_table_stats_from_rows(self, schema):
        rows = [(1, "x", 1.0), (2, "y", None)]
        stats = TableStatistics.from_rows(schema, rows)
        assert stats.row_count == 2
        assert stats.column("b").ndv >= 2
        assert stats.column("c").null_count == 1

    def test_update_statistics_accumulates(self, hms, schema):
        table = hms.create_table("default", "t", schema)
        hms.update_statistics(table, TableStatistics.from_rows(
            schema, [(1, "a", 1.0)]))
        hms.update_statistics(table, TableStatistics.from_rows(
            schema, [(2, "b", 2.0)]))
        stats = hms.get_statistics(table)
        assert stats.row_count == 2
        assert stats.column("a").max_value == 2

    def test_partition_stats_roll_up(self, hms, schema):
        table = hms.create_table("default", "t", schema,
                                 partition_columns=[Column("ds", INT)])
        hms.add_partition(table, (1,))
        hms.update_statistics(table, TableStatistics.from_rows(
            schema, [(1, "a", 1.0)]), partition=(1,))
        assert hms.get_statistics(table).row_count == 1
        assert hms.get_statistics(table, (1,)).row_count == 1


class TestMaterializedViewRegistry:
    def test_listing_and_freshness(self, hms, schema):
        from repro.metastore.catalog import MaterializedViewInfo
        hms.create_table("default", "src", schema)
        info = MaterializedViewInfo(
            definition_sql="SELECT a FROM src",
            source_tables=("default.src",),
            snapshot_write_ids={"default.src": 0})
        view = hms.create_table("default", "v", Schema([Column("a", INT)]),
                                kind=TableKind.MATERIALIZED_VIEW,
                                mv_info=info)
        assert hms.list_materialized_views() == [view]
        assert hms.is_view_fresh(view)
        # simulate a write to the source
        txn = hms.txn_manager.open_transaction()
        hms.txn_manager.allocate_write_id(txn, "default.src")
        hms.txn_manager.commit(txn)
        assert not hms.is_view_fresh(view)

    def test_staleness_window(self, hms, schema):
        from repro.metastore.catalog import MaterializedViewInfo
        hms.create_table("default", "src", schema)
        info = MaterializedViewInfo(
            definition_sql="SELECT a FROM src",
            source_tables=("default.src",),
            snapshot_write_ids={"default.src": 0},
            rebuild_time=100.0, allowed_staleness_s=60.0)
        view = hms.create_table("default", "v", Schema([Column("a", INT)]),
                                kind=TableKind.MATERIALIZED_VIEW,
                                mv_info=info)
        txn = hms.txn_manager.open_transaction()
        hms.txn_manager.allocate_write_id(txn, "default.src")
        hms.txn_manager.commit(txn)
        assert hms.is_view_fresh(view, now_s=120.0)    # within window
        assert not hms.is_view_fresh(view, now_s=200.0)


class TestResourcePlans:
    def test_save_activate(self, hms):
        hms.save_resource_plan("daytime", object())
        with pytest.raises(CatalogError):
            hms.activate_resource_plan("nighttime")
        hms.activate_resource_plan("daytime")
        assert hms.active_resource_plan() is not None
