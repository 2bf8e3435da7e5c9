"""Catalog objects stored in the Metastore.

Tables carry everything the paper's HMS records: schema, the
``PARTITIONED BY`` layout (Section 3.1), ACID-ness, integrity constraints
(used by the MV rewriting algorithm of Section 4.4), storage handler
bindings for federated tables (Section 6.1), materialized-view metadata,
and free-form table properties (e.g. the MV staleness window).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..common.rows import Column, Schema
from ..errors import CatalogError


class TableKind(enum.Enum):
    MANAGED = "MANAGED_TABLE"
    EXTERNAL = "EXTERNAL_TABLE"
    MATERIALIZED_VIEW = "MATERIALIZED_VIEW"


@dataclass(frozen=True)
class ForeignKey:
    """FOREIGN KEY (columns) REFERENCES ref_table (ref_columns)."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass
class Constraints:
    """Declared (not enforced) integrity constraints, per Section 4.4."""

    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    unique_keys: list[tuple[str, ...]] = field(default_factory=list)
    not_null: frozenset[str] = frozenset()


@dataclass
class MaterializedViewInfo:
    """Metadata attached to a materialized view.

    ``source_tables`` and ``snapshot_write_ids`` pin the view contents to
    the transactional snapshot it was built from; the rewrite engine
    compares them against current table states to decide freshness
    (Section 4.4, "materialized view lifecycle").
    """

    definition_sql: str
    source_tables: tuple[str, ...]
    snapshot_write_ids: dict[str, int] = field(default_factory=dict)
    rebuild_time: float = 0.0
    allowed_staleness_s: float = 0.0
    enabled_for_rewrite: bool = True


#: the directory name of a NULL partition value, as in Hive: NULL and
#: the string ``'None'`` must not share a directory
DEFAULT_PARTITION_NAME = "__HIVE_DEFAULT_PARTITION__"


def partition_spec(partition_cols: Sequence[Column], values: tuple) -> str:
    """``p=v/q=w``: a partition's directory below its table's."""
    return "/".join(
        f"{c.name}={DEFAULT_PARTITION_NAME if v is None else v}"
        for c, v in zip(partition_cols, values))


@dataclass
class PartitionDescriptor:
    """One horizontal partition: its values and directory."""

    values: tuple
    location: str

    def spec_string(self, partition_cols: Sequence[Column]) -> str:
        return partition_spec(partition_cols, self.values)


@dataclass
class TableDescriptor:
    """Everything HMS knows about one table."""

    database: str
    name: str
    schema: Schema
    partition_columns: tuple[Column, ...] = ()
    kind: TableKind = TableKind.MANAGED
    file_format: str = "orc"
    is_acid: bool = False
    location: str = ""
    storage_handler: Optional[str] = None
    properties: dict = field(default_factory=dict)
    constraints: Constraints = field(default_factory=Constraints)
    mv_info: Optional[MaterializedViewInfo] = None
    partitions: dict[tuple, PartitionDescriptor] = field(default_factory=dict)
    bloom_filter_columns: tuple[str, ...] = ()

    def __post_init__(self):
        overlap = {c.name.lower() for c in self.partition_columns} & {
            c.name.lower() for c in self.schema}
        if overlap:
            raise CatalogError(
                f"partition columns duplicate data columns: {sorted(overlap)}")

    # -- identity ----------------------------------------------------------- #
    @property
    def qualified_name(self) -> str:
        return f"{self.database}.{self.name}"

    @property
    def is_partitioned(self) -> bool:
        return bool(self.partition_columns)

    @property
    def is_materialized_view(self) -> bool:
        return self.kind is TableKind.MATERIALIZED_VIEW

    # -- schema views ------------------------------------------------------- #
    def full_schema(self) -> Schema:
        """Data columns followed by partition columns (scan output)."""
        return Schema(list(self.schema.columns) +
                      list(self.partition_columns))

    def partition_schema(self) -> Schema:
        return Schema(self.partition_columns)

    # -- partitions --------------------------------------------------------- #
    def add_partition(self, values: tuple, location: str) -> PartitionDescriptor:
        if len(values) != len(self.partition_columns):
            raise CatalogError(
                f"{self.qualified_name}: partition spec has {len(values)} "
                f"values, table has {len(self.partition_columns)} partition "
                "columns")
        if values in self.partitions:
            raise CatalogError(
                f"partition {values} already exists in {self.qualified_name}")
        descriptor = PartitionDescriptor(values, location)
        self.partitions[values] = descriptor
        return descriptor

    def get_partition(self, values: tuple) -> PartitionDescriptor:
        try:
            return self.partitions[values]
        except KeyError:
            raise CatalogError(
                f"no partition {values} in {self.qualified_name}") from None

    def drop_partition(self, values: tuple) -> PartitionDescriptor:
        descriptor = self.get_partition(values)
        del self.partitions[values]
        return descriptor

    def list_partitions(self) -> list[PartitionDescriptor]:
        return [self.partitions[k] for k in sorted(self.partitions,
                                                   key=repr)]


@dataclass
class Database:
    name: str
    tables: dict[str, TableDescriptor] = field(default_factory=dict)
    comment: str = ""
