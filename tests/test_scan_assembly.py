"""One copy per scan: the partition assembly, NULL partitions, read-only
LLAP chunks and the locks of the shared LLAP objects.

The property suite builds random partitioned tables and runs the same
scan through ``ScanExecutor`` and through the displaced per-partition
assembly in tests/scan_oracle.py, demanding equal vectors (dtype, data,
nulls) and equal ``ScanMetrics``.
"""

import datetime
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.acid.reader import ReadMetrics
from repro.acid.writer import ACID_META_COLUMNS
from repro.common.rows import Schema
from repro.config import HiveConf
from repro.llap.cache import ChunkKey, LlapCache
from repro.llap.elevator import LlapReaderFactory
from repro.metastore.catalog import DEFAULT_PARTITION_NAME
from repro.plan import relnodes as rel
from repro.runtime.scan import ScanExecutor

from .scan_oracle import OracleScanExecutor


def connect():
    return repro.HiveServer2(HiveConf.v3_profile()).connect()


# --------------------------------------------------------------------------- #
# a NULL partition value is NULL

NULL_CASES = [
    ("INT", "5", 5),
    ("STRING", "'x'", "x"),
    ("DATE", "DATE '2020-01-02'", datetime.date(2020, 1, 2)),
]


@pytest.mark.parametrize("ptype,literal,value", NULL_CASES,
                         ids=[case[0] for case in NULL_CASES])
class TestNullPartitionValue:
    @pytest.fixture
    def session(self, ptype, literal, value):
        session = connect()
        session.execute(f"CREATE TABLE t (a INT) PARTITIONED BY (p {ptype})")
        session.execute(f"INSERT INTO t VALUES (1, {literal}), (2, NULL)")
        return session

    def test_reads_back_as_null(self, session, ptype, literal, value):
        assert session.execute("SELECT a, p FROM t ORDER BY a").rows == [
            (1, value), (2, None)]

    def test_is_null_finds_it(self, session, ptype, literal, value):
        assert session.execute(
            "SELECT a FROM t WHERE p IS NULL").rows == [(2,)]
        assert session.execute(
            "SELECT COUNT(*) FROM t WHERE p IS NULL").rows == [(1,)]

    def test_count_skips_it(self, session, ptype, literal, value):
        assert session.execute("SELECT COUNT(p) FROM t").rows == [(1,)]


class TestNullPartitionDirectory:
    def test_null_and_the_string_none_are_two_partitions(self):
        session = connect()
        session.execute("CREATE TABLE u (a INT) PARTITIONED BY (p STRING)")
        session.execute("INSERT INTO u VALUES (1, 'None'), (2, NULL)")
        assert session.execute("SELECT a, p FROM u ORDER BY a").rows == [
            (1, "None"), (2, None)]
        assert sorted(session.execute("SHOW PARTITIONS u").rows) == [
            ("p=None",), (f"p={DEFAULT_PARTITION_NAME}",)]
        table = session.server.hms.get_table("u")
        assert table.get_partition((None,)).location.endswith(
            f"/p={DEFAULT_PARTITION_NAME}")


# --------------------------------------------------------------------------- #
# parity with the per-partition assembly

PARTITION_VALUES = {
    "INT": st.integers(-5, 5),
    "BIGINT": st.integers(-2 ** 40, 2 ** 40),
    "STRING": st.sampled_from(["x", "None", "y z"]),
    "DATE": st.dates(datetime.date(1999, 12, 30),
                     datetime.date(2000, 1, 3)),
    "DOUBLE": st.sampled_from([0.5, -1.25, 3.0]),
}


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    return repr(value)


@st.composite
def scenarios(draw):
    ptype = draw(st.sampled_from(sorted(PARTITION_VALUES)))
    acid = draw(st.booleans())
    values = draw(st.lists(st.one_of(st.none(), PARTITION_VALUES[ptype]),
                           unique=True, max_size=4))
    # 0 rows: a partition directory with no files
    sizes = [draw(st.integers(0, 4)) for _ in values]
    delete_below = draw(st.one_of(st.none(), st.integers(0, 12))) \
        if acid else None
    names = draw(st.lists(st.sampled_from(["a", "s", "c", "p"]),
                          min_size=1, max_size=4, unique=True))
    row_ids = acid and draw(st.booleans())
    pruned = None
    if values and draw(st.booleans()):
        pruned = draw(st.lists(st.sampled_from(values), unique=True))
    return ptype, acid, values, sizes, delete_below, names, row_ids, pruned


def build(ptype, acid, values, sizes, delete_below):
    session = connect()
    session.execute(
        f"CREATE TABLE t (a INT, s STRING, c DOUBLE) PARTITIONED BY "
        f"(p {ptype}) TBLPROPERTIES ('transactional'='{str(acid).lower()}')")
    table = session.server.hms.get_table("t")
    a = 0
    for value, size in zip(values, sizes):
        if not size:
            session.server.hms.add_partition(table, (value,))
            continue
        rows = []
        for _ in range(size):
            s = "NULL" if a % 3 == 0 else f"'s{a % 4}'"
            c = "NULL" if a % 4 == 1 else repr(a * 0.5)
            rows.append(f"({a}, {s}, {c}, {literal(value)})")
            a += 1
        session.execute(f"INSERT INTO t VALUES {', '.join(rows)}")
    if delete_below is not None:
        session.execute(f"DELETE FROM t WHERE a < {delete_below}")
    return session, table


def scan(executor_class, session, table, node, reader_factory=None):
    hms = session.server.hms
    valid = {table.qualified_name: hms.txn_manager.valid_write_ids(
        hms.txn_manager.get_snapshot(), table.qualified_name)}
    executor = executor_class(hms, session.server.fs, reader_factory,
                              valid, {})
    return executor(node), executor.metrics[node.digest]


def assert_same(batch, expected):
    assert batch.schema.names() == expected.schema.names()
    assert batch.num_rows == expected.num_rows
    for got, want in zip(batch.vectors, expected.vectors):
        assert got.dtype == want.dtype
        assert got.data.dtype == want.data.dtype
        assert got.data.tolist() == want.data.tolist()
        assert got.nulls.tolist() == want.nulls.tolist()


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_scan_matches_the_per_partition_assembly(scenario):
    ptype, acid, values, sizes, delete_below, names, row_ids, pruned = \
        scenario
    session, table = build(ptype, acid, values, sizes, delete_below)
    full = table.full_schema()
    columns = [full.field(n) for n in names]
    if row_ids:
        columns += list(ACID_META_COLUMNS)
    node = rel.TableScan(
        table.qualified_name, Schema(columns),
        pruned_partitions=None if pruned is None else tuple(
            (v,) for v in pruned))
    batch, metrics = scan(ScanExecutor, session, table, node)
    expected, expected_metrics = scan(OracleScanExecutor, session, table,
                                      node)
    assert_same(batch, expected)
    assert metrics == expected_metrics
    # warm LLAP reads hand cached chunks out by reference: same result
    warm = []
    for executor_class in (ScanExecutor, OracleScanExecutor):
        factory = LlapReaderFactory(session.server.fs, LlapCache(1 << 20))
        scan(executor_class, session, table, node, factory)
        warm.append(scan(executor_class, session, table, node, factory))
    (batch, metrics), (expected, expected_metrics) = warm
    assert_same(batch, expected)
    assert metrics == expected_metrics


def test_an_all_empty_table_scans_empty():
    session, table = build("INT", True, [1, 2], [0, 0], None)
    node = rel.TableScan(table.qualified_name, table.full_schema())
    batch, metrics = scan(ScanExecutor, session, table, node)
    assert batch.num_rows == 0
    assert batch.schema.names() == ["a", "s", "c", "p"]
    assert (metrics.partitions_total, metrics.partitions_read) == (2, 2)


# --------------------------------------------------------------------------- #
# cached chunks are read-only

def test_an_llap_served_chunk_rejects_in_place_writes():
    session = connect()
    session.execute("CREATE TABLE t (a INT, s STRING)")
    session.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
    table = session.server.hms.get_table("t")
    node = rel.TableScan(table.qualified_name, table.schema)
    factory = LlapReaderFactory(session.server.fs, LlapCache(1 << 20))
    scan(ScanExecutor, session, table, node, factory)
    batch, metrics = scan(ScanExecutor, session, table, node, factory)
    assert metrics.cache_bytes > 0 and metrics.disk_bytes == 0
    for vector in batch.vectors:
        with pytest.raises(ValueError):
            vector.data[0] = vector.data[1]
        with pytest.raises(ValueError):
            vector.nulls[0] = True
    assert session.execute("SELECT a, s FROM t ORDER BY a").rows == [
        (1, "x"), (2, None)]


# --------------------------------------------------------------------------- #
# the LLAP objects every session shares

def hammer(work, threads: int = 4) -> list:
    errors = []

    def run(worker):
        try:
            work(worker)
        except Exception as error:      # collected for the assertion
            errors.append(error)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in pool)
    return errors


def test_concurrent_eviction_keeps_the_cache_consistent(switch_interval):
    switch_interval(1e-6)
    cache = LlapCache(capacity_bytes=2000)

    def work(worker):
        for i in range(400):
            key = ChunkKey(worker * 1000 + i % 60, 100, 0, "a")
            if cache.get(key) is None:
                cache.put(key, i, 100)
            if i % 97 == 0:
                cache.invalidate_files({worker * 1000 + i % 60})

    assert hammer(work) == []
    entries = list(cache._entries.values())
    assert cache.used_bytes == sum(e.nbytes for e in entries)
    assert cache.used_bytes <= cache.capacity_bytes
    assert cache.stats.misses >= len(entries)


def test_concurrent_opens_and_forgets_keep_the_metadata_consistent(
        switch_interval):
    session = connect()
    session.execute("CREATE TABLE t (a INT) PARTITIONED BY (p INT)")
    session.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i % 8})" for i in range(32)))
    paths = [s.path for s in session.server.fs.list_files(
        session.server.hms.get_table("t").location, recursive=True)]
    factory = LlapReaderFactory(session.server.fs, LlapCache(1 << 20))
    switch_interval(1e-6)

    def work(worker):
        for round_ in range(30):
            for path in paths[worker::4]:
                reader = factory.open(path, ReadMetrics())
                reader.read_all()
            if round_ % 5 == worker:
                factory.forget([p.rsplit("/", 1)[0] for p in paths])

    assert hammer(work) == []
    keys = [key for keys in factory._by_dir.values() for key in keys]
    assert sorted(keys) == sorted(factory._metadata)
