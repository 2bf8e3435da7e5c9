"""LLAP cache (LRFU, validity), I/O elevator, metadata cache, and the
charge rules of the one IO ledger on the read path."""

import pytest

from repro.acid.reader import AcidReader, ReadMetrics
from repro.acid.writer import BUCKET_FILE, AcidWriter, record_ids
from repro.common.rows import Column, Schema
from repro.common.types import INT, STRING
from repro.common.vector import VectorBatch
from repro.faults import FaultRegistry
from repro.formats.orc import OrcReader, OrcWriter
from repro.formats.text import TextWriter
from repro.fs import SimFileSystem
from repro.llap.cache import ChunkKey, LlapCache
from repro.llap.elevator import DirectReaderFactory, LlapReaderFactory
from repro.metastore.txn import ValidWriteIdList
from repro.runtime.scan import ScanExecutor, ScanMetrics


def key(file_id=1, group=0, column="a", length=100):
    return ChunkKey(file_id, length, group, column)


class TestLlapCacheBasics:
    def test_miss_then_hit(self):
        cache = LlapCache(1000)
        assert cache.get(key()) is None
        cache.put(key(), "payload", 100)
        assert cache.get(key()) == "payload"
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_capacity_enforced(self):
        cache = LlapCache(250)
        for i in range(5):
            cache.put(key(file_id=i), f"p{i}", 100)
        assert cache.used_bytes <= 250
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_oversized_chunk_never_admitted(self):
        cache = LlapCache(50)
        assert not cache.put(key(), "big", 100)
        assert len(cache) == 0

    def test_file_identity_in_key(self):
        cache = LlapCache(1000)
        cache.put(key(file_id=1, length=100), "old", 10)
        # a rewritten file has a new id/length: old chunk unreachable
        assert cache.get(key(file_id=2, length=120)) is None

    def test_invalidate_file(self):
        cache = LlapCache(1000)
        cache.put(key(file_id=7, group=0), "a", 10)
        cache.put(key(file_id=7, group=1), "b", 10)
        cache.put(key(file_id=8), "c", 10)
        assert cache.invalidate_file(7) == 2
        assert cache.get(key(file_id=8)) == "c"

    def test_invalidation_counts_as_eviction(self):
        """invalidate_file and capacity evictions move the same stats;
        otherwise evicted_bytes drifts from the resident set."""
        cache = LlapCache(1000)
        cache.put(key(file_id=7, group=0), "a", 30)
        cache.put(key(file_id=7, group=1), "b", 20)
        cache.put(key(file_id=8), "c", 10)
        cache.invalidate_file(7)
        assert cache.stats.evictions == 2
        assert cache.stats.evicted_bytes == 50
        assert cache.used_bytes == 10
        # capacity-pressure evictions accumulate into the same counters
        small = LlapCache(100)
        small.put(key(file_id=1), "x", 80)
        small.put(key(file_id=2), "y", 80)   # evicts file 1
        small.invalidate_file(2)
        assert small.stats.evictions == 2
        assert small.stats.evicted_bytes == 160
        assert small.used_bytes == 0


class TestLrfuEviction:
    def test_frequent_chunk_survives(self):
        cache = LlapCache(300, lrfu_lambda=0.1)
        cache.put(key(file_id=1), "hot", 100)
        cache.put(key(file_id=2), "cold", 100)
        for _ in range(10):
            cache.get(key(file_id=1))
        cache.put(key(file_id=3), "new", 100)
        cache.put(key(file_id=4), "newer", 100)
        assert key(file_id=1) in cache        # frequency protected it
        assert key(file_id=2) not in cache

    def test_pure_lru_behaviour_at_high_lambda(self):
        cache = LlapCache(200, lrfu_lambda=1.0)
        cache.put(key(file_id=1), "a", 100)
        cache.put(key(file_id=2), "b", 100)
        cache.get(key(file_id=1))             # 1 is now most recent
        cache.put(key(file_id=3), "c", 100)
        assert key(file_id=1) in cache
        assert key(file_id=2) not in cache


@pytest.fixture
def orc_file():
    fs = SimFileSystem()
    schema = Schema([Column("a", INT), Column("b", STRING)])
    writer = OrcWriter(schema, row_group_size=10)
    writer.write_rows([(i, f"s{i}") for i in range(50)])
    fs.create("/data/f1", writer.finish())
    return fs, schema


class TestElevator:
    def test_direct_factory_charges_disk(self, orc_file):
        fs, schema = orc_file
        io = ReadMetrics()
        reader = DirectReaderFactory(fs).open("/data/f1", io)
        reader.read_row_group(0, ["a"])
        assert io.disk_bytes > 0
        assert io.cache_bytes == 0

    def test_llap_factory_caches_chunks(self, orc_file):
        fs, schema = orc_file
        factory = LlapReaderFactory(fs, LlapCache(1 << 20))
        cold, warm = ReadMetrics(), ReadMetrics()
        factory.open("/data/f1", cold).read_row_group(0, ["a", "b"])
        assert cold.disk_bytes > 0 and cold.cache_bytes == 0
        batch = factory.open("/data/f1", warm).read_row_group(0, ["a", "b"])
        assert batch.num_rows == 10
        assert warm.disk_bytes == 0                   # no new disk IO
        assert warm.cache_bytes > 0

    def test_chunk_granularity(self, orc_file):
        """Caching column 'a' must not mark column 'b' cached."""
        fs, schema = orc_file
        factory = LlapReaderFactory(fs, LlapCache(1 << 20))
        factory.open("/data/f1", ReadMetrics()).read_row_group(0, ["a"])
        io = ReadMetrics()
        factory.open("/data/f1", io).read_row_group(0, ["b"])
        assert io.disk_bytes > 0 and io.cache_bytes == 0

    def test_metadata_cached_separately(self, orc_file):
        fs, schema = orc_file
        factory = LlapReaderFactory(fs, LlapCache(1 << 20))
        factory.open("/data/f1", ReadMetrics())
        opens_before = fs.stats.files_opened
        factory.open("/data/f1", ReadMetrics())   # footer from metadata cache
        assert fs.stats.files_opened == opens_before

    def test_new_file_version_not_served_stale(self, orc_file):
        fs, schema = orc_file
        factory = LlapReaderFactory(fs, LlapCache(1 << 20))
        factory.open("/data/f1", ReadMetrics()).read_row_group(0, ["a"])
        fs.delete("/data/f1")
        writer = OrcWriter(schema, row_group_size=10)
        writer.write_rows([(i + 1000, "zz") for i in range(10)])
        fs.create("/data/f1", writer.finish())
        batch = factory.open("/data/f1", ReadMetrics()).read_row_group(0, ["a"])
        assert batch.column("a").value(0) == 1000


# --------------------------------------------------------------------------- #
# the charge rules (DESIGN.md, "One IO ledger"): every event on the read
# path charges the ReadMetrics of the read that asked, by these rules

def _orc_sizes(fs, path):
    """(footer bytes, {(group, column): chunk bytes}) of one ORC file."""
    reader = OrcReader(fs.read(path))
    return reader.metadata_bytes, {
        (g, name): reader.column_chunk_bytes(g, name)
        for g in range(len(reader.row_groups))
        for name in reader.schema.names()}


def _charges(io):
    return {name: getattr(io, name) for name in (
        "files_opened", "metadata_bytes", "disk_bytes", "cache_bytes",
        "io_retries", "retry_bytes")}


def _acid_dir(fs, delete: bool):
    """``/t`` with one insert delta and, with ``delete``, tombstones."""
    schema = Schema([Column("a", INT), Column("b", STRING)])
    writer = AcidWriter(fs)
    writer.write_insert_delta("/t", 1, VectorBatch.from_rows(
        schema, [(i, f"s{i}") for i in range(30)]))
    if delete:
        rows, _ = AcidReader(fs).read(
            "/t", ValidWriteIdList("t", 1, frozenset()),
            include_row_ids=True)
        writer.write_delete_delta(
            "/t", 2, record_ids(rows).filter(rows.column("a").data < 5))


def _llap(fs):
    return LlapReaderFactory(fs, LlapCache(1 << 20))


def rule_llap_open_footer_not_cached(fs):
    footer, _ = _orc_sizes(fs, "/data/f1")
    io = ReadMetrics()
    _llap(fs).open("/data/f1", io)
    return io, dict(files_opened=1, metadata_bytes=footer,
                    disk_bytes=footer)


def rule_llap_open_footer_cached(fs):
    factory, io = _llap(fs), ReadMetrics()
    factory.open("/data/f1", ReadMetrics())
    factory.open("/data/f1", io)
    return io, dict(files_opened=1)


def rule_llap_chunk_miss(fs):
    _, chunks = _orc_sizes(fs, "/data/f1")
    factory, io = _llap(fs), ReadMetrics()
    factory.open("/data/f1", ReadMetrics())
    factory.open("/data/f1", io).read_row_group(1, ["a", "b"])
    return io, dict(files_opened=1,
                    disk_bytes=chunks[1, "a"] + chunks[1, "b"])


def rule_llap_chunk_hit(fs):
    _, chunks = _orc_sizes(fs, "/data/f1")
    factory, io = _llap(fs), ReadMetrics()
    factory.open("/data/f1", ReadMetrics()).read_row_group(1, ["a"])
    factory.open("/data/f1", io).read_row_group(1, ["a", "b"])
    return io, dict(files_opened=1, cache_bytes=chunks[1, "a"],
                    disk_bytes=chunks[1, "b"])


def rule_direct_open(fs):
    footer, _ = _orc_sizes(fs, "/data/f1")
    io = ReadMetrics()
    DirectReaderFactory(fs).open("/data/f1", io)
    return io, dict(files_opened=1, metadata_bytes=footer)   # not disk


def rule_direct_chunk(fs):
    footer, chunks = _orc_sizes(fs, "/data/f1")
    factory, io = DirectReaderFactory(fs), ReadMetrics()
    for _ in range(2):          # nothing is cached: the same charge twice
        factory.open("/data/f1", io).read_row_group(0, ["b"])
    return io, dict(files_opened=2, metadata_bytes=2 * footer,
                    disk_bytes=2 * chunks[0, "b"])


def rule_delete_delta_by_its_chunks(fs):
    _acid_dir(fs, delete=True)
    valid = ValidWriteIdList("t", 2, frozenset())
    data = f"/t/delta_1_1/{BUCKET_FILE}"
    tombstones = f"/t/delete_delta_2_2/{BUCKET_FILE}"
    data_footer, data_chunks = _orc_sizes(fs, data)
    footer, chunks = _orc_sizes(fs, tombstones)
    assert sum(chunks.values()) < fs.status(tombstones).length
    factory = _llap(fs)
    _, cold = AcidReader(fs, factory).read("/t", valid, columns=["a"])
    read = sum(size for (_, name), size in data_chunks.items()
               if name != "b") + sum(chunks.values())
    assert _charges(cold) == _charges(ReadMetrics(
        files_opened=2, metadata_bytes=data_footer + footer,
        disk_bytes=data_footer + footer + read))
    _, warm = AcidReader(fs, factory).read("/t", valid, columns=["a"])
    assert warm.delete_keys == warm.rows_deleted == 5
    return warm, dict(files_opened=2, cache_bytes=read)


def rule_projected_schema_open(fs):
    _acid_dir(fs, delete=False)
    footer, _ = _orc_sizes(fs, f"/t/delta_1_1/{BUCKET_FILE}")
    # a snapshot that sees no directory still opens one file for the schema
    batch, io = AcidReader(fs).read("/t", ValidWriteIdList(
        "t", 0, frozenset()))
    assert batch.num_rows == 0 and batch.schema.names() == ["a", "b"]
    return io, dict(files_opened=1, metadata_bytes=footer)


def rule_text_file(fs):
    schema = Schema([Column("a", INT), Column("b", STRING)])
    lengths = []
    for part in range(2):
        writer = TextWriter(schema)
        writer.write_rows([(i, f"s{i}") for i in range(20 * (part + 1))])
        lengths.append(fs.create(f"/x/part{part}", writer.finish()).length)
    batch, io = AcidReader(fs, _llap(fs)).read_plain(
        "/x", schema, columns=["b"], file_format="text")
    assert batch.num_rows == 60
    return io, dict(files_opened=2, disk_bytes=sum(lengths))


def rule_injected_reread(fs):
    faults = fs.fault_registry = FaultRegistry(seed=3, io_error_rate=0.9)
    footer, chunks = _orc_sizes(fs, "/data/f1")
    before = faults.events("fs.read")
    io = ReadMetrics()
    DirectReaderFactory(fs).open("/data/f1", io).read_row_group(0, ["a"])
    event, = faults.events("fs.read")[len(before):]
    assert event.target == "/data/f1" and event.attempts > 0
    retry_bytes = event.attempts * fs.status("/data/f1").length
    # ... and the scan charges them on top of what the readers charged
    scan = ScanMetrics()
    ScanExecutor._account_io(io, scan)
    assert scan.io_retries == event.attempts
    assert scan.files_opened == 1 + event.attempts
    assert scan.disk_bytes == chunks[0, "a"] + retry_bytes
    return io, dict(files_opened=1, metadata_bytes=footer,
                    disk_bytes=chunks[0, "a"], io_retries=event.attempts,
                    retry_bytes=retry_bytes)


@pytest.mark.parametrize("rule", [
    rule_llap_open_footer_not_cached, rule_llap_open_footer_cached,
    rule_llap_chunk_miss, rule_llap_chunk_hit, rule_direct_open,
    rule_direct_chunk, rule_delete_delta_by_its_chunks,
    rule_projected_schema_open, rule_text_file, rule_injected_reread,
], ids=lambda rule: rule.__name__[len("rule_"):])
def test_charge_rule(orc_file, rule):
    fs, _ = orc_file
    io, expected = rule(fs)
    assert _charges(io) == _charges(ReadMetrics(**expected))
