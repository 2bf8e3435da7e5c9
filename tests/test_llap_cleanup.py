"""The LLAP caches let go of files the compaction Cleaner removed.

``LlapReaderFactory._metadata`` keeps a parsed ``OrcReader`` — with the
whole file's bytes — per file it ever opened, and the chunk cache keeps
that file's decoded chunks.  ``HiveServer2.run_compaction`` hands the
Cleaner ``LlapReaderFactory.forget``, so both drop what a run deleted.
"""

import repro
from repro.config import HiveConf


def make_server():
    conf = HiveConf.v3_profile()
    conf.compaction_delta_threshold = 4
    return repro.HiveServer2(conf)


def churn(server) -> float:
    """Writes, reads that warm the caches, a compaction, reads again;
    returns the virtual time of every statement, summed."""
    session = server.connect()
    session.conf.results_cache_enabled = False
    virtual_s = 0.0

    def run(sql: str):
        nonlocal virtual_s
        result = session.execute(sql)
        virtual_s += result.virtual_time_s
        return result

    run("CREATE TABLE t (a INT, b INT) PARTITIONED BY (d INT)")
    for day in range(3):
        for batch in range(4):
            run("INSERT INTO t VALUES " + ", ".join(
                f"({batch * 10 + i}, {i}, {day})" for i in range(10)))
        run(f"UPDATE t SET b = b + 1 WHERE d = {day} AND a < 5")
        run(f"DELETE FROM t WHERE d = {day} AND a > 35")
        run("SELECT d, COUNT(*), SUM(b) FROM t GROUP BY d")
    assert server.run_compaction() > 0
    run("SELECT d, COUNT(*), SUM(b) FROM t GROUP BY d")
    run("SELECT a, b FROM t WHERE d = 1 AND a < 3")
    return virtual_s


def live_files(server) -> set[tuple[int, int]]:
    location = server.hms.get_table("t").location
    return {(status.file_id, status.length) for status in
            server.fs.list_files(location, recursive=True)}


class TestCleanerDropsCachedFiles:
    def test_only_live_files_stay_cached(self):
        server = make_server()
        churn(server)
        live = live_files(server)
        factory = server.llap_factory
        assert factory._metadata and set(factory._metadata) <= live
        live_ids = {file_id for file_id, _length in live}
        assert {key.file_id
                for key in server.llap_cache._entries} <= live_ids
        # the drops count as evictions (the stats contract of the cache)
        stats = server.llap_cache.stats
        assert stats.evictions > 0
        assert server.llap_cache.used_bytes == sum(
            entry.nbytes for entry in server.llap_cache._entries.values())

    def test_virtual_time_is_untouched(self):
        """Deleted files are never opened again: forgetting them changes
        no later read."""
        wired = make_server()
        leaky = make_server()
        leaky.llap_factory.forget = lambda directories: 0
        assert churn(wired) == churn(leaky)
        assert len(leaky.llap_factory._metadata) > len(
            wired.llap_factory._metadata)

    def test_forget_is_one_pass_and_by_directory(self):
        server = make_server()
        churn(server)
        factory = server.llap_factory
        directory = next(iter(factory._by_dir))
        keys = list(factory._by_dir[directory])
        chunks = sum(1 for key in server.llap_cache._entries
                     if key.file_id in {k[0] for k in keys})
        assert factory.forget([directory, "/no/such/dir"]) == chunks
        assert not set(keys) & set(factory._metadata)
        assert directory not in factory._by_dir
