"""Fault injection & recovery (repro.faults).

The contract under test: with a fixed ``hive.faults.seed`` the same
faults strike at the same sites, queries pay for retries/failover in
virtual time, and — because the final attempt always succeeds — every
query returns **exactly** the rows a fault-free run returns.  Plus the
recovery-path bugs the faults exposed: transaction-manager error types,
lock fairness, and the results cache's pending-entry takeover.
"""

import threading

import pytest

import repro
from repro.acid.reader import AcidReader
from repro.config import HiveConf
from repro.errors import TransactionError
from repro.faults import FaultRegistry
from repro.metastore.locks import LockManager, LockType
from repro.metastore.txn import AcidHouseKeeper, TransactionManager, TxnState
from repro.server.results_cache import QueryResultsCache


def fault_conf(**overrides) -> HiveConf:
    """A conf with every fault knob pinned (environment-independent)."""
    conf = HiveConf.v3_profile()
    conf.faults_seed = 7
    conf.faults_task_fail_rate = 0.0
    conf.faults_io_error_rate = 0.0
    conf.faults_node_fail_rate = 0.0
    conf.faults_slow_node_rate = 0.0
    conf.faults_lock_stall_rate = 0.0
    for key, value in overrides.items():
        setattr(conf, key, value)
    conf.validate()
    return conf


def load_warehouse(server) -> "repro.server.driver.Session":
    session = server.connect()
    session.conf.results_cache_enabled = False
    session.execute("CREATE TABLE sales (region STRING, amount INT)")
    # separate INSERTs -> separate files -> multi-task map vertices
    session.execute("INSERT INTO sales VALUES ('east', 10), ('west', 20)")
    session.execute("INSERT INTO sales VALUES ('east', 30), ('north', 5)")
    session.execute("INSERT INTO sales VALUES ('west', 40), ('south', 15)")
    session.execute("INSERT INTO sales VALUES ('north', 25), ('east', 50)")
    return session


QUERIES = [
    "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region",
    "SELECT COUNT(*) FROM sales WHERE amount > 12",
    "SELECT * FROM sales ORDER BY amount DESC LIMIT 3",
]


# --------------------------------------------------------------------------- #
# the registry itself

class TestFaultRegistry:
    def test_decisions_are_pure_and_seeded(self):
        a = FaultRegistry(seed=11)
        b = FaultRegistry(seed=11)
        keys = [("digest", i) for i in range(50)]
        assert [a.decide("task.fail", k, 0.3) for k in keys] \
            == [b.decide("task.fail", k, 0.3) for k in keys]
        c = FaultRegistry(seed=12)
        assert [a.decide("task.fail", k, 0.3) for k in keys] \
            != [c.decide("task.fail", k, 0.3) for k in keys]

    def test_failed_attempts_capped(self):
        registry = FaultRegistry(seed=3)
        for key in range(100):
            failures = registry.failed_attempts("task.fail", key, 0.9, 3)
            assert 0 <= failures <= 3

    def test_rate_zero_never_fires(self):
        registry = FaultRegistry(seed=1)
        assert not any(registry.decide("fs.read", k, 0.0)
                       for k in range(200))
        assert registry.failed_attempts("task.fail", 1, 0.0, 5) == 0

    def test_event_log_and_counts(self):
        registry = FaultRegistry(seed=1)
        registry.record("task.fail", "v1", attempts=2, delay_s=0.5)
        registry.record("fs.read", "/a/b", attempts=1)
        assert registry.count() == 2
        assert registry.count("task.fail") == 1
        event = registry.events("task.fail")[0]
        assert event.as_row()[2:5] == ("task.fail", "v1", 2)


# --------------------------------------------------------------------------- #
# tentpole acceptance: identical results under seeded injection

class TestSeededInjection:
    def test_results_identical_to_fault_free(self):
        plain = load_warehouse(repro.HiveServer2(fault_conf()))
        faulty = load_warehouse(repro.HiveServer2(fault_conf(
            faults_task_fail_rate=0.2, faults_io_error_rate=0.6,
            faults_slow_node_rate=0.2)))
        for sql in QUERIES:
            assert faulty.execute(sql).rows == plain.execute(sql).rows
        # faults actually struck and cost virtual time
        registry = faulty.server.faults
        assert registry.count() > 0
        assert registry.count("fs.read") > 0

    def test_same_seed_same_schedule(self):
        runs = []
        for _ in range(2):
            session = load_warehouse(repro.HiveServer2(fault_conf(
                faults_task_fail_rate=0.3, faults_io_error_rate=0.1)))
            rows, times, attempts = [], [], []
            for sql in QUERIES:
                result = session.execute(sql)
                rows.append(result.rows)
                times.append(round(result.virtual_time_s, 9))
                attempts.append([(vm.name, vm.attempts, round(vm.retry_s, 9))
                                 for vm in result.metrics.vertices])
            log = [e.as_row() for e in session.server.faults.events()]
            runs.append((rows, times, attempts, log))
        assert runs[0] == runs[1]

    def test_different_seed_different_schedule(self):
        logs = []
        for seed in (1, 2):
            session = load_warehouse(repro.HiveServer2(fault_conf(
                faults_seed=seed, faults_task_fail_rate=0.3)))
            for sql in QUERIES:
                session.execute(sql)
            logs.append([e.as_row()[2:] for e in
                         session.server.faults.events()])
        assert logs[0] != logs[1]

    def test_retries_visible_in_sys_tables(self):
        session = load_warehouse(repro.HiveServer2(fault_conf(
            faults_task_fail_rate=0.5)))
        for sql in QUERIES:
            session.execute(sql)
        fault_rows = session.execute(
            "SELECT site, attempts FROM sys.fault_log "
            "WHERE site = 'task.fail'").rows
        assert fault_rows and all(a >= 1 for _, a in fault_rows)
        attempt_rows = session.execute(
            "SELECT attempts, failed_attempts FROM sys.vertex_log "
            "WHERE failed_attempts > 0").rows
        assert attempt_rows
        assert all(attempts > failed for attempts, failed in attempt_rows)

    def test_retry_time_charged(self):
        plain = load_warehouse(repro.HiveServer2(fault_conf()))
        faulty = load_warehouse(repro.HiveServer2(fault_conf(
            faults_task_fail_rate=0.5)))
        sql = QUERIES[0]
        base = plain.execute(sql).metrics
        injected = faulty.execute(sql).metrics
        assert injected.retry_s > 0.0
        assert injected.total_s > base.total_s

    def test_explain_analyze_annotates_retries(self):
        session = load_warehouse(repro.HiveServer2(fault_conf(
            faults_task_fail_rate=0.5)))
        lines = [r[0] for r in session.execute(
            "EXPLAIN ANALYZE " + QUERIES[0]).rows]
        assert any("retried=" in line for line in lines)
        assert any(line.startswith("-- faults:") for line in lines)

    def test_io_faults_recharge_reads(self):
        session = load_warehouse(repro.HiveServer2(fault_conf(
            faults_io_error_rate=0.6)))
        before = session.fs.stats.io_retries
        rows = session.execute(QUERIES[1]).rows
        assert rows == [(6,)]
        assert session.fs.stats.io_retries > before
        assert session.fs.stats.retry_bytes > 0

    def test_retries_charged_to_the_read_that_suffered_them(
            self, switch_interval):
        """``fs.read(path, io)`` charges the caller's ledger, so a read
        reports its own failed attempts while another thread's reads of
        another table move the server-wide ``fs.stats``."""
        session = load_warehouse(repro.HiveServer2(fault_conf(
            faults_io_error_rate=0.6)))
        session.execute("CREATE TABLE other (a INT)")
        for i in range(4):
            session.execute(f"INSERT INTO other VALUES ({i})")
        fs, faults = session.fs, session.server.faults
        sales, other = (session.hms.get_table(name)
                        for name in ("sales", "other"))
        schedule = [
            (faults.failed_attempts("fs.read", status.path, 0.6,
                                    faults.max_io_retries), status.length)
            for status in fs.list_files(sales.location, recursive=True)]
        expected = (sum(n for n, _ in schedule),
                    sum(n * length for n, length in schedule))
        assert expected[0] > 0
        tm = session.hms.txn_manager
        snapshot = tm.get_snapshot()

        def read(table):
            return AcidReader(fs).read(table.location, tm.valid_write_ids(
                snapshot, table.qualified_name))[1]

        stop = threading.Event()

        def churn():
            while not stop.is_set():
                read(other)

        noise = threading.Thread(target=churn)
        switch_interval(1e-4)
        noise.start()
        try:
            seen = {(m.io_retries, m.retry_bytes)
                    for m in (read(sales) for _ in range(100))}
        finally:
            stop.set()
            noise.join()
        assert seen == {expected}


class TestSpeculation:
    def test_straggler_gets_backup_attempt(self):
        plain = load_warehouse(repro.HiveServer2(fault_conf()))
        slow = load_warehouse(repro.HiveServer2(fault_conf(
            faults_slow_node_rate=0.3,
            faults_slow_node_multiplier=8.0)))
        for sql in QUERIES:
            assert slow.execute(sql).rows == plain.execute(sql).rows
        faults = slow.server.faults
        assert faults.count("task.slow") > 0
        assert faults.count("speculation") > 0
        spec_rows = slow.execute(
            "SELECT speculative_tasks, retry_s FROM sys.vertex_log "
            "WHERE speculative_tasks > 0").rows
        assert spec_rows

    def test_speculation_off_leaves_straggler(self):
        base = load_warehouse(repro.HiveServer2(fault_conf(
            faults_slow_node_rate=0.3,
            faults_slow_node_multiplier=8.0)))
        capped = [base.execute(sql).metrics.total_s for sql in QUERIES]
        off = load_warehouse(repro.HiveServer2(fault_conf(
            faults_slow_node_rate=0.3,
            faults_slow_node_multiplier=8.0,
            speculative_execution=False)))
        uncapped = [off.execute(sql).metrics.total_s for sql in QUERIES]
        assert off.server.faults.count("speculation") == 0
        # backup attempts can only shorten queries, never lengthen them
        assert all(c <= u for c, u in zip(capped, uncapped))
        assert any(c < u for c, u in zip(capped, uncapped))


class TestLlapFailover:
    def test_node_death_charges_failover_and_drops_cache(self):
        conf = fault_conf(faults_node_fail_rate=1.0)
        session = load_warehouse(repro.HiveServer2(conf))
        warm = session.execute(QUERIES[0])          # warms the cache too
        assert warm.metrics.failover_s > 0.0
        assert session.server.faults.count("node.death") > 0

    def test_failover_results_match_fault_free(self):
        plain = load_warehouse(repro.HiveServer2(fault_conf()))
        faulty = load_warehouse(repro.HiveServer2(fault_conf(
            faults_node_fail_rate=1.0)))
        for sql in QUERIES:
            assert faulty.execute(sql).rows == plain.execute(sql).rows

    def test_no_failover_without_llap(self):
        conf = fault_conf(faults_node_fail_rate=1.0, llap_enabled=False)
        session = load_warehouse(repro.HiveServer2(conf))
        result = session.execute(QUERIES[0])
        assert result.metrics.failover_s == 0.0


# --------------------------------------------------------------------------- #
# heartbeat reaper

class TestHeartbeatReaper:
    def test_expired_txn_reaped_end_to_end(self):
        conf = fault_conf(txn_timeout_s=0.1,
                          faults_lock_stall_rate=1.0)
        server = repro.HiveServer2(conf)
        dead = load_warehouse(server)
        dead.execute("START TRANSACTION")
        dead.execute("INSERT INTO sales VALUES ('ghost', 999)")
        stalled_txn = dead._active_txn
        assert server.faults.is_stalled(stalled_txn)

        live = server.connect()
        live.conf.results_cache_enabled = False
        # the monitor session's virtual clock is aligned with the dead
        # one (both "wall clocks" run together); its statements then
        # advance the warehouse clock past the 0.1s lease
        live.now_s = dead.now_s
        for _ in range(3):
            live.execute("SELECT COUNT(*) FROM sales")
        assert server.hms.txn_manager.state_of(stalled_txn) \
            is TxnState.ABORTED
        assert server.hms.lock_manager.locks_held(stalled_txn) == []
        reap_rows = live.execute(
            "SELECT target FROM sys.fault_log "
            "WHERE site = 'txn.reaped'").rows
        assert (f"txn {stalled_txn}",) in reap_rows
        # the aborted write-ids stay invisible to every reader
        rows = live.execute(
            "SELECT COUNT(*) FROM sales WHERE region = 'ghost'").rows
        assert rows == [(0,)]
        # and the dead session's next statement fails cleanly
        with pytest.raises(TransactionError):
            dead.execute("COMMIT")

    def test_heartbeat_keeps_txn_alive(self):
        conf = fault_conf(txn_timeout_s=30.0)
        server = repro.HiveServer2(conf)
        session = load_warehouse(server)
        session.execute("START TRANSACTION")
        txn = session._active_txn
        # statements heartbeat; clock moves but the lease is refreshed
        for _ in range(4):
            session.execute("SELECT COUNT(*) FROM sales")
        assert server.hms.txn_manager.state_of(txn) is TxnState.OPEN
        session.execute("COMMIT")
        assert server.hms.txn_manager.state_of(txn) is TxnState.COMMITTED

    def test_housekeeper_races_client_abort(self):
        manager = TransactionManager()
        keeper = AcidHouseKeeper(manager, LockManager(), timeout_s=1.0)
        txn = manager.open_transaction()
        manager.advance_clock(100.0)
        manager.abort(txn)            # client got there first
        assert keeper.run(now_s=100.0) == []
        assert manager.state_of(txn) is TxnState.ABORTED

    def test_reaper_only_takes_expired(self):
        manager = TransactionManager()
        keeper = AcidHouseKeeper(manager, LockManager(), timeout_s=10.0)
        old = manager.open_transaction()
        manager.advance_clock(100.0)
        fresh = manager.open_transaction()   # heartbeat stamped at 100
        assert keeper.run(now_s=105.0) == [old]
        assert manager.state_of(fresh) is TxnState.OPEN


# --------------------------------------------------------------------------- #
# satellite 1: transaction-manager error contract

class TestTransactionErrors:
    def test_unknown_txn_raises_transaction_error(self):
        manager = TransactionManager()
        with pytest.raises(TransactionError):
            manager.state_of(999)
        with pytest.raises(TransactionError):
            manager.abort(999)
        with pytest.raises(TransactionError):
            manager.commit(999)
        with pytest.raises(TransactionError):
            manager.heartbeat(999)

    def test_abort_is_idempotent(self):
        manager = TransactionManager()
        txn = manager.open_transaction()
        manager.abort(txn)
        manager.abort(txn)            # second abort: silent no-op
        assert manager.state_of(txn) is TxnState.ABORTED

    def test_abort_after_commit_raises(self):
        manager = TransactionManager()
        txn = manager.open_transaction()
        manager.commit(txn)
        with pytest.raises(TransactionError):
            manager.abort(txn)

    def test_heartbeat_after_abort_raises(self):
        manager = TransactionManager()
        txn = manager.open_transaction()
        manager.abort(txn)
        with pytest.raises(TransactionError):
            manager.heartbeat(txn)


# --------------------------------------------------------------------------- #
# satellite 2: FIFO-fair lock queue

class TestLockFairness:
    def test_shared_does_not_jump_queued_exclusive(self):
        locks = LockManager(default_timeout_s=5.0)
        locks.acquire(1, "t", None, LockType.SHARED)
        states = {}
        order = []
        order_lock = threading.Lock()

        def exclusive():
            locks.acquire(2, "t", None, LockType.EXCLUSIVE)
            with order_lock:
                order.append("exclusive")
            locks.release_all(2)

        def shared():
            # issued after the exclusive queued; must wait behind it
            locks.acquire(3, "t", None, LockType.SHARED)
            with order_lock:
                order.append("shared")
            locks.release_all(3)

        writer = threading.Thread(target=exclusive)
        writer.start()
        deadline = 50
        while not locks.waiting() and deadline:
            threading.Event().wait(0.01)
            deadline -= 1
        assert ("t", None, LockType.EXCLUSIVE, 2) in locks.waiting()
        reader = threading.Thread(target=shared)
        reader.start()
        threading.Event().wait(0.05)
        states["reader_blocked"] = reader.is_alive()
        locks.release_all(1)          # unblocks the exclusive first
        writer.join(timeout=5)
        reader.join(timeout=5)
        assert states["reader_blocked"]
        assert order == ["exclusive", "shared"]

    def test_timed_out_exclusive_unblocks_shared(self):
        locks = LockManager()
        locks.acquire(1, "t", None, LockType.SHARED)
        from repro.errors import LockTimeoutError
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, "t", None, LockType.EXCLUSIVE,
                          timeout_s=0.05)
        # the dead waiter must not bar later shared requests
        locks.acquire(3, "t", None, LockType.SHARED, timeout_s=0.5)
        assert len(locks.locks_held()) == 2

    def test_same_txn_not_self_blocked(self):
        locks = LockManager()
        locks.acquire(1, "t", None, LockType.EXCLUSIVE)
        locks.acquire(1, "t", None, LockType.SHARED, timeout_s=0.5)
        assert len(locks.locks_held(1)) == 2


# --------------------------------------------------------------------------- #
# satellite 3: results-cache pending takeover

class TestResultsCachePending:
    def test_waiter_takes_over_dead_computer(self):
        cache = QueryResultsCache(pending_timeout_s=0.1)
        entry, must = cache.lookup("q", {})
        assert must
        # the elected computer "dies": neither publish nor abandon.
        # a second lookup waits out the lease, then takes over.
        taken, must2 = cache.lookup("q", {})
        assert must2
        assert taken is not entry
        assert cache.stats.pending_takeovers == 1
        assert cache.stats.pending_waits == 1
        # takeover owns a fresh pending entry other callers see
        cache.publish(taken, [(1,)], ["c"], {})
        hit, must3 = cache.lookup("q", {})
        assert not must3 and hit.rows == [(1,)]

    def test_wait_counted_once_per_lookup(self):
        cache = QueryResultsCache(pending_timeout_s=5.0)
        entry, _ = cache.lookup("q", {})
        results = []

        def waiter():
            results.append(cache.lookup("q", {}))

        thread = threading.Thread(target=waiter)
        thread.start()
        threading.Event().wait(0.05)
        # several spurious wakeups must not inflate the episode count
        with cache._lock:
            cache._lock.notify_all()
        threading.Event().wait(0.05)
        cache.publish(entry, [(7,)], ["c"], {})
        thread.join(timeout=5)
        hit, must = results[0]
        assert not must and hit.rows == [(7,)]
        assert cache.stats.pending_waits == 1
        assert cache.stats.pending_takeovers == 0

    def test_wait_disabled_skips_pending(self):
        cache = QueryResultsCache(wait_for_pending=False)
        cache.lookup("q", {})
        _, must = cache.lookup("q", {})
        assert must
        assert cache.stats.pending_waits == 0
