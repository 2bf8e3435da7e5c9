"""The four workloads of the wall-clock benchmark.

A workload is a fixed script derived from ``--seed`` alone; the program
under test sees only generated rows and SQL text.  ``setup()`` builds the
starting state, ``cycle()`` runs the script once against it.  Every cycle
is an exact repeat of the same work, so an operation's result digest must
be the same in every cycle.

Sizes are the constants below.  The issue sketched 30k fact rows, a 20k-row
churn table with 12 rounds and 1000 service statements; the benchmark
contract gives one run about 35 s including several set-ups and at least
four cycles, so the defaults are roughly two thirds of that.  Statement
walls stay data-dominated where they should be (median TPC-DS query ≈ 80 ms
against ≈ 1-3 ms of fixed per-statement cost).  ``--scale`` multiplies the
row counts.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import oracle
from repro.bench.ssb import SSB_DDL, SSB_QUERIES, SsbScale, generate_ssb_data
from repro.bench.tpcds import (TPCDS_DDL, TPCDS_QUERIES, TpcdsScale,
                               generate_tpcds_data)
from repro.config import HiveConf
from repro.server import HiveServer2
from repro.server.dml import TableWriter
from repro.service import HiveService

# -- default sizes (rows at --scale 1) --------------------------------------- #
TPCDS_STORE_SALES = 20_000       # 60 day-partitions, ACID ORC
TPCDS_STORE_RETURNS = 2_000
CHURN_ROWS = 12_000              # `orders`, 12 day-partitions
CHURN_DAYS = 12
CHURN_ROUNDS = 6
CHURN_INSERT_ROWS = 200
CHURN_CUSTOMERS = 1_000
CHURN_UPDATE_CUSTOMERS = 20      # 2 % of the customers per UPDATE
CHURN_FEED_ROWS = 300            # MERGE source, half matched
SERVICE_LINEORDERS = 2_000
SERVICE_STATEMENTS = 720         # per cycle, all clients together
#: closed-loop callers of service_dashboards: the only traffic in which two
#: statements are in flight (GIL, session lock, admission gate)
SERVICE_CLIENTS = min(2, os.cpu_count() or 1)
SERVICE_HIT_KEYS = 8             # repeating point literals per client
SERVICE_ROUND = 36               # statements per caller between two joins
LOAD_BATCHES = 10                # inserts the fact table arrives in


def make_conf() -> HiveConf:
    """v3 profile, results cache off (else every repeat is a cache fetch);
    every other knob — plan cache, LLAP, semijoin, compile, fusion — stays
    at its default."""
    conf = HiveConf.v3_profile()
    conf.results_cache_enabled = False
    return conf


# --------------------------------------------------------------------------- #
# one timed operation and what came back

@dataclass
class Sample:
    name: str
    kind: str                      # read | write | load | ddl | compaction
    wall_s: float
    digest: str = ""
    error: str = ""
    ok: bool = True
    virtual_s: float = 0.0
    plan_cached: bool = False
    rows_loaded: int = 0
    user_bytes: int = 0            # user bytes this operation wrote
    phase: str = ""                # "load": part of a table load
    client: int = 0                # which closed-loop caller ran it


@dataclass
class Cycle:
    """One pass over a script (or one set-up) and its byte accounting."""

    samples: list = field(default_factory=list)
    wall_s: float = 0.0
    stored_bytes: int = 0
    live_user_bytes: int = 0
    #: the program's own counters over the pass (trace runs)
    counters: dict = field(default_factory=dict)
    #: service_dashboards: two callers ran at once in this cycle, in rounds
    #: of ``SERVICE_ROUND`` statements each; the wall of each round
    racing: bool = False
    round_walls: list = field(default_factory=list)


class Recorder:
    """Times operations one after another on the calling thread."""

    def __init__(self, tracer=None, client: int = 0):
        self.samples: list[Sample] = []
        self.tracer = tracer
        self.client = client

    def run(self, name: str, kind: str, fn: Callable, expect=None,
            rows_loaded: int = 0, user_bytes: int = 0, phase: str = ""):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(f"{self.client}:{len(self.samples)}:{name}")
        result = error = None
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:           # a failed operation is a result
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        sample = Sample(name, kind, wall_s, rows_loaded=rows_loaded,
                        user_bytes=user_bytes, phase=phase,
                        client=self.client)
        if error is not None:
            sample.ok, sample.error = False, error[:300]
        else:
            _judge(sample, result, expect)
        self.samples.append(sample)
        return result


def _judge(sample: Sample, result, expect) -> None:
    """Digest a result and hold it against its oracle expectation."""
    rows = getattr(result, "rows", None)
    affected = getattr(result, "rows_affected", 0)
    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        sample.virtual_s = metrics.total_s
    sample.plan_cached = bool(getattr(result, "plan_cached", False))
    if isinstance(result, int):            # run_compaction(): jobs run
        affected, rows = result, None
    sample.digest = (oracle.rows_digest(rows) if rows
                     else f"n={affected}")
    if expect is None:
        return
    if expect[0] == "affected":
        sample.ok = affected == expect[1]
    else:
        sample.ok = oracle.check(expect, rows or [])
    if not sample.ok:
        sample.error = f"oracle mismatch: got {str(rows or affected)[:200]}"


# --------------------------------------------------------------------------- #
# shared building blocks

def new_server() -> tuple:
    server = HiveServer2(make_conf())
    return server, server.connect()


def load_tables(rec: Recorder, server: HiveServer2, data: dict,
                batched: str = "") -> None:
    """``bench.load_rows`` per table, its two halves timed apart.

    The ``batched`` table arrives in ``LOAD_BATCHES`` inserts, as a fact
    table fed by micro-batches does; the tenth delta per directory is what
    makes the initiator queue a compaction, so ``run_compaction()`` has
    real work in every load.
    """
    writer = TableWriter(server.hms, server.conf)
    for table, rows in data.items():
        descriptor = server.hms.get_table(table)
        step = -(-len(rows) // LOAD_BATCHES) if table == batched \
            else len(rows)
        for at in range(0, len(rows), max(1, step)):
            batch = rows[at:at + step]
            rec.run(f"load.{table}", "load",
                    lambda d=descriptor, r=batch: writer.insert_rows(d, r),
                    expect=("affected", len(batch)),
                    rows_loaded=len(batch),
                    user_bytes=oracle.user_bytes(batch), phase="load")
        rec.run(f"compact.{table}", "compaction", server.run_compaction,
                phase="load")


def stored_bytes(server: HiveServer2, tables) -> int:
    return sum(server.fs.total_bytes(server.hms.get_table(t).location)
               for t in tables)


def program_counters(server: HiveServer2) -> dict:
    """Counters the program keeps itself (cumulative per server)."""
    io, llap, plan = (server.fs.stats, server.llap_cache.stats,
                      server.plan_cache.stats)
    return {"fs.bytes_read": io.bytes_read,
            "fs.bytes_written": io.bytes_written,
            "llap.hits": llap.hits, "llap.misses": llap.misses,
            "llap.evictions": llap.evictions,
            "plan.hits": plan.hits, "plan.misses": plan.misses,
            "plan.evictions": plan.evictions}


class Workload:
    """Base: a seeded script, a set-up and a repeatable cycle."""

    name = ""
    clients = 1
    #: the cycle writes nothing: write-side metrics come from the set-up
    read_only = False

    def __init__(self, seed: int, scale: float = 1.0, smoke: bool = False):
        self.seed = seed
        self.scale = scale
        self.smoke = smoke
        self.server: Optional[HiveServer2] = None

    def rows(self, default: int, smoke: int) -> int:
        return max(1, int((smoke if self.smoke else default) * self.scale))

    def sizes(self) -> dict:
        raise NotImplementedError

    def setup(self) -> Cycle:
        raise NotImplementedError

    def cycle(self, tracer=None) -> Cycle:
        raise NotImplementedError

    def close(self) -> None:
        self.server = None

    def _finish(self, out: Cycle, started: float, tables, live_bytes: int,
                baseline: Optional[dict] = None) -> Cycle:
        """Close a pass; ``baseline`` are the counters it started from when
        the server is older than the pass."""
        out.wall_s = time.perf_counter() - started
        baseline = baseline or {}
        out.counters = {k: v - baseline.get(k, 0)
                        for k, v in program_counters(self.server).items()}
        out.stored_bytes = stored_bytes(self.server, tables)
        out.live_user_bytes = live_bytes
        return out


# --------------------------------------------------------------------------- #
# tpcds_read

class TpcdsRead(Workload):
    """The 31 TPC-DS-like queries, warm, one session."""

    name = "tpcds_read"
    read_only = True

    def __init__(self, seed, scale=1.0, smoke=False):
        super().__init__(seed, scale, smoke)
        self.data = generate_tpcds_data(tpcds_scale(self))
        self.expect = oracle.tpcds_expectations(self.data)
        self.user_bytes = sum(oracle.user_bytes(r)
                              for r in self.data.values())
        self.session = None

    def sizes(self) -> dict:
        return {t: len(r) for t, r in self.data.items()}

    def setup(self) -> Cycle:
        out, started = Cycle(), time.perf_counter()
        rec = Recorder()
        self.server, self.session = new_server()
        for i, ddl in enumerate(TPCDS_DDL):
            rec.run(f"ddl.{i}", "ddl",
                    lambda s=ddl: self.session.execute(s))
        load_tables(rec, self.server, self.data, batched="store_sales")
        out.samples = rec.samples
        return self._finish(out, started, self.data, self.user_bytes)

    def cycle(self, tracer=None) -> Cycle:
        out, started = Cycle(), time.perf_counter()
        before = program_counters(self.server)
        rec = Recorder(tracer)
        for query in TPCDS_QUERIES:
            rec.run(query.name, "read",
                    lambda s=query.sql: self.session.execute(s),
                    expect=self.expect.get(query.name))
        out.samples = rec.samples
        return self._finish(out, started, self.data, self.user_bytes,
                            before)


def tpcds_scale(workload: Workload) -> TpcdsScale:
    if workload.smoke:
        tiny = TpcdsScale.tiny()
        tiny.seed = workload.seed
        return tiny
    return TpcdsScale(
        store_sales=workload.rows(TPCDS_STORE_SALES, 0),
        store_returns=workload.rows(TPCDS_STORE_RETURNS, 0),
        seed=workload.seed)


# --------------------------------------------------------------------------- #
# bulk_load

class BulkLoad(Workload):
    """Fresh warehouse, DDL, load of all eight tables, two checks each.

    Each table is checked twice: the first check compiles its plan and
    reads the new files cold, the second is a plan-cache and LLAP hit.
    """

    name = "bulk_load"

    def __init__(self, seed, scale=1.0, smoke=False):
        super().__init__(seed, scale, smoke)
        self.data = generate_tpcds_data(tpcds_scale(self))
        self.user_bytes = sum(oracle.user_bytes(r)
                              for r in self.data.values())

    def sizes(self) -> dict:
        return {t: len(r) for t, r in self.data.items()}

    def setup(self) -> Cycle:
        """The starting state is an empty warehouse."""
        out, started = Cycle(), time.perf_counter()
        self.server, _ = new_server()
        return self._finish(out, started, (), 0)

    def cycle(self, tracer=None) -> Cycle:
        out, started = Cycle(), time.perf_counter()
        rec = Recorder(tracer)
        self.server, session = new_server()
        for i, ddl in enumerate(TPCDS_DDL):
            rec.run(f"ddl.{i}", "ddl", lambda s=ddl: session.execute(s))
        load_tables(rec, self.server, self.data, batched="store_sales")
        for table, rows in self.data.items():
            column = oracle.CHECK_COLUMN[table][0]
            sql = f"SELECT COUNT(*), SUM({column}) FROM {table}"
            expect = ("rows", [oracle.table_check(table, rows)])
            for attempt in ("cold", "warm"):
                rec.run(f"check.{table}.{attempt}", "read",
                        lambda s=sql: session.execute(s), expect=expect)
        out.samples = rec.samples
        return self._finish(out, started, self.data, self.user_bytes)


# --------------------------------------------------------------------------- #
# acid_churn

ORDERS_DDL = """CREATE TABLE orders (
    o_id INT, o_customer INT, o_status STRING, o_amount DOUBLE,
    o_quantity INT) PARTITIONED BY (o_day INT)"""
FEED_DDL = """CREATE TABLE order_feed (
    f_id INT, f_customer INT, f_status STRING, f_amount DOUBLE,
    f_quantity INT, f_day INT)"""
MERGE_SQL = """MERGE INTO orders USING order_feed
    ON orders.o_id = order_feed.f_id
    WHEN MATCHED THEN UPDATE SET o_amount = f_amount, o_status = 'merged'
    WHEN NOT MATCHED THEN INSERT VALUES
        (f_id, f_customer, f_status, f_amount, f_quantity, f_day)"""
BY_STATUS_SQL = ("SELECT o_status, COUNT(*), SUM(o_amount) FROM orders "
                 "GROUP BY o_status ORDER BY o_status")


def _order_row(rng: random.Random, key: int, days: int) -> tuple:
    return (key, rng.randrange(CHURN_CUSTOMERS),
            rng.choice(("open", "paid", "shipped")),
            round(rng.uniform(1.0, 500.0), 2), rng.randint(1, 20),
            key % days)


def _values_sql(rows) -> str:
    return ", ".join(
        "(" + ", ".join(repr(v) for v in row) + ")" for row in rows)


def churn_script(rng: random.Random, base_rows: list, rounds: int,
                 days: int) -> tuple:
    """The statements of one cycle with what each must return.

    Returns ``(statements, feed_rows, live_user_bytes)``; a statement is
    ``(name, kind, sql or None, expect, user_bytes)`` and ``sql`` None
    stands for ``server.run_compaction()``.
    """
    model = oracle.OrdersModel(base_rows)
    next_id = len(base_rows)
    delete_span = max(1, len(base_rows) // 100)
    out = []
    for r in range(rounds):
        new = [_order_row(rng, next_id + i, days)
               for i in range(CHURN_INSERT_ROWS)]
        next_id += len(new)
        out.append((f"r{r}.insert", "write",
                    f"INSERT INTO orders VALUES {_values_sql(new)}",
                    ("affected", model.insert(new)),
                    oracle.user_bytes(new)))
        lo = rng.randrange(CHURN_CUSTOMERS - CHURN_UPDATE_CUSTOMERS)
        hi = lo + CHURN_UPDATE_CUSTOMERS - 1
        updated = model.update_paid(lo, hi)
        out.append((f"r{r}.update", "write",
                    "UPDATE orders SET o_status = 'paid', "
                    f"o_amount = o_amount + 1 WHERE o_customer "
                    f"BETWEEN {lo} AND {hi}",
                    ("affected", updated),
                    updated * oracle.user_bytes([base_rows[0]])))
        lo = rng.randrange(len(base_rows) - delete_span)
        hi = lo + delete_span - 1
        out.append((f"r{r}.delete", "write",
                    f"DELETE FROM orders WHERE o_id BETWEEN {lo} AND {hi}",
                    ("affected", model.delete_ids(lo, hi)), 0))
        out.append((f"r{r}.by_status", "read", BY_STATUS_SQL,
                    ("ordered", model.by_status()), 0))
        day = r % days
        out.append((f"r{r}.day_totals", "read",
                    "SELECT COUNT(*), SUM(o_quantity) FROM orders "
                    f"WHERE o_day = {day}",
                    ("rows", model.day_totals(day)), 0))
        key = rng.randrange(len(base_rows))
        out.append((f"r{r}.lookup", "read",
                    "SELECT o_id, o_status, o_amount FROM orders "
                    f"WHERE o_id = {key}", ("rows", model.lookup(key)), 0))
        out.append((f"r{r}.compaction", "compaction", None, None, 0))
    live = sorted(model.rows)
    matched = rng.sample(live, min(CHURN_FEED_ROWS // 2, len(live)))
    feed = [_order_row(rng, key, days) for key in matched]
    feed += [_order_row(rng, next_id + i, days)
             for i in range(CHURN_FEED_ROWS - len(matched))]
    out.append(("merge", "write", MERGE_SQL,
                ("affected", model.merge(feed)), oracle.user_bytes(feed)))
    out.append(("final.by_status", "read", BY_STATUS_SQL,
                ("ordered", model.by_status()), 0))
    out.append(("final.compaction", "compaction", None, None, 0))
    live_bytes = oracle.user_bytes(model.live_rows()) \
        + oracle.user_bytes(feed)
    return out, feed, live_bytes


class AcidChurn(Workload):
    """Reads beside writes on one ACID table, compaction in the loop."""

    name = "acid_churn"
    tables = ("orders", "order_feed")

    def __init__(self, seed, scale=1.0, smoke=False):
        super().__init__(seed, scale, smoke)
        rng = random.Random(seed)
        self.days = 4 if smoke else CHURN_DAYS
        count = self.rows(CHURN_ROWS, 800)
        self.base = [_order_row(rng, key, self.days) for key in range(count)]
        self.rounds = 4 if smoke else CHURN_ROUNDS
        self.script, self.feed, self.live_bytes = churn_script(
            rng, self.base, self.rounds, self.days)

    def sizes(self) -> dict:
        return {"orders": len(self.base), "order_feed": len(self.feed),
                "days": self.days, "rounds": self.rounds,
                "statements": len(self.script)}

    def _restore(self, rec: Recorder):
        """A fresh warehouse with both tables loaded: set-up and cycle."""
        self.server, session = new_server()
        rec.run("ddl.orders", "ddl", lambda: session.execute(ORDERS_DDL))
        rec.run("ddl.order_feed", "ddl", lambda: session.execute(FEED_DDL))
        load_tables(rec, self.server,
                    {"orders": self.base, "order_feed": self.feed})
        return session

    def setup(self) -> Cycle:
        out, started = Cycle(), time.perf_counter()
        rec = Recorder()
        self._restore(rec)
        out.samples = rec.samples
        return self._finish(out, started, self.tables,
                            oracle.user_bytes(self.base)
                            + oracle.user_bytes(self.feed))

    def cycle(self, tracer=None) -> Cycle:
        out, started = Cycle(), time.perf_counter()
        rec = Recorder(tracer)
        session = self._restore(rec)
        for name, kind, sql, expect, user_bytes in self.script:
            fn = (self.server.run_compaction if sql is None
                  else lambda s=sql: session.execute(s))
            rec.run(name, kind, fn, expect=expect, user_bytes=user_bytes)
        out.samples = rec.samples
        return self._finish(out, started, self.tables, self.live_bytes)


# --------------------------------------------------------------------------- #
# service_dashboards

def service_scripts(rng: random.Random, lineorder: list, clients: int,
                    statements: int) -> list:
    """Per client: ``(name, sql, expect)`` in a seeded order.

    10 % dashboards (the 13 SSB queries in turn), 45 % point statements
    over a few repeating literals, 45 % range statements whose literal
    pair is used by no other statement of the cycle.
    """
    keys = len(lineorder)
    used_pairs: set = set()
    scripts = []
    for client in range(clients):
        count = statements // clients
        dashboards = count // 10
        hits = (count - dashboards) // 2
        kinds = (["dash"] * dashboards + ["hit"] * hits
                 + ["miss"] * (count - dashboards - hits))
        rng.shuffle(kinds)
        hit_keys = [rng.randrange(keys) for _ in range(SERVICE_HIT_KEYS)]
        script, seen = [], {"dash": 0, "hit": 0, "miss": 0}
        for kind in kinds:
            n = seen[kind]
            seen[kind] += 1
            if kind == "dash":
                name, sql = SSB_QUERIES[n % len(SSB_QUERIES)]
                script.append((f"dash.{name}", sql, None))
            elif kind == "hit":
                key = hit_keys[n % len(hit_keys)]
                script.append((
                    "hit", "SELECT lo_orderkey, lo_revenue FROM lineorder "
                    f"WHERE lo_orderkey = {key}",
                    ("rows", oracle.lineorder_point(lineorder, key))))
            else:
                while True:
                    lo = rng.randrange(keys)
                    hi = lo + rng.randint(1, 60)
                    if (lo, hi) not in used_pairs:
                        break
                used_pairs.add((lo, hi))
                script.append((
                    "miss", "SELECT COUNT(*), SUM(lo_revenue) FROM "
                    f"lineorder WHERE lo_orderkey BETWEEN {lo} AND {hi}",
                    ("rows", oracle.lineorder_range(lineorder, lo, hi))))
        scripts.append(script)
    return scripts


class ServiceDashboards(Workload):
    """Closed-loop tenants through HiveService.submit / poll / fetch."""

    name = "service_dashboards"
    read_only = True

    clients = SERVICE_CLIENTS

    def __init__(self, seed, scale=1.0, smoke=False):
        super().__init__(seed, scale, smoke)
        ssb = SsbScale(years=2, customers=100, suppliers=40, parts=80,
                       lineorders=self.rows(SERVICE_LINEORDERS, 400),
                       seed=seed)
        self.data = generate_ssb_data(ssb)
        self.user_bytes = sum(oracle.user_bytes(r)
                              for r in self.data.values())
        self.statements = 80 if smoke else SERVICE_STATEMENTS
        self.scripts = service_scripts(
            random.Random(seed), self.data["lineorder"], self.clients,
            self.statements)
        self.service: Optional[HiveService] = None
        self.sessions: list = []
        self.cycles_run = 0

    def sizes(self) -> dict:
        sizes = {t: len(r) for t, r in self.data.items()}
        sizes.update(clients=self.clients, statements=self.statements,
                     plan_cache_entries=make_conf().plan_cache_max_entries)
        return sizes

    def setup(self) -> Cycle:
        out, started = Cycle(), time.perf_counter()
        self.close()
        rec = Recorder()
        self.service = HiveService(conf=make_conf())
        self.server = self.service.server
        session = self.server.connect()
        for i, ddl in enumerate(SSB_DDL):
            rec.run(f"ddl.{i}", "ddl", lambda s=ddl: session.execute(s))
        load_tables(rec, self.server, self.data, batched="lineorder")
        self.sessions = []
        self.cycles_run = 0
        for client in range(self.clients):
            tenant = f"tenant{client}"
            self.service.register_tenant(tenant)
            self.sessions.append(
                self.service.open_session(token=tenant).session_id)
        out.samples = rec.samples
        return self._finish(out, started, self.data, self.user_bytes)

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
        self.service = None
        super().close()

    def _statement(self, session_id: str, sql: str, seen_ops: set):
        """Submit, wait, poll, page the rows.

        Raises on a lost, duplicated or short-delivered operation, which
        the recorder counts as a failed operation.
        """
        service = self.service
        op = service.submit(session_id, sql)
        service.operations.wait(op.op_id, timeout_s=60.0)
        status = service.poll(op.op_id)
        rows, offset = [], 0
        while True:
            page = service.fetch(op.op_id, offset, 100)
            rows.extend(page["rows"])
            offset += page["returned"]
            if not page["has_more"] or not page["returned"]:
                break
        if op.op_id in seen_ops:
            raise RuntimeError(f"operation id {op.op_id} delivered twice")
        seen_ops.add(op.op_id)
        if status["state"] != "finished":
            raise RuntimeError(f"operation ended {status['state']}: "
                               f"{status['error']}")
        if len(rows) != status["row_count"]:
            raise RuntimeError(f"fetched {len(rows)} of "
                               f"{status['row_count']} rows")
        # shaped like a QueryResult for _judge, but with the rows the
        # client really fetched; the operation carries ``total_s``
        return SimpleNamespace(rows=rows, rows_affected=op.rows_affected,
                               plan_cached=op.plan_cached, metrics=op)

    def cycle(self, tracer=None) -> Cycle:
        """The callers race, except that in every other pair of cycles
        they take turns, statement by statement.

        A statement's latency beside a racing caller is its own cost plus
        however much of the other's statement it waited out: chaotic from
        cycle to cycle, and its fastest of ten cycles still is from run to
        run (p95 spread 9 %).  So the turn-taking cycles give each
        statement's fastest wall, and the racing ones the cycle wall and
        the throughput, which carry what the callers cost each other.
        Statement by statement, so that the plan cache sees the statements
        in about the order of a race and evicts the same ones.  Pairs,
        because a traced run alternates traced and untraced cycles and each
        kind must see both.
        """
        out = Cycle(racing=self.clients > 1 and self.cycles_run % 4 < 2)
        self.cycles_run += 1
        before = program_counters(self.server)
        recorders = [Recorder(tracer, client)
                     for client in range(self.clients)]
        seen_ops: set = set()

        def statement(client: int, name: str, sql: str, expect) -> None:
            session_id = self.sessions[client]
            recorders[client].run(
                f"c{client}.{name}", "read",
                lambda: self._statement(session_id, sql, seen_ops),
                expect=expect)

        def client_loop(client: int, steps: list) -> None:
            for step in steps:
                statement(client, *step)

        started = time.perf_counter()
        if out.racing:
            # In rounds, each from a common start to the last join: a
            # round's fastest wall over the cycles needs 0.2 s without a
            # neighbour on the host, a whole cycle's needs 2 s and did not
            # repeat.  A caller idles at a join for part of one statement.
            for at in range(0, len(self.scripts[0]), SERVICE_ROUND):
                threads = [threading.Thread(
                    target=client_loop, name=f"client-{c}",
                    args=(c, self.scripts[c][at:at + SERVICE_ROUND]))
                    for c in range(self.clients)]
                round_started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                out.round_walls.append(time.perf_counter() - round_started)
        else:
            for steps in zip(*self.scripts):
                for client, step in enumerate(steps):
                    statement(client, *step)
        self._finish(out, started, self.data, self.user_bytes, before)
        out.samples = [s for rec in recorders for s in rec.samples]
        return out


WORKLOADS = {w.name: w for w in
             (TpcdsRead, BulkLoad, AcidChurn, ServiceDashboards)}
