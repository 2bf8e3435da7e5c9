"""`HiveService`: the concurrent serving layer in front of HiveServer2.

The driver (:mod:`repro.server.driver`) is a library: one thread, one
session, call :meth:`Session.execute` and block.  Real HiveServer2 is a
*server*: many clients hold sessions concurrently, submissions return
operation handles immediately, an admission controller decides who runs
now and who queues, and repeated dashboard statements skip compilation
via the plan cache.  This facade reproduces that layer:

* :class:`SessionManager` — tenant tokens, quotas, TTL expiry
  (rides the driver's housekeeper tick);
* :class:`AdmissionController` — per-pool FIFO run slots over the WM
  resource plan, deterministic virtual waits, kill-while-queued;
* :class:`OperationRegistry` — async handles, paged fetch;
* one worker thread per operation — each statement runs under its
  session's serialization lock, exactly HS2's one-active-statement-
  per-session rule.

Wire protocol lives in :mod:`repro.service.endpoint`; an in-process
client can call :meth:`submit` / :meth:`fetch` directly (the tests and
the bench harness do both).

Virtual-time accounting: an operation's admission wait is charged to
the owning session's clock *before* the statement executes, so
``sys.query_log.started_s`` and pool timelines reflect queueing the
same way ``WorkloadManager.admit`` models it — and identically across
reruns with the same seed and submission order.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..errors import AdmissionTimeoutError, HiveError, QueryKilledError
from ..obs.query_log import StatementRecord
from .admission import AdmissionController
from .operations import OperationRegistry
from .sessions import SessionManager


class HiveService:
    """Concurrent serving facade over one :class:`HiveServer2`."""

    def __init__(self, server=None, conf=None):
        if server is None:
            from ..server.driver import HiveServer2
            server = HiveServer2(conf)
        self.server = server
        obs = server.obs
        self.sessions = SessionManager(server)
        self.admission = AdmissionController(
            server.conf, registry=obs.registry,
            timeseries=obs.timeseries,
            workload_manager=server.workload_manager)
        self.operations = OperationRegistry()
        self.http = None
        obs.bind_sessions(self.sessions)
        obs.live_queries.add_kill_listener(self.admission.on_kill)
        server.housekeeping_hooks.append(self._housekeep)

    # -- admin ---------------------------------------------------------- #
    def register_tenant(self, tenant: str, token: Optional[str] = None,
                        pool: Optional[str] = None) -> None:
        """Register a tenant token; ``pool`` pins its WM pool."""
        self.sessions.register_tenant(tenant, token or tenant)
        if pool is not None:
            self.admission.set_tenant_pool(tenant, pool)

    def _housekeep(self, now_s: float) -> None:
        self.sessions.reap_expired(now_s)

    # -- session lifecycle ---------------------------------------------- #
    def open_session(self, token: Optional[str] = None,
                     application: Optional[str] = None,
                     database: str = "default"):
        return self.sessions.open(token, application, database)

    def close_session(self, session_id: str) -> None:
        self.sessions.close(session_id)

    # -- statements ----------------------------------------------------- #
    def submit(self, session_id: str, sql: str):
        """Submit asynchronously; returns the operation immediately."""
        session = self.sessions.get(session_id)
        obs = self.server.obs
        query_id = obs.next_query_id()
        op = self.operations.create(
            session.session_id, session.tenant, sql, query_id,
            submitted_s=session.driver.now_s)
        # pre-register so the operation is visible (and killable) in
        # sys.live_queries while it sits in the admission queue
        obs.live_queries.register(
            query_id, sql, database=session.driver.database,
            application=session.application,
            started_s=session.driver.now_s)
        obs.live_queries.update(query_id, phase="queued")
        obs.registry.counter("service.statements.submitted",
                             tenant=session.tenant).inc()
        worker = threading.Thread(
            target=self._run_operation, args=(op, session),
            name=f"svc-op-{query_id}", daemon=True)
        worker.start()
        return op

    def _run_operation(self, op, session) -> None:
        obs = self.server.obs
        pool = self.admission.route(session.tenant,
                                    session.application)
        self.operations.transition(op, "queued", pool=pool)
        obs.live_queries.update(op.query_id, pool=pool)
        admitted = False
        try:
            wait_s = self.admission.acquire(
                pool, op.query_id, arrival_s=session.driver.now_s)
            admitted = True
            with session.lock:
                # charge the modeled queue wait to the session clock
                session.driver.now_s += wait_s
                self.operations.transition(op, "running",
                                           admission_wait_s=wait_s)
                result = session.driver.execute(
                    sql=op.sql, query_id=op.query_id,
                    admission_wait_s=wait_s)
                self.sessions.touch(session, session.driver.now_s)
                finish_s = session.driver.now_s
            self.operations.transition(
                op, "finished",
                column_names=list(result.column_names),
                rows=list(result.rows),
                rows_affected=result.rows_affected,
                from_cache=result.from_cache,
                plan_cached=result.plan_cached,
                reexecuted=result.reexecuted,
                total_s=(result.metrics.total_s
                         if result.metrics is not None else 0.0))
            self._finish_count(op, "finished")
        except QueryKilledError as error:
            if not admitted:
                # the driver never saw this statement: close out the
                # live entry and complete its record ourselves — before
                # the handle reads finished, as Session.execute does
                obs.live_queries.finish(op.query_id, status="killed")
                self._audit_unadmitted(op, session, "killed", error)
            self.operations.transition(op, "killed", error=str(error),
                                       error_code="killed")
            self._finish_count(op, "killed")
        except AdmissionTimeoutError as error:
            # timed out in the queue: Session.execute never ran
            obs.live_queries.finish(op.query_id, status="error")
            self._audit_unadmitted(op, session, "denied", error)
            self.operations.transition(op, "error", error=str(error),
                                       error_code=error.code)
            self._finish_count(op, "timeout")
        except Exception as error:   # never strand an operation
            code = (getattr(error, "code", "") or "execution"
                    if isinstance(error, HiveError) else "internal")
            self.operations.transition(op, "error", error=str(error),
                                       error_code=code)
            self._finish_count(op, "error")
        finally:
            if admitted:
                self.admission.release(pool, session.driver.now_s)

    def _finish_count(self, op, status: str) -> None:
        self.server.obs.registry.counter(
            "service.statements.finished", status=status).inc()

    def _audit_unadmitted(self, op, session, status: str,
                          error: Exception) -> None:
        """Complete a statement that died before reaching the driver.

        Killed-while-queued and admission-timeout operations never
        enter ``Session.execute``; their record ends in the same
        ``record_query`` every executed statement's does.
        """
        self.server.obs.record_query(StatementRecord(
            query_id=op.query_id, statement=op.sql, tenant=session.tenant,
            session=session.session_id,
            database=session.driver.database,
            application=session.application, status=status,
            error=str(error), started_s=session.driver.now_s))

    # -- client helpers (in-process protocol) --------------------------- #
    def execute(self, session_id: str, sql: str,
                timeout_s: float = 60.0):
        """Synchronous convenience: submit and wait for the result."""
        op = self.submit(session_id, sql)
        return self.operations.wait(op.op_id, timeout_s)

    def poll(self, op_id: str) -> dict:
        op = self.operations.get(op_id)
        payload = op.describe()
        live = self.server.obs.live_queries.get(op.query_id)
        if live is not None:
            payload.update(phase=live.phase, progress=live.progress,
                           eta_s=live.eta_s,
                           kill_requested=live.kill_requested)
        return payload

    def fetch(self, op_id: str, offset: int = 0,
              limit: int = 100) -> dict:
        return self.operations.fetch(op_id, offset, limit)

    def cancel(self, op_id: str, reason: str = "client cancel") -> bool:
        """KILL the operation, queued or running; False if terminal."""
        op = self.operations.get(op_id)
        if op.finished:
            return False
        return self.server.obs.live_queries.request_kill(
            op.query_id, reason=reason)

    # -- HTTP ----------------------------------------------------------- #
    def start_http(self, host: str = "127.0.0.1", port: int = 0):
        if self.http is None:
            from .endpoint import ServiceHttpServer
            self.http = ServiceHttpServer(self, host=host,
                                          port=port).start()
        return self.http

    def stop_http(self) -> None:
        http, self.http = self.http, None
        if http is not None:
            http.stop()

    def shutdown(self) -> None:
        """Stop HTTP, close every open session, detach hooks."""
        self.stop_http()
        for row in self.sessions.rows():
            self.sessions.close(row[0])
        obs = self.server.obs
        obs.live_queries.remove_kill_listener(self.admission.on_kill)
        if self._housekeep in self.server.housekeeping_hooks:
            self.server.housekeeping_hooks.remove(self._housekeep)
