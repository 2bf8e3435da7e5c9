"""Service sessions: tenant auth, per-tenant quotas, TTL expiry.

One :class:`ServiceSession` wraps one driver
:class:`~repro.server.driver.Session`.  The driver session copies the
server conf at open time (*snapshot semantics* — satellite 1: later
server-wide ``SET`` statements do **not** retro-apply to open sessions;
a session changes its own behaviour with its own ``SET``).  The wrapped
session's virtual clock is seeded from the warehouse's global clock so
concurrently opened sessions share one timeline.

Sessions expire: a session idle longer than
``hive.server2.session.ttl.s`` is reaped by the housekeeper tick that
also reaps silent transactions (:meth:`reap_expired` rides
``HiveServer2.housekeeping_hooks``).  A session mid-statement holds its
serialization lock and is never reaped.  Rows back ``sys.sessions``.
"""

from __future__ import annotations

import contextlib
import itertools
import threading

from ..common import sync
from typing import Optional

from ..errors import ServiceError, TransactionError
from ..obs.query_log import StatementRecord


class ServiceSession:
    """One client connection: a driver session plus serving state."""

    def __init__(self, session_id: str, tenant: str,
                 application: Optional[str], driver):
        self.session_id = session_id
        self.tenant = tenant
        self.application = application
        self.driver = driver               # repro.server.driver.Session
        self.state = "open"                # open | closed | expired
        self.created_s = driver.now_s
        self.last_used_s = driver.now_s
        self.statements = 0
        #: serializes statements: one in flight per session, like HS2
        self.lock = sync.new_lock('ServiceSession.lock')

    def as_row(self) -> tuple:
        return (self.session_id, self.tenant, self.application,
                self.driver.database, self.state, self.created_s,
                self.last_used_s, self.statements)


class SessionManager:
    """Opens, authenticates, expires and lists service sessions."""

    def __init__(self, server):
        self.server = server               # HiveServer2
        self._lock = sync.new_lock('SessionManager._lock')
        self._sessions: dict[str, ServiceSession] = {}
        #: token -> tenant; empty means open access (token names tenant)
        self._tenants: dict[str, str] = {}
        self._ids = itertools.count(1)

    # -- tenant registry ------------------------------------------------ #
    def register_tenant(self, tenant: str, token: str) -> None:
        with self._lock:
            self._tenants[token] = tenant

    def _resolve_tenant(self, token: Optional[str]) -> str:
        # caller holds self._lock
        if not self._tenants:
            return token or "anonymous"
        tenant = self._tenants.get(token or "")
        if tenant is None:
            self._count("service.sessions.rejected", reason="auth")
            raise ServiceError("unknown tenant token", code="auth")
        return tenant

    # -- lifecycle ------------------------------------------------------ #
    def open(self, token: Optional[str] = None,
             application: Optional[str] = None,
             database: str = "default") -> ServiceSession:
        conf = self.server.conf
        try:
            with self._lock:
                tenant = self._resolve_tenant(token)
                open_count = sum(
                    1 for s in self._sessions.values()
                    if s.tenant == tenant and s.state == "open")
                if open_count >= conf.server2_max_sessions_per_tenant:
                    self._count("service.sessions.rejected",
                                reason="quota")
                    raise ServiceError(
                        f"tenant {tenant} already holds {open_count} "
                        f"open sessions (limit "
                        f"{conf.server2_max_sessions_per_tenant})",
                        code="quota")
                session_id = f"s{next(self._ids):06x}"
        except ServiceError as error:
            # a rejected open is a denied statement of its own
            self._audit_denied(token, application, database, error)
            raise
        driver = self.server.connect(database, application)
        # the audit/lineage hooks attribute statements to the tenant
        # the serving layer authenticated, not a self-reported name
        driver.tenant = tenant
        driver.session_name = session_id
        # seed the session clock from the warehouse global clock so
        # sessions opened mid-run share the cluster timeline
        driver.now_s = self.server.hms.txn_manager.advance_clock(0.0)
        session = ServiceSession(session_id, tenant, application, driver)
        with self._lock:
            self._sessions[session_id] = session
        self._count("service.sessions.opened", tenant=tenant)
        return session

    def _audit_denied(self, token: Optional[str],
                      application: Optional[str], database: str,
                      error: ServiceError) -> None:
        with self._lock:
            tenant = self._tenants.get(token or "",
                                       token or "anonymous")
        self.server.obs.record_query(StatementRecord(
            query_id=0, tenant=tenant, database=database,
            application=application, operation="open_session",
            status="denied", error=str(error),
            started_s=self.server.hms.txn_manager.advance_clock(0.0)))

    def get(self, session_id: str) -> ServiceSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None or session.state != "open":
            state = session.state if session is not None else "unknown"
            raise ServiceError(
                f"no open session {session_id} (state: {state})",
                code="not_found")
        return session

    def touch(self, session: ServiceSession, now_s: float) -> None:
        with self._lock:
            session.last_used_s = max(session.last_used_s, now_s)
            session.statements += 1

    def close(self, session_id: str, state: str = "closed") -> None:
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or session.state != "open":
                return
            session.state = state
        self._abort_open_txn(session)
        self._count("service.sessions.closed"
                    if state == "closed" else
                    "service.sessions.expired", tenant=session.tenant)

    @staticmethod
    def _abort_open_txn(session: ServiceSession) -> None:
        """A closed/expired session must not pin a transaction: the
        lock manager would hold its locks until the txn reaper fires."""
        driver = session.driver
        if driver._active_txn is not None:
            with contextlib.suppress(TransactionError):
                driver._rollback_transaction()

    # -- TTL reaping (housekeeper hook) --------------------------------- #
    def reap_expired(self, now_s: float) -> list[str]:
        """Expire sessions idle past the TTL; returns expired ids.

        Runs on the per-statement housekeeper tick.  A session whose
        serialization lock is held is mid-statement — live by
        definition — and is skipped regardless of its idle time.
        """
        ttl = self.server.conf.server2_session_ttl_s
        with self._lock:
            stale = [s for s in self._sessions.values()
                     if s.state == "open"
                     and now_s - s.last_used_s > ttl
                     and not s.lock.locked()]
        expired = []
        for session in stale:
            self.close(session.session_id, state="expired")
            expired.append(session.session_id)
        return expired

    # -- reads ---------------------------------------------------------- #
    def rows(self) -> list[tuple]:
        """Snapshot for ``sys.sessions``, ordered by session id."""
        with self._lock:
            sessions = sorted(self._sessions.values(),
                              key=lambda s: s.session_id)
            return [s.as_row() for s in sessions]

    def open_count(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            return sum(1 for s in self._sessions.values()
                       if s.state == "open"
                       and (tenant is None or s.tenant == tenant))

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _count(self, name: str, **labels) -> None:
        registry = self.server.obs.registry
        registry.counter(name, **labels).inc()
