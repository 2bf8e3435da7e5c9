"""Per-tenant audit log: the ring buffer behind ``sys.audit_log``.

One record per statement — successes, errors, kills, and admission
denials alike — attributing every access to a tenant the way Hive's
Ranger hook does in production deployments (Camacho-Rodriguez et al.,
SIGMOD 2019, §6).  Each record carries the resolved input/output tables
and the per-table column sets the statement actually touched (post
column pruning), the rows it returned, and how long admission made it
wait.

Retention is the query log's :class:`~repro.obs.query_log.RingLog`: a
bounded in-memory ring (``hive.audit.capacity``) whose evicted records
spill to a store (optionally file-persisted as JSON lines), so
``sys.audit_log`` still covers long multi-tenant workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .query_log import RingLog


@dataclass
class AuditRecord:
    query_id: int
    tenant: str = "anonymous"
    session: str = ""
    database: str = "default"
    application: Optional[str] = None
    statement: str = ""
    operation: str = ""
    status: str = "ok"                 # ok | error | killed | denied
    error: str = ""
    #: resolved input tables (sorted), e.g. ["default.store_sales"]
    input_tables: list = field(default_factory=list)
    #: resolved output tables (sorted)
    output_tables: list = field(default_factory=list)
    #: per-table column access, as sorted "table.column" strings
    columns: list = field(default_factory=list)
    rows_returned: int = 0
    rows_affected: int = 0
    admission_wait_s: float = 0.0
    total_s: float = 0.0
    #: session virtual clock when the statement finished
    at_s: float = 0.0
    #: query-store identity; joins sys.audit_log to sys.query_store
    fingerprint: str = ""

    def as_row(self) -> tuple:
        """Row shape of ``sys.audit_log`` (see obs.systables)."""
        return (self.query_id, self.tenant, self.session, self.database,
                self.application, self.statement, self.operation,
                self.status, self.error,
                ",".join(self.input_tables), ",".join(self.output_tables),
                ",".join(self.columns), self.rows_returned,
                self.rows_affected, self.admission_wait_s, self.total_s,
                self.at_s, self.fingerprint)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "AuditRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class AuditLog(RingLog):
    """The per-tenant audit trail of one server."""

    record_type = AuditRecord

    def by_tenant(self, tenant: str) -> list[AuditRecord]:
        return [r for r in self.all_entries() if r.tenant == tenant]
