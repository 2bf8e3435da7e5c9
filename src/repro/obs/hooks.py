"""Execution hooks: Hive's ecosystem integration point, reproduced.

Production Hive fires pre/post-execution hooks around every statement;
Apache Atlas consumes them for lineage and Apache Ranger for audit
(Camacho-Rodriguez et al., SIGMOD 2019, §6).  This module provides the
same shape: a :class:`HookRegistry` holding named hooks fired at three
phases — ``pre_exec`` (after parse/fingerprint, before execution),
``post_exec`` (statement succeeded) and ``on_failure`` (statement
errored, was killed, or was denied) — each receiving the statement's
:class:`~repro.obs.query_log.StatementRecord` with its resolved
inputs/outputs.  ``Session.execute`` fires ``pre_exec``; the terminal
phase of *every* statement, whichever producer built its record, is
fired by ``Observability.record_query``.

Isolation contract: a hook can never change a statement's result or
status.  Exceptions are caught, logged and counted (``hooks.errors``);
a hook whose wall-clock runtime exceeds the ``hive.hook.timeout.s``
budget is quarantined (skipped for subsequent statements, counted in
``hooks.timeouts``).  Hooks run inline on the executing thread — the
first over-budget run still blocks for its duration, a documented blind
spot of the inline model (see DESIGN.md).

Every per-statement sink — query log, query store, ``queries.*``
metrics, lineage, provenance, audit — is an ordinary registration made
by :func:`register_builtin_hooks`; user hooks go through
``HiveServer2.register_hook`` (reprolint RL013 flags hook registrations
anywhere else).
"""

from __future__ import annotations

import logging
import time

from ..common import sync
from dataclasses import dataclass
from typing import Callable

from .query_log import StatementRecord

logger = logging.getLogger("repro.obs.hooks")

#: hook phases, in firing order
PRE_EXEC = "pre_exec"
POST_EXEC = "post_exec"
ON_FAILURE = "on_failure"
PHASES = (PRE_EXEC, POST_EXEC, ON_FAILURE)


@dataclass
class HookEntry:
    name: str
    fn: Callable
    phases: frozenset
    builtin: bool = False
    #: quarantined after a timeout — skipped until re-registered
    disabled: bool = False
    calls: int = 0
    failures: int = 0


class HookRegistry:
    """Named hooks fired per phase, with error/timeout isolation."""

    def __init__(self, metrics=None, timeout_s: float = 1.0):
        self._lock = sync.new_lock('HookRegistry._lock')
        self._hooks: list[HookEntry] = []
        self.metrics = metrics
        self.timeout_s = float(timeout_s)

    def register(self, name: str, fn: Callable, phases=PHASES,
                 builtin: bool = False) -> HookEntry:
        """Add (or replace, by name) a hook.

        ``fn`` is called as ``fn(phase, record)``.  Re-registering a
        quarantined name re-enables it.
        """
        entry = HookEntry(name=name, fn=fn,
                          phases=frozenset(phases), builtin=builtin)
        with self._lock:
            self._hooks = [h for h in self._hooks if h.name != name]
            self._hooks.append(entry)
        return entry

    def unregister(self, name: str) -> bool:
        with self._lock:
            before = len(self._hooks)
            self._hooks = [h for h in self._hooks if h.name != name]
            return len(self._hooks) != before

    def hooks(self) -> list[HookEntry]:
        with self._lock:
            return list(self._hooks)

    def set_timeout(self, timeout_s: float) -> None:
        with self._lock:
            self.timeout_s = float(timeout_s)

    def fire(self, phase: str, record: StatementRecord) -> None:
        """Run every enabled hook registered for ``phase``.

        Never raises: hook exceptions and timeouts are absorbed here so
        the statement's outcome is exactly what it would have been with
        no hooks installed.
        """
        with self._lock:
            snapshot = list(self._hooks)
            budget = self.timeout_s
        for entry in snapshot:
            if entry.disabled or phase not in entry.phases:
                continue
            started = time.perf_counter()
            try:
                entry.fn(phase, record)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                logger.warning("hook %s failed in %s: %s",
                               entry.name, phase, exc)
                self._count("hooks.errors", entry.name, phase)
                with self._lock:
                    entry.failures += 1
            elapsed = time.perf_counter() - started
            with self._lock:
                entry.calls += 1
                if elapsed > budget:
                    entry.disabled = True
            self._count("hooks.fired", entry.name, phase)
            if elapsed > budget:
                logger.warning(
                    "hook %s exceeded %.3fs budget (%.3fs); quarantined",
                    entry.name, budget, elapsed)
                self._count("hooks.timeouts", entry.name, phase)

    def _count(self, name: str, hook: str, phase: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, hook=hook, phase=phase).inc()


# --------------------------------------------------------------------------- #
# built-in hooks: the per-statement sinks (incl. Atlas/Ranger equivalents)

#: operation → provenance kind for table→table edges
_PROVENANCE_KINDS = {
    "create_table": "ctas",
    "insert": "insert",
    "multi_insert": "insert",
    "merge": "insert",
    "create_materialized_view": "mv",
    "rebuild": "mv",
}


def make_metrics_hook(registry) -> Callable:
    """The ``queries.*`` / ``query.latency_s`` series."""

    def metrics_hook(phase: str, record: StatementRecord) -> None:
        registry.counter("queries.total",
                         operation=record.operation or "unknown",
                         status=record.status).inc()
        if record.status == "ok" and not record.from_cache:
            registry.histogram(
                "query.latency_s",
                pool=record.pool or "unmanaged").observe(record.total_s)
        if record.from_cache:
            registry.counter("queries.results_cache_hits").inc()

    return metrics_hook


def make_lineage_hook(graph) -> Callable:
    """Atlas-style hook: column-level edges into the lineage graph."""
    from .lineage import extract_lineage

    def lineage_hook(phase: str, record: StatementRecord) -> None:
        if not graph.enabled or record.optimized is None:
            return
        edges = extract_lineage(record.optimized.root)
        dst = record.outputs()
        graph.record(fingerprint=record.fingerprint,
                     statement=record.statement,
                     query_id=record.query_id, at_s=record.at_s,
                     edges=edges, dst_table=dst[0] if dst else "")

    return lineage_hook


def make_provenance_hook(hms) -> Callable:
    """Registers table→table provenance in the metastore for
    CTAS / INSERT / MV statements (survives rename, tombstoned on
    drop — see HiveMetastore.record_provenance)."""

    def provenance_hook(phase: str, record: StatementRecord) -> None:
        kind = _PROVENANCE_KINDS.get(record.operation)
        if kind is None or not record.output_tables:
            return
        for dst in record.outputs():
            for src in record.inputs():
                if src != dst:
                    hms.record_provenance(dst, src, kind, record.at_s)

    return provenance_hook


def register_builtin_hooks(registry: HookRegistry, obs, hms) -> None:
    """Install every per-statement sink of a server, in the order the
    sys tables are documented to agree in: the log rows exist before the
    aggregates and the ecosystem hooks (Atlas lineage, Ranger audit) see
    the statement, and user hooks come after all of them.

    These are ordinary registrations — the statement pipeline has no
    special-cased knowledge of them, so ``unregister("audit")``
    genuinely turns auditing off, and a sink that raises or stalls is
    isolated exactly like a user hook.
    """
    ended = (POST_EXEC, ON_FAILURE)
    for name, fn, phases in (
            ("query_log", lambda _, record: obs.query_log.append(record),
             ended),
            ("query_store",
             lambda _, record: obs.query_store.record(record), ended),
            ("metrics", make_metrics_hook(obs.registry), ended),
            ("lineage", make_lineage_hook(obs.lineage_graph), (POST_EXEC,)),
            ("provenance", make_provenance_hook(hms), (POST_EXEC,)),
            ("audit", lambda _, record: obs.audit_log.append(record),
             ended)):
        registry.register(name, fn, phases=phases, builtin=True)
