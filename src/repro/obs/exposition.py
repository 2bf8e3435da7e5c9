"""HTTP exposition: ``/metrics`` (Prometheus text), ``/ui``, ``/healthz``.

The paper's HiveServer2 ships a web UI showing active queries and
recent performance; LLAP daemons expose a monitor servlet that cluster
tooling scrapes.  This module is that surface for the simulator, built
on the stdlib only:

* :func:`render_prometheus` turns a
  :class:`~repro.obs.registry.MetricsRegistry` snapshot into Prometheus
  text-format 0.0.4 — ``# HELP`` / ``# TYPE`` headers from the
  registry's help catalog, label escaping, and full
  ``_bucket``/``_sum``/``_count`` expansion for histograms.
* :class:`MonitorHttpServer` is a daemon-threaded
  ``ThreadingHTTPServer`` with three routes: ``/metrics`` (triggers a
  scrape-time timeseries sample, then renders the registry), ``/ui``
  (a JSON dashboard: live queries, per-daemon heatmap, recent WM and
  fault events, timeseries names) and ``/healthz``.

Metric names are mangled ``dots → underscores`` under a ``hive_``
prefix, e.g. ``llap.cache.used_bytes`` → ``hive_llap_cache_used_bytes``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

#: registry kind -> Prometheus TYPE keyword
_PROM_TYPES = {"counter": "counter", "gauge": "gauge",
               "callback": "gauge", "histogram": "histogram"}


def prom_name(name: str) -> str:
    """Registry name -> Prometheus metric name (``hive_`` prefixed)."""
    return "hive_" + name.replace(".", "_").replace("-", "_")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _labels_text(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"'
                    for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _fmt(value) -> str:
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry) -> str:
    """Prometheus text-format 0.0.4 for every series in the registry."""
    lines: list[str] = []
    snapshot = registry.snapshot()
    for name in sorted(snapshot):
        rows = snapshot[name]
        if not rows:
            continue
        pname = prom_name(name)
        kind = registry.kind_of(name)
        help_text = registry.describe(name)
        if help_text:
            lines.append(f"# HELP {pname} {help_text}")
        lines.append(
            f"# TYPE {pname} {_PROM_TYPES.get(kind, 'untyped')}")
        for row in rows:
            labels = row.get("labels", {})
            if "buckets" in row:
                for bound, cumulative in row["buckets"]:
                    lines.append(
                        f"{pname}_bucket"
                        f"{_labels_text(labels, {'le': _fmt(bound)})}"
                        f" {_fmt(cumulative)}")
                lines.append(f"{pname}_sum{_labels_text(labels)}"
                             f" {_fmt(row['sum'])}")
                lines.append(f"{pname}_count{_labels_text(labels)}"
                             f" {_fmt(row['count'])}")
            else:
                lines.append(f"{pname}{_labels_text(labels)}"
                             f" {_fmt(row['value'])}")
    return "\n".join(lines) + "\n"


def render_ui(obs) -> dict:
    """The ``/ui`` JSON dashboard document."""
    live = [dict(zip(
        ("query_id", "statement", "database", "application", "phase",
         "pool", "started_s", "elapsed_s", "vertices_total",
         "vertices_done", "tasks_total", "tasks_done", "progress",
         "eta_s", "kill_requested"), row))
        for row in obs.live_queries.rows()]
    heatmap = [dict(zip(("node", "cache_bytes", "cache_chunks",
                         "occupancy"), row))
               for row in obs.cluster.llap_daemon_rows()]
    wm_events = [{"query_id": e.query_id, "pool": e.pool,
                  "action": e.action, "trigger": e.trigger_name,
                  "value": e.value}
                 for e in obs.wm_events.entries()[-20:]]
    faults = []
    if obs.faults is not None:
        faults = [{"query_id": f.query_id, "site": f.site,
                   "target": f.target, "detail": f.detail}
                  for f in obs.faults.events()[-20:]]
    audit = [{"query_id": r.query_id, "tenant": r.tenant,
              "operation": r.operation, "status": r.status,
              "inputs": r.inputs(), "outputs": r.outputs(),
              "rows_returned": r.rows_produced, "at_s": r.at_s}
             for r in obs.audit_log.entries()[-20:]]
    lineage = [{"fingerprint": r.fingerprint,
                "dst_table": r.dst_table,
                "edges": len(r.edges), "executions": r.executions,
                "at_s": r.at_s}
               for r in obs.lineage_graph.records()[-20:]]
    return {
        "live_queries": live,
        "nodes": heatmap,
        "wm_events": wm_events,
        "fault_events": faults,
        "timeseries": obs.timeseries.names(),
        "queries_logged": len(obs.query_log),
        "query_store": obs.query_store.ui_snapshot(),
        "audit": {"records": len(obs.audit_log),
                  "recent": audit},
        "lineage": {"fingerprints": len(obs.lineage_graph),
                    "edges": obs.lineage_graph.edge_count(),
                    "recent": lineage},
    }


class _MonitorHandler(BaseHTTPRequestHandler):
    server_version = "repro-monitor/1.0"
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - stdlib API
        obs = self.server.obs
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                obs.scrape()
                self._reply(200, render_prometheus(obs.registry),
                            "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/ui":
                body = json.dumps(render_ui(obs), indent=2,
                                  default=str)
                self._reply(200, body, "application/json")
            elif path == "/healthz":
                self._reply(200, "ok\n", "text/plain; charset=utf-8")
            else:
                self._reply(404, "not found\n",
                            "text/plain; charset=utf-8")
        except Exception as exc:  # surface, don't kill the thread
            self._reply(500, f"error: {exc}\n",
                        "text/plain; charset=utf-8")

    def _reply(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # noqa: A002 - stdlib API
        pass  # scrapes must not spam the test output


class MonitorHttpServer:
    """Daemon-threaded monitor endpoint for one server's facade."""

    def __init__(self, obs, host: str = "127.0.0.1", port: int = 0):
        self._httpd = ThreadingHTTPServer((host, port), _MonitorHandler)
        self._httpd.daemon_threads = True
        self._httpd.obs = obs
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MonitorHttpServer":
        thread = threading.Thread(target=self._httpd.serve_forever,
                                  name="repro-monitor", daemon=True)
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
