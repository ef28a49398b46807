"""``pvc-bench obs serve``: a stdlib OpenMetrics exporter for run dirs.

A :class:`~repro.service.httpd.GracefulHTTPServer` publishing three
routes:

* ``/metrics`` — the run directory folded into an OpenMetrics
  exposition (:func:`repro.obs.export.run_registry` +
  :meth:`~repro.telemetry.metrics.MetricsRegistry.to_openmetrics`).
  Rebuilt from disk on every scrape, so a Prometheus pointed at a
  *running* campaign sees live progress without any coupling to the
  orchestrator process.  When the directory is a *service* state dir
  (it contains ``requests.ndjson``), the exposition is the per-tenant
  RED registry (:func:`repro.obs.requests.red_registry`) instead.
* ``/healthz`` — liveness (always 200 once the server is up).
* ``/`` — a plain-text index.

No third-party dependencies: the whole exporter is ``http.server``
over the same event-stream readers the watch board uses.  Port 0 binds
an ephemeral port (tests scrape ``server.server_address``).

Shutdown is the graceful path the benchmark daemon uses: handler
threads are *daemonic by deliberate choice* (a drain overrun must
never hang interpreter exit) but tracked, and :meth:`ObsServer.stop`
drains in-flight scrapes against a bound before closing the socket —
a mid-scrape Ctrl-C finishes the response it owes instead of tearing
the connection mid-write.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler

from ..errors import CampaignError
from ..service.httpd import GracefulHTTPServer
from .export import run_registry
from .requests import REQUESTS_FILE, red_registry


def _scrape_registry(rundir: str):
    """Pick the registry that matches what the directory holds."""
    if os.path.exists(os.path.join(rundir, REQUESTS_FILE)):
        return red_registry(rundir)
    return run_registry(rundir)

__all__ = ["ObsServer", "serve_main"]

#: Content type the OpenMetrics spec registers for text expositions.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def _send(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        rundir = self.server.rundir  # type: ignore[attr-defined]
        if self.path == "/metrics":
            try:
                body = _scrape_registry(rundir).to_openmetrics()
            except Exception as exc:  # noqa: BLE001 - surfaced as 500
                self._send(500, f"scrape failed: {exc}\n", "text/plain")
                return
            self._send(200, body, OPENMETRICS_CONTENT_TYPE)
        elif self.path == "/healthz":
            self._send(200, "ok\n", "text/plain")
        elif self.path == "/":
            self._send(
                200,
                f"repro obs exporter for {rundir}\n"
                "routes: /metrics /healthz\n",
                "text/plain",
            )
        else:
            self._send(404, "not found\n", "text/plain")

    def log_message(self, format, *args) -> None:  # noqa: A002
        # Scrape chatter stays off stderr; failures surface as statuses.
        pass


class ObsServer(GracefulHTTPServer):
    """The exporter bound to one run directory."""

    def __init__(self, rundir: str | os.PathLike, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.rundir = os.fspath(rundir)
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self, name: str = "obs-serve") -> threading.Thread:
        """Serve from a daemon thread (tests; embedding in a watch)."""
        return super().serve_background(name=name)

    def stop(self, timeout_s: float = 5.0) -> bool:
        """Drain in-flight scrapes (bounded) and close the socket."""
        return self.shutdown_gracefully(timeout_s)


def serve_main(args) -> int:
    """Dispatch ``pvc-bench obs serve <rundir> [--port N]``."""
    rundir = args.rundir
    if not os.path.isdir(rundir):
        raise CampaignError(f"{rundir} is not a directory")
    server = ObsServer(rundir, port=args.port)
    stop = threading.Event()

    def handler(signum, frame):  # pragma: no cover - signal timing
        stop.set()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, handler)
    server.serve_background()
    print(
        f"serving OpenMetrics for {rundir} at {server.url}/metrics "
        "(Ctrl-C drains and stops)",
        file=sys.stderr,
    )
    try:
        stop.wait()
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        drained = server.stop()
        if not drained:
            print(
                f"abandoned {server.abandoned_handlers} wedged scrape(s)",
                file=sys.stderr,
            )
    return 0
