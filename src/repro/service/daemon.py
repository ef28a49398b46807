"""``pvc-bench serve-bench``: the fault-tolerant benchmark daemon.

A stdlib-only HTTP service that accepts benchmark and campaign
requests, multiplexes them onto the existing execution machinery
(table renderers for ``bench`` requests, the fork-worker campaign
scheduler for ``campaign`` requests), and serves status and results —
engineered for failure first:

* **Admission control** (:mod:`.admission`): per-tenant token buckets
  and a bounded backlog; overload sheds with ``429`` + ``Retry-After``
  instead of queueing unboundedly.
* **Durable intent** (:mod:`.state`): every admitted request is
  journalled before it is queued, its terminal record is written
  atomically before ``done`` is journalled, and results are cached in
  the request-result :class:`~repro.sim.memostore.MemoStore` by content
  digest — so a SIGKILL at *any* point either lost nothing or lost
  only work a retry reproduces byte-identically.
* **Idempotency**: a replayed request id returns (or attaches to) the
  original execution; distinct ids with equal content hit the result
  cache, and campaign requests share a run directory keyed by content
  digest whose resume path verifies-and-skips completed units.
* **Lifecycle**: SIGTERM drains — in-flight requests finish (bounded),
  queued ones stay journalled for the next start, new ones get 503;
  startup replays the journal, re-enqueues the backlog, and resumes
  half-run campaigns through the normal resume machinery.
* **Deadlines**: a request's ``deadline_s`` bounds its queue wait and,
  for campaigns, propagates into the orchestrator's simulated-clock
  deadline/watchdog supervision.

Observability rides the existing rails and, since this PR, follows
every request end to end (:mod:`repro.obs.requests`):

* each request gets a deterministic W3C-style trace context minted
  from ``(request_id, content digest)`` — returned in the
  ``traceparent`` response header, threaded through admission, stamped
  onto the state directory's live events, and exported into campaign
  orchestrators/workers via :data:`~repro.obs.requests.TRACEPARENT_ENV`
  so one trace id links the HTTP accept to the fork workers and cache
  hits it caused;
* ``requests.ndjson`` records one schema-validated span per terminal
  request with per-phase timings (parse, admission, queue, cache,
  execute, serialize), and the terminal JSON record carries the same
  phase summary so journal replay reconstructs latency attribution;
* ``/metrics`` serves per-tenant/per-endpoint RED series and
  ``/healthz`` embeds the SLO tracker's multi-window burn rates;
  ``GET /board`` is the live document ``pvc-bench service watch``
  renders.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler

from ..analysis.figures import render_figure
from ..analysis.report import full_report
from ..analysis.tables import (
    table_i,
    table_ii,
    table_iii,
    table_iv,
    table_v,
    table_vi,
)
from ..errors import CampaignError, ReproError
from ..exitcodes import ExitCode, classify_error
from ..faults import ExecutionContext
from ..obs.events import EventBus
from ..obs.requests import (
    PHASES,
    TRACEPARENT_HEADER,
    RequestLog,
    SLOConfig,
    SLOTracker,
    TraceContext,
    mint_trace,
    record_span_metrics,
    register_red_metrics,
)
from ..telemetry.metrics import MetricsRegistry
from .admission import AdmissionController
from .httpd import GracefulHTTPServer
from .state import ServiceState, normalize_request, request_digest

__all__ = ["BenchDaemon", "serve_bench_main"]

#: Content type the OpenMetrics spec registers for text expositions.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Upper bound on a synchronous (``wait=1``) request's block time.
DEFAULT_WAIT_S = 120.0

#: Extra wait beyond a request's deadline before ``?wait=1`` gives up:
#: a request the executor expires *at* its deadline still answers the
#: waiting connection with its terminal "deadline-expired" record
#: rather than a raced "running" snapshot.
DEADLINE_WAIT_GRACE_S = 5.0

#: Executor threads pulling from the admission queue.
DEFAULT_WORKERS = 4

#: Largest request body the daemon will read (a request is a small
#: JSON document; anything bigger is a client bug or an attack).
MAX_BODY_BYTES = 64 * 1024

#: Benchmark commands a ``bench`` request may name.  Everything here is
#: a pure function of ``(command, scenario, seed)``, which is what
#: makes result caching and crash-retry byte-identical.
_BENCH_COMMANDS = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "report",
)


def _render_bench(command: str, ctx: ExecutionContext) -> str:
    if command == "table1":
        return table_i()
    if command == "table2":
        return table_ii(ctx=ctx).render()
    if command == "table3":
        return table_iii(ctx=ctx).render()
    if command == "table4":
        return table_iv().render()
    if command == "table5":
        return table_v()
    if command == "table6":
        return table_vi(ctx=ctx).render()
    if command == "report":
        return full_report(ctx)
    if command in ("fig1", "fig2", "fig3", "fig4"):
        return render_figure(command)
    raise CampaignError(
        f"unknown bench command {command!r}; choose from: "
        + ", ".join(_BENCH_COMMANDS)
    )


def _trace_headers(doc: dict) -> dict:
    """A ``traceparent`` header from a record/status document (or {})."""
    trace_id = doc.get("trace_id")
    span_id = doc.get("span_id")
    if not trace_id or not span_id:
        return {}
    return {
        TRACEPARENT_HEADER: TraceContext(trace_id, span_id).traceparent
    }


def _endpoint(body: dict) -> str:
    """The RED ``endpoint`` label: kind plus what it runs."""
    if body.get("kind") == "campaign":
        return f"campaign:{body.get('spec', '?')}"
    return f"bench:{body.get('command', '?')}"


class _QueuedRequest:
    """One admitted request's in-memory lifecycle handle."""

    __slots__ = (
        "request_id",
        "tenant",
        "body",
        "digest",
        "accepted_at",
        "enqueued_at",
        "status",
        "done",
        "trace",
        "endpoint",
        "phases",
    )

    def __init__(
        self, request_id: str, tenant: str, body: dict, digest: str
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.body = body
        self.digest = digest
        self.accepted_at = time.monotonic()
        #: Stamped (again) when the request becomes takeable, so the
        #: queue phase measures queue wait alone, not submit overhead.
        self.enqueued_at = self.accepted_at
        self.status = "queued"
        self.done = threading.Event()
        self.trace: TraceContext = mint_trace(request_id, digest)
        self.endpoint = _endpoint(body)
        #: phase name -> seconds (see repro.obs.requests.PHASES).
        self.phases: dict[str, float] = {}


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def daemon(self) -> "BenchDaemon":
        return self.server.bench_daemon  # type: ignore[attr-defined]

    def _send(
        self,
        status: int,
        body: str,
        content_type: str = "application/json",
        extra_headers: dict | None = None,
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self, status: int, doc: dict, extra_headers: dict | None = None
    ) -> None:
        self._send(
            status,
            json.dumps(doc, sort_keys=True) + "\n",
            extra_headers=extra_headers,
        )

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

    def _path_parts(self) -> tuple[list[str], dict]:
        path, _, query = self.path.partition("?")
        params = {}
        for pair in query.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                params[key] = value
        return [p for p in path.split("/") if p], params

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts, _params = self._path_parts()
        daemon = self.daemon
        if parts == ["healthz"]:
            self._send_json(
                200,
                {"status": "draining" if daemon.draining else "ok",
                 "pid": os.getpid(),
                 "slo": daemon.slo.snapshot()},
            )
        elif parts == ["metrics"]:
            self._send(
                200, daemon.openmetrics(), content_type=OPENMETRICS_CONTENT_TYPE
            )
        elif parts == ["board"]:
            self._send_json(200, daemon.board())
        elif parts == []:
            self._send(
                200,
                "repro benchmark service\n"
                "routes: POST /v1/requests, GET /v1/requests/<id>[/result], "
                "/metrics, /healthz, /board\n",
                content_type="text/plain",
            )
        elif len(parts) >= 2 and parts[:2] == ["v1", "requests"]:
            if len(parts) == 3:
                self._get_request(parts[2], as_text=False)
            elif len(parts) == 4 and parts[3] == "result":
                self._get_request(parts[2], as_text=True)
            else:
                self._send_json(404, {"error": "not found"})
        else:
            self._send_json(404, {"error": "not found"})

    def _get_request(self, request_id: str, as_text: bool) -> None:
        doc = self.daemon.request_status(request_id)
        if doc is None:
            self._send_json(404, {"error": f"unknown request {request_id!r}"})
            return
        if not as_text:
            self._send_json(200, doc)
            return
        if doc.get("status") not in ("done", "failed", "interrupted"):
            self._send_json(
                409, {"error": "request not finished", "status": doc["status"]}
            )
            return
        self._send(200, doc.get("text", ""), content_type="text/plain")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parts, params = self._path_parts()
        daemon = self.daemon
        if parts == ["v1", "drain"]:
            daemon.begin_drain()
            self._send_json(200, {"status": "draining"})
            return
        if parts != ["v1", "requests"]:
            self._send_json(404, {"error": "not found"})
            return
        if daemon.draining:
            self._send_json(
                503,
                {"error": "draining; retry against the restarted daemon"},
                extra_headers={"Retry-After": "5"},
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "missing or oversized body"})
            return
        parse_start = time.monotonic()
        try:
            raw = self.rfile.read(length)
            doc = json.loads(raw.decode("utf-8"))
        except (OSError, TimeoutError, UnicodeDecodeError,
                json.JSONDecodeError):
            # Includes the slow-loris case: the socket timeout fires
            # mid-body and the connection is dropped with a 400.
            try:
                self._send_json(400, {"error": "unreadable request body"})
            except OSError:
                pass
            return
        parse_s = time.monotonic() - parse_start
        status, response, headers = daemon.submit(doc, parse_s=parse_s)
        wait = params.get("wait") or (doc.get("wait") if isinstance(doc, dict)
                                      else None)
        if status == 202 and wait:
            deadline_s = response.get("deadline_s")
            finished = daemon.wait_for(
                response["request_id"],
                timeout_s=(
                    deadline_s + DEADLINE_WAIT_GRACE_S
                    if deadline_s
                    else DEFAULT_WAIT_S
                ),
            )
            if finished is not None:
                # The synchronous reply carries the same trace context
                # as the async 202 would, so clients correlate either
                # way.
                self._send_json(
                    200, finished, extra_headers=_trace_headers(finished)
                )
                return
        self._send_json(status, response, extra_headers=headers)


class BenchDaemon:
    """The benchmark-as-a-service process (HTTP front end + executors)."""

    def __init__(
        self,
        directory: str | os.PathLike,
        port: int = 0,
        host: str = "127.0.0.1",
        workers: int = DEFAULT_WORKERS,
        admission: AdmissionController | None = None,
        drain_timeout_s: float = 30.0,
        slo: SLOConfig | None = None,
    ) -> None:
        self.state = ServiceState(directory)
        self.workers = max(int(workers), 1)
        self.drain_timeout_s = drain_timeout_s
        self.draining = False
        self.admission = admission or AdmissionController()
        self.events = EventBus(self.state.root)
        self.metrics = MetricsRegistry()
        self.metrics.counter("service.requests", "requests by kind/outcome")
        self.metrics.counter("service.shed", "requests shed by admission")
        self.metrics.counter("service.recovered",
                             "requests replayed from the queue journal")
        self.metrics.histogram(
            "service.latency_s",
            "request latency (accept to terminal record)",
            buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0),
        )
        register_red_metrics(self.metrics)
        self.slo_config = slo or SLOConfig()
        #: Service-wide SLO plus a lazily-created per-tenant tracker
        #: (the board shows who is burning the budget, not just that
        #: someone is).
        self.slo = SLOTracker(self.slo_config)
        self._tenant_slo: dict[str, SLOTracker] = {}
        self._tenant_slo_lock = threading.Lock()
        self.request_log = RequestLog(self.state.root)
        self.state.cache.on_quarantine = lambda key: self.events.live(
            "cache-quarantined", key=key
        )
        self._inflight: dict[str, _QueuedRequest] = {}
        self._inflight_lock = threading.Lock()
        #: digest -> [lock, refcount]: serializes executions of equal
        #: content, so two campaign requests sharing a run directory
        #: can never run two Orchestrators over the same journal.
        self._digest_locks: dict[str, list] = {}
        self._digest_locks_guard = threading.Lock()
        self._executors: list[threading.Thread] = []
        self._stop = threading.Event()
        self.server = GracefulHTTPServer((host, port), _Handler)
        self.server.bench_daemon = self  # type: ignore[attr-defined]
        self._recovered = self._recover()
        self.events.live(
            "service-start",
            pid=os.getpid(),
            port=self.port,
            recovered=self._recovered,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self) -> int:
        """Replay the queue journal: re-enqueue unfinished requests."""
        survivors = self.state.recover()
        for item in reversed(survivors):
            # reversed + appendleft preserves acceptance order.
            req = _QueuedRequest(
                item["request_id"],
                item["tenant"],
                item["request"],
                request_digest(item["request"]),
            )
            with self._inflight_lock:
                self._inflight[req.request_id] = req
            self.admission.requeue(req.tenant, req)
            self.metrics.inc("service.recovered")
            self.events.live(
                "request-recovered",
                request=req.request_id,
                tenant=req.tenant,
            )
        return len(survivors)

    # ------------------------------------------------------------------
    # submission (handler thread)
    # ------------------------------------------------------------------

    def submit(self, doc, parse_s: float = 0.0) -> tuple[int, dict, dict]:
        """Admit one request; returns ``(http_status, body, headers)``."""
        try:
            if not isinstance(doc, dict):
                raise ValueError("request body must be a JSON object")
            request_id = doc.get("request_id")
            if not isinstance(request_id, str) or not request_id:
                raise ValueError("requests need a string 'request_id'")
            tenant = doc.get("tenant", "default")
            if not isinstance(tenant, str) or not tenant:
                raise ValueError("tenant must be a non-empty string")
            body = normalize_request(doc)
        except (TypeError, ValueError) as exc:
            # TypeError too: a coercion a validator missed must still
            # map to a 400, never a dropped connection.
            return 400, {"error": str(exc)}, {}
        digest = request_digest(body)

        # Idempotency layer 1: a known request id never re-runs.  The
        # existence check and the in-flight registration are one
        # critical section, so two concurrent POSTs carrying the same
        # retry key cannot both pass the check and double-run.
        req = _QueuedRequest(request_id, tenant, body, digest)
        req.phases["parse"] = parse_s
        trace_headers = {TRACEPARENT_HEADER: req.trace.traceparent}
        with self._inflight_lock:
            existing = self._status_locked(request_id)
            if existing is not None:
                replay = dict(existing)
                replay["replayed"] = True
                code = 200 if replay["status"] in ("done", "failed",
                                                   "interrupted") else 202
                # Trace ids are pure functions of (request_id, digest),
                # so the replay header matches the original execution's
                # spans — a retry correlates to the first run's trace.
                return code, replay, _trace_headers(replay) or trace_headers
            self._inflight[request_id] = req

        admit_start = time.monotonic()
        decision = self.admission.admit(tenant, trace_id=req.trace.trace_id)
        req.phases["admission"] = time.monotonic() - admit_start
        if not decision.admitted:
            with self._inflight_lock:
                self._inflight.pop(request_id, None)
            self.metrics.inc("service.shed", reason=decision.reason)
            self.events.live(
                "request-shed", tenant=tenant, reason=decision.reason,
                trace_id=req.trace.trace_id,
            )
            self._log_shed(req, decision.reason)
            retry_after = max(int(decision.retry_after_s + 0.999), 1)
            return (
                429,
                {
                    "error": f"admission refused: {decision.reason}",
                    "retry_after_s": decision.retry_after_s,
                    "trace_id": req.trace.trace_id,
                },
                {"Retry-After": str(retry_after), **trace_headers},
            )
        # Journal before enqueue, enqueue last: an executor only ever
        # sees a request whose journal entry and in-flight registration
        # already exist — ``done`` can never precede ``accepted`` and
        # ``_finish`` always finds the entry it pops.  A crash between
        # journal and enqueue at worst replays a request whose
        # execution is idempotent.
        try:
            self.state.journal_accepted(request_id, tenant, body)
        except OSError as exc:
            self.admission.release(trace_id=req.trace.trace_id)
            with self._inflight_lock:
                self._inflight.pop(request_id, None)
            return (
                503,
                {"error": f"could not journal request: {exc}"},
                {"Retry-After": "5"},
            )
        req.enqueued_at = time.monotonic()
        self.admission.enqueue(tenant, req, trace_id=req.trace.trace_id)
        self.events.live(
            "request-accepted",
            request=request_id,
            tenant=tenant,
            kind=body["kind"],
            trace_id=req.trace.trace_id,
        )
        response = {
            "request_id": request_id,
            "status": "queued",
            "digest": digest,
            "trace_id": req.trace.trace_id,
            "span_id": req.trace.span_id,
        }
        if body.get("deadline_s"):
            response["deadline_s"] = body["deadline_s"]
        return 202, response, trace_headers

    def _log_shed(self, req: _QueuedRequest, reason: str) -> None:
        """Record a shed in the request stream + RED counters."""
        try:
            record = self.request_log.append(
                "request-shed",
                trace_id=req.trace.trace_id,
                request=req.request_id,
                tenant=req.tenant,
                endpoint=req.endpoint,
                reason=reason,
            )
        except OSError:
            # An unwritable stream must not turn a clean 429 into a 500;
            # the RED counter below still accounts the shed.
            record = {
                "type": "request-shed",
                "tenant": req.tenant,
                "reason": reason,
            }
        record_span_metrics(self.metrics, record)

    def wait_for(self, request_id: str, timeout_s: float) -> dict | None:
        with self._inflight_lock:
            req = self._inflight.get(request_id)
        if req is None:
            return self.request_status(request_id)
        req.done.wait(timeout_s)
        return self.request_status(request_id)

    def request_status(self, request_id: str) -> dict | None:
        with self._inflight_lock:
            return self._status_locked(request_id)

    def _status_locked(self, request_id: str) -> dict | None:
        """:meth:`request_status` body; caller holds ``_inflight_lock``."""
        record = self.state.load_record(request_id)
        if record is not None:
            return record
        req = self._inflight.get(request_id)
        if req is None:
            return None
        return {
            "request_id": req.request_id,
            "status": req.status,
            "digest": req.digest,
            "trace_id": req.trace.trace_id,
            "span_id": req.trace.span_id,
        }

    # ------------------------------------------------------------------
    # execution (executor threads)
    # ------------------------------------------------------------------

    def _executor_loop(self) -> None:
        while not self._stop.is_set():
            taken = self.admission.take(timeout_s=0.2)
            if taken is None:
                continue
            _tenant, req = taken
            req.phases["queue"] = time.monotonic() - req.enqueued_at
            try:
                self._execute(req)
            except Exception as exc:  # noqa: BLE001 - terminal record
                self._finish(req, "failed", int(ExitCode.UNHEALTHY),
                             f"internal error: {exc}\n", cached=False)

    def _acquire_digest_lock(self, digest: str) -> None:
        with self._digest_locks_guard:
            entry = self._digest_locks.get(digest)
            if entry is None:
                entry = self._digest_locks[digest] = [threading.Lock(), 0]
            entry[1] += 1
        entry[0].acquire()

    def _release_digest_lock(self, digest: str) -> None:
        with self._digest_locks_guard:
            entry = self._digest_locks[digest]
            entry[0].release()
            entry[1] -= 1
            if entry[1] == 0:
                del self._digest_locks[digest]

    def _execute(self, req: _QueuedRequest) -> None:
        req.status = "running"
        body = req.body
        # Executions of equal content are serialized per digest: two
        # concurrent requests (a client retry racing its original, two
        # tenants asking the same question) must not fork two
        # Orchestrators into the shared campaign_dir(digest) — the
        # journal/worker machinery has no cross-instance locking.  The
        # loser of the race waits, then is served from the cache entry
        # the winner just wrote.
        self._acquire_digest_lock(req.digest)
        try:
            cache_start = time.monotonic()
            cached = self.state.cache.get(req.digest)
            req.phases["cache"] = time.monotonic() - cache_start
            hit = (
                cached is not None
                and isinstance(cached, dict)
                and "text" in cached
            )
            self.events.live(
                "request-cache",
                request=req.request_id,
                hit=bool(hit),
                trace_id=req.trace.trace_id,
            )
            if hit:
                self._finish(
                    req, cached["status"], cached["exit"], cached["text"],
                    cached=True,
                )
                return
            deadline = body.get("deadline_s")
            if deadline is not None and (
                time.monotonic() - req.accepted_at > deadline
            ):
                self._finish(
                    req, "failed", int(ExitCode.INTERRUPTED),
                    "deadline exceeded while queued\n", cached=False,
                    reason="deadline-expired",
                )
                return
            self.events.live(
                "request-executing",
                request=req.request_id,
                tenant=req.tenant,
                trace_id=req.trace.trace_id,
            )
            execute_start = time.monotonic()
            if body["kind"] == "bench":
                status, exit_code, text = self._run_bench(body)
            else:
                status, exit_code, text = self._run_campaign(body, req.trace)
            req.phases["execute"] = time.monotonic() - execute_start
            if status == "done":
                self.state.cache.put(
                    req.digest,
                    {"text": text, "exit": exit_code, "status": status},
                )
        finally:
            self._release_digest_lock(req.digest)
        self._finish(req, status, exit_code, text, cached=False)

    def _run_bench(self, body: dict) -> tuple[str, int, str]:
        try:
            ctx = ExecutionContext(body["scenario"], body["seed"])
            text = _render_bench(body["command"], ctx)
            return "done", int(ctx.exit_code()), text
        except ReproError as exc:
            return "failed", int(classify_error(exc)), f"{exc}\n"

    def _run_campaign(
        self, body: dict, trace: TraceContext | None = None
    ) -> tuple[str, int, str]:
        from ..campaign.orchestrator import Orchestrator
        from ..campaign.spec import get_spec

        directory = self.state.campaign_dir(request_digest(body))
        try:
            orch = Orchestrator(
                directory,
                spec=get_spec(body["spec"]),
                scenario=body["scenario"],
                seed=body["seed"],
                deadline_s=body.get("deadline_s"),
                jobs=body.get("jobs", 1),
                trace=trace.traceparent if trace else None,
            )
            code = int(orch.run_or_resume())
        except ReproError as exc:
            return "failed", int(classify_error(exc)), f"{exc}\n"
        if code == int(ExitCode.INTERRUPTED):
            return "interrupted", code, (
                "campaign stopped at its deadline; retry to resume\n"
            )
        # Result text: the table artifacts, concatenated in name order —
        # a pure function of the campaign, so retries after a crash are
        # byte-identical.
        parts: list[str] = []
        tables = orch.tables_dir
        if os.path.isdir(tables):
            for name in sorted(os.listdir(tables)):
                with open(os.path.join(tables, name), "r",
                          encoding="utf-8") as fh:
                    parts.append(f"# == {name} ==\n" + fh.read())
        status = "done" if code in (0, 1) else "failed"
        return status, code, "".join(parts)

    def _finish(
        self,
        req: _QueuedRequest,
        status: str,
        exit_code: int,
        text: str,
        cached: bool,
        reason: str | None = None,
    ) -> None:
        latency = time.monotonic() - req.accepted_at
        phases = {k: round(v, 6) for k, v in req.phases.items()}
        record = {
            "request_id": req.request_id,
            "tenant": req.tenant,
            "request": req.body,
            "digest": req.digest,
            "status": status,
            "exit": exit_code,
            "cached": cached,
            "text": text,
            # Latency attribution survives the process: journal replay
            # after a SIGKILL reconstructs where the time went, not
            # just what the answer was.
            "trace_id": req.trace.trace_id,
            "span_id": req.trace.span_id,
            "phases": phases,
        }
        if reason is not None:
            record["reason"] = reason
        # Terminal record first (atomic), then the journal's ``done``:
        # a crash between the two replays the request, finds the record
        # present, and skips — never the reverse.
        serialize_start = time.monotonic()
        self.state.write_record(req.request_id, record)
        self.state.journal_done(req.request_id, status, req.digest)
        req.phases["serialize"] = time.monotonic() - serialize_start
        req.status = status
        self.metrics.inc(
            "service.requests", kind=req.body["kind"], status=status
        )
        self.metrics.observe("service.latency_s", latency)
        self._log_span(req, status, cached, latency)
        ok = status == "done"
        self.slo.record(ok, latency)
        self._tenant_tracker(req.tenant).record(ok, latency)
        self.events.live(
            "request-completed",
            request=req.request_id,
            status=status,
            cached=cached,
            trace_id=req.trace.trace_id,
        )
        with self._inflight_lock:
            self._inflight.pop(req.request_id, None)
        req.done.set()

    def _log_span(
        self, req: _QueuedRequest, status: str, cached: bool, latency: float
    ) -> None:
        """Append the request's span to ``requests.ndjson`` + RED fold."""
        try:
            record = self.request_log.append(
                "request-span",
                trace_id=req.trace.trace_id,
                span_id=req.trace.span_id,
                request=req.request_id,
                tenant=req.tenant,
                endpoint=req.endpoint,
                status=status,
                cached=cached,
                latency_s=round(latency, 6),
                phases={k: round(v, 6) for k, v in req.phases.items()},
            )
        except OSError:
            # Same stance as _log_shed: observability must never make
            # a finished request fail.  Fold a minimal stand-in so the
            # RED series still count it.
            record = {
                "type": "request-span",
                "tenant": req.tenant,
                "endpoint": req.endpoint,
                "status": status,
                "latency_s": latency,
                "phases": {},
            }
        record_span_metrics(self.metrics, record)

    def _tenant_tracker(self, tenant: str) -> SLOTracker:
        with self._tenant_slo_lock:
            tracker = self._tenant_slo.get(tenant)
            if tracker is None:
                tracker = self._tenant_slo[tenant] = SLOTracker(
                    self.slo_config
                )
            return tracker

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def openmetrics(self) -> str:
        cache = self.state.cache.stats()
        for key in ("entries", "hits", "misses", "evictions", "quarantined"):
            self.metrics.set_gauge(f"service.cache.{key}", float(cache[key]))
        self.metrics.set_gauge("service.cache.hit_rate", cache["hit_rate"])
        admission = self.admission.stats()
        for key in ("depth", "admitted", "shed_tenant", "shed_backlog"):
            self.metrics.set_gauge(
                f"service.admission.{key}", float(admission[key])
            )
        self.metrics.set_gauge(
            "service.draining", 1.0 if self.draining else 0.0
        )
        return self.metrics.to_openmetrics()

    def board(self) -> dict:
        """The live service-board document (``GET /board``).

        One JSON object with everything ``pvc-bench service watch``
        renders: per-tenant in-flight/queued/shed/token-bucket state,
        RED counts and latency percentiles, phase percentiles, cache
        and admission stats, and the SLO burn snapshots.  The offline
        fold in :mod:`repro.obs.watch` produces the same shape from a
        dead state directory.
        """
        with self._inflight_lock:
            inflight = list(self._inflight.values())
        tenant_admission = self.admission.tenant_stats()
        latency = self.metrics.histogram("service.request.latency_s")
        phase_hist = self.metrics.histogram("service.request.phase_s")
        count = self.metrics.counter("service.request.count")
        errors = self.metrics.counter("service.request.errors")
        sheds = self.metrics.counter("service.request.sheds")
        with self._tenant_slo_lock:
            tenant_slo = dict(self._tenant_slo)
        tenants = (
            set(tenant_admission)
            | {r.tenant for r in inflight}
            | set(tenant_slo)
        )
        per_tenant: dict[str, dict] = {}
        for tenant in sorted(tenants):
            adm = tenant_admission.get(tenant, {})
            tracker = tenant_slo.get(tenant)
            per_tenant[tenant] = {
                "in_flight": sum(
                    1
                    for r in inflight
                    if r.tenant == tenant and r.status == "running"
                ),
                "queued": adm.get("queued", 0),
                "tokens": adm.get("tokens"),
                "capacity": adm.get("capacity"),
                "shed": int(
                    adm.get("shed") or sheds.total(tenant=tenant)
                ),
                "requests": int(count.total(tenant=tenant)),
                "errors": int(errors.total(tenant=tenant)),
                "p50_s": round(
                    latency.folded_percentile(0.5, tenant=tenant), 6
                ),
                "p99_s": round(
                    latency.folded_percentile(0.99, tenant=tenant), 6
                ),
                "slo": tracker.snapshot() if tracker else None,
            }
        phases = {
            phase: {
                "count": phase_hist.folded_state(phase=phase).total,
                "p50_s": round(
                    phase_hist.folded_percentile(0.5, phase=phase), 6
                ),
                "p99_s": round(
                    phase_hist.folded_percentile(0.99, phase=phase), 6
                ),
            }
            for phase in PHASES
        }
        return {
            "draining": self.draining,
            "pid": os.getpid(),
            "recovered": self._recovered,
            "cache": self.state.cache.stats(),
            "admission": self.admission.stats(),
            "tenants": per_tenant,
            "phases": phases,
            "slo": self.slo.snapshot(),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind executors + HTTP accept loop (background threads)."""
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._executor_loop,
                name=f"bench-exec-{index}",
                daemon=True,
            )
            thread.start()
            self._executors.append(thread)
        self.server.serve_background(name="bench-http")

    def begin_drain(self) -> None:
        """Refuse new work; current executions run to completion."""
        if self.draining:
            return
        self.draining = True
        with self._inflight_lock:
            running = sum(
                1 for r in self._inflight.values() if r.status == "running"
            )
        self.events.live(
            "service-drain",
            inflight=running,
            queued=self.admission.depth,
        )
        # Executors stop taking new queue items; whatever is queued
        # stays journalled for the next start.
        self._stop.set()
        self.admission.close()

    def stop(self, timeout_s: float | None = None) -> bool:
        """Drain gracefully and release every resource (idempotent)."""
        budget = self.drain_timeout_s if timeout_s is None else timeout_s
        deadline = time.monotonic() + budget
        self.begin_drain()
        for thread in self._executors:
            thread.join(max(deadline - time.monotonic(), 0.1))
        drained = self.server.shutdown_gracefully(
            max(deadline - time.monotonic(), 0.5)
        )
        return drained and not any(t.is_alive() for t in self._executors)

    def serve(self) -> int:
        """Foreground mode: run until SIGTERM/SIGINT, then drain."""
        stop = threading.Event()

        def handler(signum, frame):  # pragma: no cover - signal timing
            stop.set()

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, handler)
        self.start()
        print(
            f"serving benchmarks from {self.state.root} at {self.url} "
            f"({self.workers} executor(s); SIGTERM drains)",
            file=sys.stderr,
        )
        try:
            stop.wait()
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)
            clean = self.stop()
            print(
                "drained"
                if clean
                else "drain timed out; queued work persists for restart",
                file=sys.stderr,
            )
        return 0


def serve_bench_main(args) -> int:
    """Dispatch ``pvc-bench serve-bench --dir state [--port N] ...``."""
    slo = SLOConfig(
        latency_s=args.slo_latency, availability=args.slo_availability
    )
    daemon = BenchDaemon(
        args.dir, port=args.port, workers=args.workers, slo=slo
    )
    return daemon.serve()
