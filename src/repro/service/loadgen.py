"""``pvc-bench loadgen``: the service's load generator and drill client.

A stdlib-threads HTTP client that fires configurable request storms at
a running daemon and reports what the service promised under load:
admission behaviour (how much was shed, with what retry hints), tail
latency (p50/p90/p99 per outcome), and cache effectiveness (the warm
hit rate the CI smoke job asserts ≥90% on).

Latency percentiles come from the shared
:class:`~repro.telemetry.metrics.Histogram` estimator over the same
bucket layout (:data:`~repro.obs.requests.LATENCY_BUCKETS_S`) the
daemon's RED metrics use — client-side p99 and server-side p99 are the
same statistic computed by the same code, so they can be compared
without estimator skew.  The client also reads the ``traceparent``
response header the daemon mints, counting correlated responses, so a
storm's client-side latencies can be joined to server-side spans.

The request population is a pure function of ``(requests, tenants,
distinct, seed)`` via :class:`~repro.faults.process.SeededDraw`-style
deterministic choice — two loadgen runs with the same knobs issue the
same request ids and bodies, which is what lets the kill-drill compare
a pre-SIGKILL run against its post-restart retry byte-for-byte.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

from ..errors import CampaignError
from ..obs.requests import LATENCY_BUCKETS_S, TRACEPARENT_HEADER
from ..telemetry.metrics import Histogram

__all__ = [
    "LoadgenReport",
    "build_requests",
    "loadgen_main",
    "run_loadgen",
    "service_benchmark_entries",
]

#: Bench commands the generator samples from when asked for variety.
VARIED_COMMANDS = ("table1", "table2", "table4", "table5", "fig1", "fig2")

DEFAULT_REQUESTS = 200
DEFAULT_CONCURRENCY = 16
DEFAULT_TENANTS = 4
DEFAULT_TIMEOUT_S = 60.0


class LoadgenReport:
    """Aggregated outcome of one loadgen run."""

    def __init__(self) -> None:
        self.outcomes: dict[str, int] = {}
        self.latency = Histogram(
            "loadgen.latency_s", buckets=LATENCY_BUCKETS_S
        )
        self.cached_hits = 0
        self.completed = 0
        self.retry_after_seen = 0
        self.traced = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(
        self,
        outcome: str,
        latency_s: float,
        cached: bool = False,
        traced: bool = False,
    ) -> None:
        with self._lock:
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            self.latency.observe(latency_s, outcome=outcome)
            if traced:
                self.traced += 1
            if outcome == "done":
                self.completed += 1
                if cached:
                    self.cached_hits += 1

    def error(self, message: str) -> None:
        with self._lock:
            self.errors.append(message)
            self.outcomes["error"] = self.outcomes.get("error", 0) + 1

    @property
    def hit_rate(self) -> float:
        return self.cached_hits / self.completed if self.completed else 0.0

    def percentile(self, q: float, outcome: str | None = None) -> float:
        """Latency quantile — per outcome, or folded over all of them."""
        if outcome is None:
            return self.latency.folded_percentile(q)
        return self.latency.percentile(q, outcome=outcome)

    def to_dict(self) -> dict:
        summary = {}
        for outcome in sorted(self.outcomes):
            count = self.latency.count(outcome=outcome)
            if not count:
                continue
            summary[outcome] = {
                "count": count,
                "p50_s": round(self.latency.percentile(0.50, outcome=outcome), 6),
                "p90_s": round(self.latency.percentile(0.90, outcome=outcome), 6),
                "p99_s": round(self.latency.percentile(0.99, outcome=outcome), 6),
            }
        return {
            "outcomes": dict(sorted(self.outcomes.items())),
            "latency": summary,
            "completed": self.completed,
            "cached_hits": self.cached_hits,
            "hit_rate": round(self.hit_rate, 4),
            "shed_with_hint": self.retry_after_seen,
            "traced": self.traced,
            "errors": len(self.errors),
        }

    def render(self) -> str:
        doc = self.to_dict()
        lines = ["loadgen report", "-" * 48]
        for outcome, count in doc["outcomes"].items():
            stats = doc["latency"].get(outcome)
            tail = (
                f"  p50={stats['p50_s'] * 1e3:8.1f}ms"
                f"  p99={stats['p99_s'] * 1e3:8.1f}ms"
                if stats
                else ""
            )
            lines.append(f"{outcome:<12} {count:6d}{tail}")
        lines.append(
            f"cache        {doc['cached_hits']}/{doc['completed']} warm "
            f"(hit rate {doc['hit_rate']:.1%})"
        )
        if doc["shed_with_hint"]:
            lines.append(
                f"shed         {doc['shed_with_hint']} with Retry-After hints"
            )
        if doc["traced"]:
            lines.append(
                f"traced       {doc['traced']} responses carried traceparent"
            )
        if doc["errors"]:
            lines.append(f"errors       {doc['errors']}")
        return "\n".join(lines)


def build_requests(
    count: int,
    tenants: int = DEFAULT_TENANTS,
    distinct: int = 1,
    seed: int = 0,
    prefix: str = "load",
    deadline_s: float | None = None,
) -> list[dict]:
    """The deterministic request population for one run.

    ``distinct`` controls content variety: 1 means every request shares
    one body (maximal cache pressure — the warm-rate drill), larger
    values cycle through :data:`VARIED_COMMANDS` and seeds.  Request
    ids are stable across runs with the same knobs, so a repeat run
    exercises the daemon's idempotency path end to end.
    """
    distinct = max(1, min(distinct, count)) if count else 0
    population = []
    for index in range(count):
        variant = (index * 2654435761 + seed) % distinct
        body = {
            "request_id": f"{prefix}-{seed}-{index:05d}",
            "tenant": f"tenant-{index % max(tenants, 1)}",
            "command": VARIED_COMMANDS[variant % len(VARIED_COMMANDS)],
            "seed": seed + variant // len(VARIED_COMMANDS),
        }
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        population.append(body)
    return population


def _issue(
    host: str,
    port: int,
    body: dict,
    report: LoadgenReport,
    timeout_s: float,
    slow_loris_s: float = 0.0,
) -> None:
    started = time.monotonic()
    try:
        conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        try:
            payload = json.dumps(body)
            if slow_loris_s > 0.0:
                # Deliberately dribble the body to trip (or probe) the
                # server's per-socket timeout.
                conn.putrequest("POST", "/v1/requests?wait=1")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", str(len(payload)))
                conn.endheaders()
                half = len(payload) // 2
                conn.send(payload[:half].encode())
                time.sleep(slow_loris_s)
                conn.send(payload[half:].encode())
            else:
                conn.request(
                    "POST",
                    "/v1/requests?wait=1",
                    body=payload,
                    headers={"Content-Type": "application/json"},
                )
            resp = conn.getresponse()
            raw = resp.read()
            latency = time.monotonic() - started
            traced = bool(resp.getheader(TRACEPARENT_HEADER))
            if resp.status == 429:
                if resp.getheader("Retry-After"):
                    with report._lock:
                        report.retry_after_seen += 1
                report.record("shed", latency, traced=traced)
            elif resp.status in (200, 202):
                doc = json.loads(raw)
                status = doc.get("status", "queued")
                # A request that the daemon expired at its deadline is
                # not a shed and not an ordinary failure: the client's
                # own deadline was the cause.  Report it distinctly.
                if doc.get("reason") == "deadline-expired":
                    status = "expired"
                report.record(
                    status,
                    latency,
                    cached=bool(doc.get("cached")),
                    traced=traced,
                )
            elif resp.status == 503:
                report.record("draining", latency, traced=traced)
            else:
                report.record(f"http-{resp.status}", latency, traced=traced)
        finally:
            conn.close()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        report.error(f"{body.get('request_id')}: {exc}")


def run_loadgen(
    host: str,
    port: int,
    requests: int = DEFAULT_REQUESTS,
    concurrency: int = DEFAULT_CONCURRENCY,
    tenants: int = DEFAULT_TENANTS,
    distinct: int = 1,
    seed: int = 0,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    slow_loris_s: float = 0.0,
    prefix: str = "load",
    deadline_s: float | None = None,
) -> LoadgenReport:
    """Fire the request population at the daemon, bounded concurrency."""
    population = build_requests(
        requests, tenants=tenants, distinct=distinct, seed=seed,
        prefix=prefix, deadline_s=deadline_s,
    )
    report = LoadgenReport()
    gate = threading.Semaphore(max(concurrency, 1))
    threads = []

    def worker(body: dict) -> None:
        try:
            _issue(host, port, body, report, timeout_s, slow_loris_s)
        finally:
            gate.release()

    for body in population:
        gate.acquire()
        thread = threading.Thread(target=worker, args=(body,), daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout_s)
    return report


def service_benchmark_entries(
    directory: str | os.PathLike,
    requests: int = 64,
    concurrency: int = 8,
    distinct: int = 4,
    seed: int = 0,
) -> list[dict]:
    """Measure the service under a standard storm, as baseline entries.

    Boots a throwaway daemon over *directory*, warms the result cache
    with one request per distinct body, then runs the storm and returns
    one ``profile``-style entry carrying the gated fields: storm p99
    latency and service cache hit rate (the warm pass makes the
    expected hit rate 1.0, so any miss is a real regression, not
    scheduling luck).
    """
    from .admission import AdmissionController
    from .daemon import BenchDaemon

    daemon = BenchDaemon(
        directory,
        workers=4,
        admission=AdmissionController(
            bucket_capacity=max(float(requests), 64.0),
            bucket_rate=max(float(requests), 64.0),
        ),
    )
    daemon.start()
    try:
        host, port = "127.0.0.1", daemon.port
        warm = run_loadgen(
            host, port,
            requests=min(distinct, requests),
            concurrency=concurrency,
            distinct=distinct,
            seed=seed,
            prefix="warm",
        )
        if warm.errors:
            raise CampaignError(
                f"service warmup failed: {warm.errors[0]}"
            )
        started = time.monotonic()
        storm = run_loadgen(
            host, port,
            requests=requests,
            concurrency=concurrency,
            distinct=distinct,
            seed=seed,
            prefix="storm",
        )
        wall_s = time.monotonic() - started
        if storm.errors:
            raise CampaignError(
                f"service storm failed: {storm.errors[0]}"
            )
    finally:
        daemon.stop()
    return [
        {
            "bench": "service-storm",
            "system": "local",
            "requests": requests,
            "completed": storm.completed,
            "wall_s": round(wall_s, 6),
            "storm_p99_s": round(storm.percentile(0.99, "done"), 6),
            "service_cache_hit_rate": round(storm.hit_rate, 4),
        }
    ]


def loadgen_main(args) -> int:
    """Dispatch ``pvc-bench loadgen --port N [--requests R] ...``."""
    report = run_loadgen(
        args.host,
        args.port,
        requests=args.requests,
        concurrency=args.concurrency,
        tenants=args.tenants,
        distinct=args.distinct,
        seed=args.seed,
        deadline_s=args.deadline,
    )
    print(report.render())
    return 0 if not report.errors else 1
