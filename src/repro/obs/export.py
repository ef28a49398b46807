"""Exporters over a run directory's event streams.

Two consumers, one source of truth (:mod:`.events`):

* :func:`export_chrome` turns a run directory into the standard
  ``chrome://tracing`` / Perfetto trace-event JSON by replaying the
  streams through :class:`repro.telemetry.trace.Tracer`.  A run with a
  live stream gets one lane per worker with wall-clock start → end
  spans per unit, plus a ``pool-degraded`` instant when a worker death
  sent the run to the in-process step; a deterministic-only directory (old
  runs, stripped archives) degrades to a single commit lane on the
  simulated clock with fault-injection instants.
* :func:`run_registry` folds the deterministic stream into a
  :class:`~repro.telemetry.metrics.MetricsRegistry` — unit/status
  counters, sim-cache counters, fault counts, a simulated-duration
  histogram — which the ``obs serve`` HTTP exporter renders with
  :meth:`~repro.telemetry.metrics.MetricsRegistry.to_openmetrics`.

A third consumer arrived with the benchmark service:
:func:`export_service_chrome` merges a **service state directory**
into one trace — per-tenant request lanes (whole-request spans with
nested phase spans from ``requests.ndjson``) alongside every spawned
campaign's worker lanes, all on one wall clock.  Spans carry their
``trace_id``, so Perfetto's flow/search follows a single id from HTTP
accept through queue wait into the fork worker that did the work.
:func:`export_main` auto-detects which shape a directory is.
"""

from __future__ import annotations

import json
import os
import sys

from ..errors import CampaignError
from ..ioutils import atomic_write_text
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.trace import Tracer
from .events import EVENTS_FILE, IN_PROCESS, LIVE_FILE, read_events
from .requests import PHASES, REQUESTS_FILE, read_requests

__all__ = [
    "export_chrome",
    "export_json",
    "export_main",
    "export_service_chrome",
    "export_sweep_chrome",
    "run_registry",
]


def _live_trace(
    tracer: Tracer,
    live: list[dict],
    prefix: str = "",
    t0: float | None = None,
    group: int = 1,
) -> None:
    """Worker lanes on the wall clock, relative to the run-live mark.

    *prefix*/*t0*/*group* exist for the merged service export: lane
    names are prefixed with the spawning campaign's digest, timestamps
    are made relative to the service's epoch instead of the campaign's
    own first event, and the sort group places each campaign's lanes
    below the request lanes.  The defaults reproduce the single-run
    export byte for byte.
    """
    t0 = live[0]["ts"] if t0 is None else t0

    def us(ts: float) -> float:
        return (ts - t0) * 1e6

    lane_of: dict[int, str] = {}
    open_spans: dict[str, tuple[str, float, dict]] = {}

    def lane(index: int) -> str:
        if index not in lane_of:
            name = prefix + (
                "in-process" if index == IN_PROCESS else f"worker-{index}"
            )
            lane_of[index] = tracer.lane(name, sort_key=(group, index, 0))
        return lane_of[index]

    for rec in live:
        etype = rec["type"]
        if etype == "worker-spawn":
            name = tracer.lane(
                f"{prefix}worker-{rec['index']}", (group, rec["index"], 0)
            )
            lane_of[rec["index"]] = name
            tracer.instant(
                "worker-spawn",
                name,
                ts_us=us(rec["ts"]),
                category="pool",
                worker=rec["worker"],
            )
        elif etype == "unit-dispatched":
            # A trace id stamped by the EventBus live_context rides
            # along onto the span, linking the worker's work back to
            # the service request that caused it.
            extra = (
                {"trace_id": rec["trace_id"]} if "trace_id" in rec else {}
            )
            open_spans[rec["unit"]] = (lane(rec["index"]), rec["ts"], extra)
        elif etype == "unit-completed" and rec["unit"] in open_spans:
            span_lane, start_ts, extra = open_spans.pop(rec["unit"])
            tracer.complete(
                rec["unit"],
                span_lane,
                us(rec["ts"]) - us(start_ts),
                start_us=us(start_ts),
                category="unit",
                status=rec["status"],
                **extra,
            )
        elif etype == "pool-degraded":
            args = {
                k: v for k, v in rec.items() if k not in ("v", "type", "ts")
            }
            tracer.instant(
                etype,
                tracer.lane(f"{prefix}pool", (group - 1, 0, 0)),
                ts_us=us(rec["ts"]),
                category="pool",
                **args,
            )


def _deterministic_trace(tracer: Tracer, det: list[dict]) -> None:
    """One commit lane on the simulated clock (no live stream)."""
    lane = tracer.lane("commit", (0, 0, 0))
    prev_us = 0.0
    for rec in det:
        if rec["type"] == "unit-committed":
            start = rec["sim_us"] - rec["simulated_s"] * 1e6
            tracer.complete(
                rec["unit"],
                lane,
                rec["simulated_s"] * 1e6,
                start_us=max(start, prev_us),
                category="unit",
                status=rec["status"],
            )
            prev_us = rec["sim_us"]
        elif rec["type"] == "fault-injected":
            tracer.instant(
                rec["incident"],
                lane,
                ts_us=rec["sim_us"],
                category="fault",
                unit=rec["unit"],
            )


def export_sweep_chrome(rundir: str | os.PathLike) -> dict:
    """A sweep run directory's timeline as a trace-event document.

    One ``sweep`` lane with a span per evaluation chunk (system, point
    count and grid offset in the args), laid end to end on the
    measured chunk walls, a ``best-point`` instant carrying the
    winning configuration, and a closing ``sweep-summary`` instant
    with the throughput figures the BENCH_3 gate pins.
    """
    from ..sweep.runner import SWEEP_FILE

    rundir = os.fspath(rundir)
    try:
        with open(os.path.join(rundir, SWEEP_FILE)) as handle:
            summary = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"{rundir} holds no readable sweep summary: {exc}")
    tracer = Tracer()
    lane = tracer.lane("sweep", (0, 0, 0))
    offset_us = 0.0
    for chunk in summary.get("chunks", []):
        dur_us = float(chunk["wall_s"]) * 1e6
        tracer.complete(
            f"chunk-{chunk['chunk']}",
            lane,
            dur_us,
            start_us=offset_us,
            category="sweep",
            system=chunk["system"],
            points=chunk["points"],
            offset=chunk["offset"],
        )
        offset_us += dur_us
    best = summary.get("best")
    if best:
        tracer.instant(
            "best-point",
            lane,
            ts_us=offset_us,
            category="sweep",
            system=best["system"],
            n_stacks=best["n_stacks"],
            precision=best["precision"],
            gflops=best["gflops"],
            bound=best["bound"],
            **{f"param_{k}": v for k, v in best.get("params", {}).items()},
        )
    scalar = summary.get("scalar", {})
    tracer.instant(
        "sweep-summary",
        lane,
        ts_us=offset_us,
        category="sweep",
        spec=summary.get("spec", {}).get("name"),
        points=summary.get("points"),
        points_per_s=summary.get("points_per_s"),
        batch_speedup=scalar.get("speedup"),
        verified_sample=scalar.get("sample"),
    )
    return tracer.to_chrome()


def export_chrome(rundir: str | os.PathLike) -> dict:
    """The run directory's timeline as a trace-event document.

    A directory carrying a ``requests.ndjson`` stream is a service
    state directory and gets the merged request + campaign-worker
    export; one carrying a ``sweep.json`` summary is a sweep run and
    gets the chunk-timeline export; a campaign run directory gets
    worker lanes (or the deterministic fallback).
    """
    from ..sweep.runner import SWEEP_FILE

    rundir = os.fspath(rundir)
    if os.path.exists(os.path.join(rundir, REQUESTS_FILE)):
        return export_service_chrome(rundir)
    if os.path.exists(os.path.join(rundir, SWEEP_FILE)):
        return export_sweep_chrome(rundir)
    det = read_events(os.path.join(rundir, EVENTS_FILE))
    live = read_events(os.path.join(rundir, LIVE_FILE))
    if not det and not live:
        raise CampaignError(f"{rundir} holds no event streams to export")
    tracer = Tracer()
    if live:
        _live_trace(tracer, live)
    else:
        _deterministic_trace(tracer, det)
    return tracer.to_chrome()


def _service_epoch(spans: list[dict], live: list[dict]) -> float:
    """The earliest wall-clock instant either stream knows about."""
    candidates = [rec["ts"] - rec.get("latency_s", 0.0) for rec in spans]
    candidates.extend(rec["ts"] for rec in live)
    return min(candidates)


def export_service_chrome(state_dir: str | os.PathLike) -> dict:
    """One merged trace for a service state directory.

    Lanes, top to bottom: a ``service`` lane (start/drain/quarantine
    instants), one lane per tenant holding whole-request spans with the
    phase breakdown nested inside each, then every spawned campaign's
    worker lanes (lane names prefixed with the campaign digest).  All
    spans carry ``trace_id`` args — the acceptance criterion that one
    trace shows HTTP accept → queue → fork worker → memo hit is
    literally "search the trace for the id from the response header".
    """
    state_dir = os.fspath(state_dir)
    spans = read_requests(os.path.join(state_dir, REQUESTS_FILE))
    live = read_events(os.path.join(state_dir, LIVE_FILE))
    if not spans and not live:
        raise CampaignError(
            f"{state_dir} holds no request or live streams to export"
        )
    tracer = Tracer()
    t0 = _service_epoch(spans, live)

    def us(ts: float) -> float:
        return (ts - t0) * 1e6

    service_lane = tracer.lane("service", (0, 0, 0))
    tenant_lanes: dict[str, str] = {}

    def tenant_lane(tenant: str) -> str:
        if tenant not in tenant_lanes:
            tenant_lanes[tenant] = tracer.lane(
                tenant, sort_key=(1, len(tenant_lanes), 0)
            )
        return tenant_lanes[tenant]

    for rec in spans:
        lane = tenant_lane(rec["tenant"])
        if rec["type"] == "request-shed":
            tracer.instant(
                "request-shed",
                lane,
                ts_us=us(rec["ts"]),
                category="request",
                request=rec["request"],
                reason=rec["reason"],
                trace_id=rec["trace_id"],
            )
            continue
        latency_us = rec["latency_s"] * 1e6
        start_us = us(rec["ts"]) - latency_us
        tracer.complete(
            rec["request"],
            lane,
            latency_us,
            start_us=start_us,
            category="request",
            trace_id=rec["trace_id"],
            endpoint=rec["endpoint"],
            status=rec["status"],
            cached=rec["cached"],
        )
        # Phase breakdown nested inside the request span, laid out
        # sequentially in lifecycle order (the phases are disjoint by
        # construction; their sum may undershoot the whole-request
        # latency — the gap is untracked handler time).
        offset = start_us
        for phase in PHASES:
            if phase not in rec.get("phases", {}):
                continue
            dur = rec["phases"][phase] * 1e6
            tracer.complete(
                f"{phase}",
                lane,
                dur,
                start_us=offset,
                category="phase",
                request=rec["request"],
                trace_id=rec["trace_id"],
            )
            offset += dur

    for rec in live:
        if rec["type"] in ("service-start", "service-drain",
                           "cache-quarantined"):
            args = {
                k: v for k, v in rec.items() if k not in ("v", "type", "ts")
            }
            tracer.instant(
                rec["type"],
                service_lane,
                ts_us=us(rec["ts"]),
                category="service",
                **args,
            )

    # Merge every spawned campaign's worker telemetry, on the same
    # epoch, each in its own lane group below the tenants.
    campaigns = os.path.join(state_dir, "campaigns")
    if os.path.isdir(campaigns):
        for index, digest in enumerate(sorted(os.listdir(campaigns))):
            campaign_live = read_events(
                os.path.join(campaigns, digest, LIVE_FILE)
            )
            if campaign_live:
                _live_trace(
                    tracer,
                    campaign_live,
                    prefix=f"{digest}/",
                    t0=t0,
                    group=3 + 2 * index,
                )
    return tracer.to_chrome()


def export_json(rundir: str | os.PathLike) -> str:
    """The Chrome-trace document serialized deterministically (sorted
    keys, stable indentation) so repeated exports compare with cmp."""
    return json.dumps(export_chrome(rundir), indent=2, sort_keys=True)


def run_registry(rundir: str | os.PathLike) -> MetricsRegistry:
    """Fold the deterministic stream into an exportable registry."""
    rundir = os.fspath(rundir)
    registry = MetricsRegistry()
    registry.counter("campaign.units", "campaign units committed, by status")
    registry.counter("simcache.hit", "sim memo cache hits")
    registry.counter("simcache.miss", "sim memo cache misses")
    registry.counter("simcache.bypass", "sim memo cache bypasses")
    registry.counter("fault.injected", "fault injections observed")
    registry.histogram(
        "unit.simulated_us", "per-unit simulated duration (microseconds)"
    )
    registry.gauge("campaign.simulated_seconds", "cumulative simulated clock")
    registry.gauge("campaign.complete", "1 once campaign-done was published")
    for rec in read_events(os.path.join(rundir, EVENTS_FILE)):
        etype = rec["type"]
        if etype == "unit-committed":
            registry.inc("campaign.units", 1, status=rec["status"])
            registry.observe(
                "unit.simulated_us", rec["simulated_s"] * 1e6
            )
        elif etype == "cache-stats":
            registry.inc("simcache.hit", rec["hits"])
            registry.inc("simcache.miss", rec["misses"])
            registry.inc("simcache.bypass", rec["bypasses"])
        elif etype == "fault-injected":
            registry.inc("fault.injected", 1, unit=rec["unit"])
        elif etype == "campaign-done":
            registry.set_gauge("campaign.complete", 1.0)
        registry.set_gauge("campaign.simulated_seconds", rec["sim_us"] / 1e6)
    return registry


def export_main(args) -> int:
    """Dispatch ``pvc-bench obs export <rundir> [--out trace.json]``."""
    text = export_json(args.rundir)
    if args.out:
        atomic_write_text(args.out, text + "\n")
        n = len(export_chrome(args.rundir)["traceEvents"])
        print(f"wrote {n} trace event(s) to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0
