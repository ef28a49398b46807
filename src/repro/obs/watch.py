"""``pvc-bench campaign watch``: a live status board for run dirs.

The watcher is a pure *reader*: it tails the journal and both event
streams (:mod:`.events`) from outside the orchestrator process, so it
can attach to a running campaign, a crashed one, or a finished one and
always render something truthful.  Everything is rebuilt from bytes on
disk on every poll — there is no shared state with the run, and a torn
last line in any stream is simply not yet visible.

Three layers:

* :func:`worker_lanes` folds the live stream into per-worker lanes
  (RUNNING / IDLE, unit in hand, last activity).  ``campaign status``
  reuses this for its per-worker lines.
* :func:`load_snapshot` combines journal + deterministic events + lanes
  into one :class:`RunSnapshot`.
* :func:`render` draws the board.  It takes ``now`` explicitly so the
  crashed/interrupted/degraded golden tests are reproducible without a
  live process; :func:`follow` loops it until ``campaign-done``
  appears (or immediately degrades to a final snapshot when the run is
  already complete).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

from ..campaign.journal import Journal
from ..errors import CampaignError
from .events import EVENTS_FILE, IN_PROCESS, LIVE_FILE, read_events

__all__ = [
    "RunSnapshot",
    "WorkerLane",
    "follow",
    "follow_service",
    "load_service_board",
    "load_snapshot",
    "render",
    "render_service_board",
    "service_watch_main",
    "watch_main",
    "worker_lanes",
]


@dataclass
class WorkerLane:
    """One worker's current story, folded from the live stream."""

    index: int
    worker: str
    state: str = "IDLE"  # RUNNING | IDLE
    unit: str | None = None
    last_ts: float | None = None


def worker_lanes(live_records: list[dict]) -> list[WorkerLane]:
    """Fold the live stream into per-worker lanes, in index order.

    A pool run announces one ``worker-spawn`` per worker, so every
    worker has a lane even if it never got a unit.  Serial runs
    (``run-live`` with ``jobs=1``) get a single synthetic ``serial``
    lane fed by the orchestrator's own dispatch records; units a pool
    run executes itself after a worker death get an ``in-process`` lane.
    """
    lanes: dict[int, WorkerLane] = {}

    def lane(index: int) -> WorkerLane:
        if index not in lanes:
            worker = (
                "in-process" if index == IN_PROCESS
                else f"campaign-worker-{index}"
            )
            lanes[index] = WorkerLane(index=index, worker=worker)
        return lanes[index]

    for rec in live_records:
        etype = rec["type"]
        if etype == "worker-spawn":
            lanes[rec["index"]] = WorkerLane(
                index=rec["index"], worker=rec["worker"]
            )
        elif etype == "run-live" and rec["jobs"] == 1:
            lanes[0] = WorkerLane(index=0, worker="serial")
        elif etype == "unit-dispatched":
            ln = lane(rec["index"])
            ln.unit = rec["unit"]
            ln.state = "RUNNING"
            ln.last_ts = rec["ts"]
        elif etype == "unit-completed":
            for ln in lanes.values():
                if ln.unit == rec["unit"] and ln.state == "RUNNING":
                    ln.unit = None
                    ln.state = "IDLE"
                    ln.last_ts = rec["ts"]
                    break
    return [lanes[i] for i in sorted(lanes)]


@dataclass
class RunSnapshot:
    """Everything the board knows about one run directory, one poll."""

    directory: str
    spec: str
    scenario: str | None
    seed: int
    unit_states: dict[str, str]
    lanes: list[WorkerLane] = field(default_factory=list)
    jobs: int | None = None
    pid: int | None = None
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    cache_bypasses: float = 0.0
    faults: list[str] = field(default_factory=list)
    simulated_s: float = 0.0
    degraded: bool = False
    interrupted: bool = False
    complete: bool = False
    exit_code: int | None = None
    started_ts: float | None = None
    completed_ts: list[float] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.unit_states)

    @property
    def done(self) -> int:
        return sum(
            1
            for s in self.unit_states.values()
            if s not in ("pending", "started")
        )

    @property
    def cache_hit_rate(self) -> float | None:
        attempts = self.cache_hits + self.cache_misses
        return self.cache_hits / attempts if attempts else None

    def in_flight(self) -> list[WorkerLane]:
        return [ln for ln in self.lanes if ln.state == "RUNNING"]

    def eta_s(self, now: float) -> float | None:
        """Wall-clock ETA from the live completion rate, if measurable."""
        if self.complete or self.started_ts is None or not self.completed_ts:
            return None
        elapsed = max(now - self.started_ts, 1e-9)
        rate = len(self.completed_ts) / elapsed
        remaining = self.total - self.done
        return remaining / rate if rate > 0 else None


def load_snapshot(rundir: str | os.PathLike) -> RunSnapshot:
    """Rebuild the board state from a run directory's bytes on disk."""
    rundir = os.fspath(rundir)
    journal = Journal.load(os.path.join(rundir, "journal.jsonl"))
    start = journal.of_type("campaign-start")
    if not start:
        raise CampaignError(f"{rundir} holds no campaign journal")
    config = start[0]
    unit_states: dict[str, str] = {
        uid: "pending" for uid in config.get("units", [])
    }
    for rec in journal.records:
        if rec["type"] in ("unit-done", "unit-failed", "unit-quarantined"):
            unit_states[rec["unit"]] = rec["status"]
        elif (
            rec["type"] == "unit-start"
            and unit_states.get(rec["unit"]) == "pending"
        ):
            unit_states[rec["unit"]] = "started"
    snap = RunSnapshot(
        directory=rundir,
        spec=config["spec"],
        scenario=config["scenario"],
        seed=config["seed"],
        unit_states=unit_states,
    )
    snap.interrupted = bool(
        journal.of_type("interrupted") or journal.of_type("deadline")
    )
    for rec in read_events(os.path.join(rundir, EVENTS_FILE)):
        if rec["type"] == "cache-stats":
            snap.cache_hits += rec["hits"]
            snap.cache_misses += rec["misses"]
            snap.cache_bypasses += rec["bypasses"]
        elif rec["type"] == "fault-injected":
            snap.faults.append(f"{rec['unit']}: {rec['incident']}")
        snap.simulated_s = rec["sim_us"] / 1e6
    done = journal.of_type("campaign-done")
    if done:
        snap.complete = True
        snap.exit_code = done[-1]["exit"]
    live = read_events(os.path.join(rundir, LIVE_FILE))
    snap.lanes = worker_lanes(live)
    for rec in live:
        if rec["type"] == "run-live":
            snap.jobs = rec["jobs"]
            snap.pid = rec["pid"]
            if snap.started_ts is None:
                snap.started_ts = rec["ts"]
        elif rec["type"] == "unit-completed":
            snap.completed_ts.append(rec["ts"])
        elif rec["type"] == "pool-degraded":
            snap.degraded = True
    return snap


def _age(ts: float | None, now: float) -> str:
    return f"{max(now - ts, 0.0):.1f}s ago" if ts is not None else "never"


def _lane_line(ln: WorkerLane, now: float) -> str:
    parts = [f"[{ln.index}] {ln.worker:22s} {ln.state:9s}"]
    if ln.state == "RUNNING" and ln.unit:
        parts.append(ln.unit)
    parts.append(f"active {_age(ln.last_ts, now)}")
    return "  ".join(parts)


def render(snap: RunSnapshot, now: float | None = None) -> str:
    """Draw the status board (``now`` injectable for golden tests)."""
    if now is None:
        now = time.time()
    if snap.complete:
        phase = f"COMPLETE (exit {snap.exit_code})"
    elif snap.interrupted:
        phase = "INTERRUPTED (resumable)"
    else:
        phase = "RUNNING"
    lines = [
        f"campaign {snap.spec!r} in {snap.directory} — {phase}",
        f"  progress: {snap.done}/{snap.total} unit(s), "
        f"simulated {snap.simulated_s:.2f}s"
        + (f", scenario {snap.scenario!r}" if snap.scenario else "")
        + f", seed {snap.seed}",
    ]
    if snap.jobs is not None:
        run = f"  run: {snap.jobs} job(s)"
        if snap.pid is not None:
            run += f", pid {snap.pid}"
        if snap.degraded:
            run += " — POOL DEGRADED (a worker died; rest ran in-process)"
        lines.append(run)
    if snap.lanes:
        lines.append("  workers:")
        lines.extend(f"    {_lane_line(ln, now)}" for ln in snap.lanes)
    counts: dict[str, int] = {}
    for state in snap.unit_states.values():
        counts[state] = counts.get(state, 0) + 1
    summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
    lines.append(f"  units: {summary}")
    for uid, state in snap.unit_states.items():
        if state == "started" or (
            state not in ("pending", "OK") and not snap.complete
        ):
            lines.append(f"    {uid:24s} {state}")
    rate = snap.cache_hit_rate
    if rate is not None:
        lines.append(
            f"  sim cache: {snap.cache_hits:.0f} hit(s) / "
            f"{snap.cache_misses:.0f} miss(es) ({rate:.1%} hit rate)"
        )
    if snap.faults:
        lines.append(f"  faults injected: {len(snap.faults)}")
        lines.extend(f"    {note}" for note in snap.faults[-5:])
    if not snap.complete:
        eta = snap.eta_s(now)
        lines.append(
            f"  eta: ~{eta:.1f}s" if eta is not None else "  eta: --"
        )
        lines.append(
            "  (incomplete: finish with 'campaign resume')"
            if snap.interrupted
            else "  (watching; Ctrl-C detaches without touching the run)"
        )
    return "\n".join(lines)


def follow(
    rundir: str | os.PathLike,
    interval_s: float = 0.5,
    once: bool = False,
    stream=None,
    max_polls: int | None = None,
) -> int:
    """Poll-and-redraw until the campaign completes (or ``once``).

    Attaching to a finished run degrades to a single final snapshot;
    attaching before the journal exists waits for it.  ``max_polls``
    bounds the loop for tests.
    """
    stream = stream if stream is not None else sys.stdout
    polls = 0
    while True:
        polls += 1
        try:
            snap = load_snapshot(rundir)
        except CampaignError:
            snap = None
        if snap is not None:
            board = render(snap, now=time.time())
            if stream.isatty():  # pragma: no cover - interactive only
                stream.write("\x1b[2J\x1b[H")
            stream.write(board + "\n")
            stream.flush()
            if snap.complete:
                return snap.exit_code or 0
        else:
            stream.write(f"waiting for a campaign journal in {rundir}...\n")
            stream.flush()
        if once or (max_polls is not None and polls >= max_polls):
            return 0
        time.sleep(interval_s)


def watch_main(args) -> int:
    """Dispatch ``pvc-bench campaign watch <rundir>``."""
    try:
        return follow(args.rundir, interval_s=args.interval, once=args.once)
    except KeyboardInterrupt:  # pragma: no cover - interactive detach
        print("detached; the campaign keeps running", file=sys.stderr)
        return 0


# ----------------------------------------------------------------------
# service board (``pvc-bench service watch``)
# ----------------------------------------------------------------------


def load_service_board(state_dir: str | os.PathLike) -> dict:
    """Rebuild the service board from a state directory's bytes on disk.

    The offline twin of ``BenchDaemon.board()``: the same document
    shape folded from ``requests.ndjson`` + ``live.ndjson``, so the
    board renders identically for a live daemon (scraped over HTTP) and
    a dead state directory (post-mortem).  Fields only a live process
    knows (token-bucket levels) come back ``None``; the SLO replay is
    driven by record timestamps, not the wall clock, so it reports the
    state as of the last request.
    """
    from .requests import PHASES, SLOTracker, read_requests

    state_dir = os.fspath(state_dir)
    spans = read_requests(os.path.join(state_dir, "requests.ndjson"))
    live = read_events(os.path.join(state_dir, LIVE_FILE))
    if not spans and not live:
        raise CampaignError(
            f"{state_dir} holds no service streams to fold"
        )
    registry = _service_registry(spans)
    latency = registry.histogram("service.request.latency_s")
    phase_hist = registry.histogram("service.request.phase_s")
    count = registry.counter("service.request.count")
    errors = registry.counter("service.request.errors")
    sheds = registry.counter("service.request.sheds")

    # Live-stream fold: request lifecycle counts and daemon identity.
    pid = recovered = None
    draining = False
    tenant_of: dict[str, str] = {}
    queued: dict[str, set] = {}
    running: dict[str, set] = {}
    cache_hits = cache_misses = 0
    for rec in live:
        etype = rec["type"]
        if etype == "service-start":
            pid, recovered, draining = rec["pid"], rec["recovered"], False
        elif etype == "service-drain":
            draining = True
        elif etype in ("request-accepted", "request-recovered"):
            tenant_of[rec["request"]] = rec["tenant"]
            queued.setdefault(rec["tenant"], set()).add(rec["request"])
        elif etype == "request-executing":
            queued.get(rec["tenant"], set()).discard(rec["request"])
            running.setdefault(rec["tenant"], set()).add(rec["request"])
        elif etype == "request-cache":
            cache_hits += rec["hit"]
            cache_misses += not rec["hit"]
        elif etype == "request-completed":
            tenant = tenant_of.get(rec["request"])
            if tenant is not None:
                queued.get(tenant, set()).discard(rec["request"])
                running.get(tenant, set()).discard(rec["request"])

    # SLO replay on record timestamps (the stream's clock, not ours).
    now_ts = spans[-1]["ts"] if spans else None
    slo = SLOTracker()
    tenant_slo: dict[str, SLOTracker] = {}
    for rec in spans:
        if rec["type"] != "request-span":
            continue
        ok = rec["status"] == "done"
        slo.record(ok, rec["latency_s"], now=rec["ts"])
        tenant_slo.setdefault(rec["tenant"], SLOTracker()).record(
            ok, rec["latency_s"], now=rec["ts"]
        )

    tenants = (
        {r["tenant"] for r in spans} | set(queued) | set(running)
    )
    per_tenant: dict[str, dict] = {}
    for tenant in sorted(tenants):
        tracker = tenant_slo.get(tenant)
        per_tenant[tenant] = {
            "in_flight": len(running.get(tenant, ())),
            "queued": len(queued.get(tenant, ())),
            "tokens": None,
            "capacity": None,
            "shed": int(sheds.total(tenant=tenant)),
            "requests": int(count.total(tenant=tenant)),
            "errors": int(errors.total(tenant=tenant)),
            "p50_s": round(latency.folded_percentile(0.5, tenant=tenant), 6),
            "p99_s": round(latency.folded_percentile(0.99, tenant=tenant), 6),
            "slo": tracker.snapshot(now=now_ts) if tracker else None,
        }
    phases = {
        phase: {
            "count": phase_hist.folded_state(phase=phase).total,
            "p50_s": round(phase_hist.folded_percentile(0.5, phase=phase), 6),
            "p99_s": round(phase_hist.folded_percentile(0.99, phase=phase), 6),
        }
        for phase in PHASES
    }
    hits_total = cache_hits + cache_misses
    return {
        "draining": draining,
        "pid": pid,
        "recovered": recovered,
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": cache_hits / hits_total if hits_total else 0.0,
        },
        "admission": {
            "depth": sum(len(s) for s in queued.values()),
            "admitted": int(count.total()),
            "shed_tenant": None,
            "shed_backlog": None,
        },
        "tenants": per_tenant,
        "phases": phases,
        "slo": slo.snapshot(now=now_ts),
    }


def _service_registry(spans: list[dict]):
    from ..telemetry.metrics import MetricsRegistry
    from .requests import record_span_metrics, register_red_metrics

    registry = MetricsRegistry()
    register_red_metrics(registry)
    for rec in spans:
        record_span_metrics(registry, rec)
    return registry


def _ms(seconds: float | None) -> str:
    return f"{seconds * 1e3:.1f}ms" if seconds is not None else "--"


def _slo_mark(snapshot: dict | None) -> str:
    if not snapshot:
        return "--"
    burns = " ".join(
        f"burn[{w}]={doc['burn_rate']:.2f}"
        for w, doc in snapshot["windows"].items()
    )
    return (
        f"{snapshot['status']} "
        f"(compliance {snapshot['compliance']:.1%})  {burns}"
    )


def render_service_board(board: dict, source: str = "") -> str:
    """Draw the per-tenant RED/SLO board from a board document."""
    phase = "DRAINING" if board.get("draining") else "SERVING"
    head = f"service board — {source} — {phase}" if source else (
        f"service board — {phase}"
    )
    lines = [head]
    identity = []
    if board.get("pid") is not None:
        identity.append(f"pid {board['pid']}")
    if board.get("recovered") is not None:
        identity.append(f"recovered {board['recovered']}")
    if identity:
        lines.append("  " + ", ".join(identity))
    lines.append(f"  slo: {_slo_mark(board.get('slo'))}")
    cache = board.get("cache") or {}
    if cache:
        lines.append(
            f"  cache: hit rate {cache.get('hit_rate', 0.0):.1%} "
            f"({cache.get('hits', 0):.0f} hit(s) / "
            f"{cache.get('misses', 0):.0f} miss(es))"
        )
    admission = board.get("admission") or {}
    if admission:
        shed_bits = ""
        if admission.get("shed_tenant") is not None:
            shed_bits = (
                f", shed {admission['shed_tenant']} tenant"
                f" / {admission['shed_backlog']} backlog"
            )
        lines.append(
            f"  admission: depth {admission.get('depth', 0)}, "
            f"admitted {admission.get('admitted', 0)}{shed_bits}"
        )
    tenants = board.get("tenants") or {}
    if tenants:
        lines.append("  tenants:")
        for tenant, row in tenants.items():
            tokens = (
                f"{row['tokens']:.1f}/{row['capacity']:.0f}"
                if row.get("tokens") is not None
                else "--"
            )
            slo_doc = row.get("slo") or {}
            slo_status = slo_doc.get("status", "--")
            lines.append(
                f"    {tenant:<12} req {row['requests']:5d}"
                f"  err {row['errors']:3d}"
                f"  shed {row['shed']:3d}"
                f"  inflight {row['in_flight']:2d}"
                f"  queued {row['queued']:3d}"
                f"  tokens {tokens:>9}"
                f"  p50 {_ms(row['p50_s']):>8}"
                f"  p99 {_ms(row['p99_s']):>8}"
                f"  slo {slo_status}"
            )
    phases = board.get("phases") or {}
    active = {k: v for k, v in phases.items() if v.get("count")}
    if active:
        lines.append("  phases:")
        for name, row in active.items():
            lines.append(
                f"    {name:<10} p50 {_ms(row['p50_s']):>8}"
                f"  p99 {_ms(row['p99_s']):>8}  (n={row['count']})"
            )
    return "\n".join(lines)


def _scrape_board(host: str, port: int, timeout_s: float = 10.0) -> dict:
    import http.client
    import json as _json

    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", "/board")
        resp = conn.getresponse()
        raw = resp.read()
        if resp.status != 200:
            raise CampaignError(
                f"GET /board returned {resp.status} from {host}:{port}"
            )
        return _json.loads(raw)
    finally:
        conn.close()


def follow_service(
    source,
    label: str,
    interval_s: float = 0.5,
    once: bool = False,
    stream=None,
    max_polls: int | None = None,
) -> int:
    """Poll-and-redraw the service board; ``source()`` yields documents."""
    stream = stream if stream is not None else sys.stdout
    polls = 0
    while True:
        polls += 1
        note = f"waiting for a service board at {label}...\n"
        try:
            board = source()
        except (CampaignError, OSError) as exc:
            board = None
            note = f"waiting for a service board at {label}: {exc}\n"
        if board is not None:
            text = render_service_board(board, source=label)
            if stream.isatty():  # pragma: no cover - interactive only
                stream.write("\x1b[2J\x1b[H")
            stream.write(text + "\n")
            stream.flush()
        else:
            stream.write(note)
            stream.flush()
        if once or (max_polls is not None and polls >= max_polls):
            return 0
        time.sleep(interval_s)


def service_watch_main(args) -> int:
    """Dispatch ``pvc-bench service watch <state> | --port N``.

    With ``--port`` the board is scraped from the live daemon's
    ``GET /board``; with a state directory it is folded offline from
    the directory's streams (works on a dead or post-mortem directory).
    """
    host, port, directory = args.host, args.port, args.state
    if port is not None:
        label = f"http://{host}:{port}"
        source = lambda: _scrape_board(host, port)  # noqa: E731
    else:
        label = os.fspath(directory)
        source = lambda: load_service_board(directory)  # noqa: E731
    try:
        return follow_service(
            source, label, interval_s=args.interval, once=args.once
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive detach
        print("detached; the service keeps running", file=sys.stderr)
        return 0
