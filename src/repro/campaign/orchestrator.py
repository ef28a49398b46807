"""The campaign orchestrator: run, resume, status, verify.

Execution protocol (``campaign run``):

1. journal ``campaign-start`` (spec digest, scenario, seed, schedule);
2. for each unit in topological order: journal ``unit-start``, pull its
   outcome from the :class:`~.scheduler.DagScheduler`, persist the
   payload to the result store, journal ``unit-done`` with the
   payload's SHA-256 digest (or ``unit-failed``);
3. supervisor checks between units: a SIGINT/SIGTERM flag or an
   exhausted campaign deadline journals an ``interrupted``/``deadline``
   record and exits with the resumable code 3; a per-unit watchdog on
   the *simulated* clock demotes over-budget units to FAILED;
4. when every unit is journalled, render the final artifacts and the
   campaign manifest from the store and journal ``campaign-done``.

``campaign resume`` replays the journal (tolerating a corrupt tail),
re-verifies every completed unit's store payload against its journalled
digest, skips verified units, and re-executes only the incomplete or
corrupted ones — then finalises identically, so the artifacts are
byte-identical to an uninterrupted run.

The ``crash-midrun`` / ``journal-truncate`` fault scenarios exercise
exactly this machinery by killing the run after a seeded unit (and
optionally tearing the journal's last record).  They apply to
``campaign run`` only; a resumed campaign does not re-crash.

One commit loop serves every ``--jobs``: at ``--jobs 1`` the scheduler
executes each unit in-process when it is pulled; with ``--jobs N`` the
units run on a process pool, and a worker death degrades the run to
that same in-process step (:mod:`.scheduler`) instead of failing it,
so the committed bytes do not change.  The ``worker-kill`` and
``io-enospc`` scenarios inject a worker SIGKILL and transient ``ENOSPC``
writes; like the crash scenarios they apply to the original ``campaign
run`` only.  Journals written before the pool degraded this way may
hold ``unit-quarantined`` records; status, resume and verify read them
as ``unit-failed``.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import threading

from ..core.result import CellStatus
from ..errors import CampaignCorruptError, CampaignError
from ..exitcodes import ExitCode, status_exit_code
from ..faults.context import ExecutionContext
from ..faults.process import (
    WORKER_SCENARIO_NAMES,
    WorkerFaultPlan,
    build_worker_plan,
)
from ..faults.scenarios import (
    CAMPAIGN_SCENARIO_NAMES,
    CampaignFaultPlan,
    SCENARIO_NAMES,
    build_campaign_plan,
)
from ..ioutils import atomic_write_text, set_io_fault_gate
from ..obs.events import EventBus
from ..obs.requests import TRACEPARENT_ENV, parse_traceparent
from ..telemetry.manifest import build_manifest, render_manifest
from ..telemetry.metrics import MetricsRegistry
from .journal import Journal
from .scheduler import DagScheduler, resolve_jobs
from .spec import CampaignSpec, get_spec
from .store import ResultStore

__all__ = ["Orchestrator", "campaign_main"]


def _log(message: str) -> None:
    print(f"campaign: {message}", file=sys.stderr)


def aggregate_metrics(payloads: list[dict]) -> MetricsRegistry:
    """Merge per-unit counter contributions into one registry.

    Every merged sample is attributed to its unit id (a ``unit`` label is
    stamped on if the runner did not already add one) and a unit's prior
    samples are dropped before its payload is merged.  Attribution is
    therefore idempotent: a unit that was executed, crashed, and
    re-executed after resume counts exactly once, no matter how many
    journal generations mention it (the retry/quarantine double-counting
    bugfix).
    """
    registry = MetricsRegistry()
    for payload in payloads:
        registry.drop_label("unit", payload["unit"])
        for name, entry in sorted(payload.get("metrics", {}).items()):
            if entry.get("kind") != "counter":
                continue
            for sample in entry["samples"]:
                labels = {"unit": payload["unit"], **sample["labels"]}
                registry.inc(name, sample["value"], **labels)
    return registry


def _cache_counts(payload: dict) -> tuple[float, float, float]:
    """The unit's sim memo-cache counters (hits, misses, bypasses)."""

    def total(name: str) -> float:
        entry = payload.get("metrics", {}).get(name, {})
        return float(sum(s["value"] for s in entry.get("samples", [])))

    return total("simcache.hit"), total("simcache.miss"), total("simcache.bypass")


class Orchestrator:
    """Drives one campaign directory through run/resume/status/verify."""

    def __init__(
        self,
        directory: str | os.PathLike,
        spec: CampaignSpec | None = None,
        scenario: str | None = None,
        seed: int = 0,
        unit_timeout_s: float | None = None,
        deadline_s: float | None = None,
        campaign_plan: CampaignFaultPlan | None = None,
        profile: bool = False,
        jobs: int | None = None,
        worker_plan: WorkerFaultPlan | None = None,
        trace: str | None = None,
    ) -> None:
        self.directory = os.fspath(directory)
        self.spec = spec
        self.scenario = scenario
        self.seed = seed
        self.unit_timeout_s = unit_timeout_s
        self.deadline_s = deadline_s
        self.campaign_plan = campaign_plan
        self.profile = profile
        self.jobs = resolve_jobs(jobs)
        self.worker_plan = worker_plan
        # Trace context: an explicit traceparent (the daemon's) wins;
        # otherwise inherit the ambient env var (a CLI campaign run
        # inside a traced request).  The live stream stamps every
        # record with the trace id; the deterministic stream NEVER
        # carries it (byte-identity across transports must hold).
        ctx = parse_traceparent(
            trace if trace is not None else os.environ.get(TRACEPARENT_ENV)
        )
        self.trace_context = ctx
        self.traceparent = ctx.traceparent if ctx else None
        self.store = ResultStore(os.path.join(self.directory, "store"))
        self.events = EventBus(
            self.directory,
            live_context={"trace_id": ctx.trace_id} if ctx else None,
        )
        self._interrupted = False
        self._payloads: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, "journal.jsonl")

    @property
    def tables_dir(self) -> str:
        return os.path.join(self.directory, "tables")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    # ------------------------------------------------------------------
    # signal supervision
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _supervised(self):
        """Install SIGINT/SIGTERM handlers that make the run resumable."""
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def handler(signum, frame):  # pragma: no cover - signal timing
            self._interrupted = True
            raise KeyboardInterrupt

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        try:
            yield
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    @contextlib.contextmanager
    def _io_faults(self):
        """Install the worker plan's transient-ENOSPC gate, if any.

        The gate lives in :mod:`repro.ioutils` process state; it fires
        on the orchestrator's own journal/store/table writes (workers
        never write to disk) and the bounded retry there absorbs it, so
        on-disk bytes stay identical to a fault-free run.
        """
        if self.worker_plan is None or not self.worker_plan.enospc:
            yield
            return
        previous = set_io_fault_gate(self.worker_plan.io_gate())
        try:
            yield
        finally:
            set_io_fault_gate(previous)

    # ------------------------------------------------------------------
    # run / resume
    # ------------------------------------------------------------------

    def run(self) -> ExitCode:
        """Start a fresh campaign in an empty directory."""
        if self.spec is None:
            raise CampaignError("campaign run needs a spec")
        if os.path.exists(self.journal_path) and len(Journal.load(self.journal_path)):
            raise CampaignError(
                f"{self.directory} already holds a campaign journal; "
                "use 'campaign resume' to continue it or pick a fresh --dir"
            )
        os.makedirs(self.directory, exist_ok=True)
        with self._io_faults():
            journal = Journal(self.journal_path)
            # Worker fault scenarios are deliberately absent from this
            # record: the degrade step heals them without a trace, so
            # the journal must stay byte-identical to a fault-free run.
            journal.append(
                "campaign-start",
                spec=self.spec.name,
                spec_digest=self.spec.digest(),
                scenario=self.scenario,
                campaign_scenario=(
                    self.campaign_plan.scenario if self.campaign_plan else None
                ),
                seed=self.seed,
                profile=self.profile,
                units=[u.id for u in self.spec.execution_order()],
            )
            self.events.emit(
                "campaign-start",
                sim_us=0.0,
                spec=self.spec.name,
                spec_digest=self.spec.digest(),
                scenario=self.scenario,
                seed=self.seed,
                units=len(self.spec),
            )
            if self.campaign_plan is not None:
                _log(self.campaign_plan.describe())
            if self.worker_plan is not None:
                _log(self.worker_plan.describe())
                if self.jobs == 1 and self.worker_plan.kill is not None:
                    _log(
                        "note: worker-kill needs --jobs > 1; serial runs "
                        "execute in-process and cannot be killed"
                    )
            return self._execute(journal, completed={})

    def run_or_resume(self) -> ExitCode:
        """Idempotent entry: fresh directories run, journalled ones resume.

        The benchmark service routes every campaign request through
        this, keyed by the request's content digest — so a client retry
        after a crash (or a duplicate submission) re-verifies and skips
        completed units instead of double-running them, and an
        uninterrupted prior run costs one journal replay.
        """
        if os.path.exists(self.journal_path) and len(
            Journal.load(self.journal_path)
        ):
            return self.resume()
        return self.run()

    def resume(self) -> ExitCode:
        """Continue an interrupted campaign from its journal."""
        journal = Journal.load(self.journal_path)
        start = journal.of_type("campaign-start")
        if not start:
            raise CampaignError(
                f"{self.directory} holds no campaign to resume "
                "(missing or fully corrupt journal)"
            )
        config = start[0]
        spec = get_spec(config["spec"])
        if spec.digest() != config["spec_digest"]:
            raise CampaignError(
                f"spec {config['spec']!r} changed since the campaign "
                "started (digest mismatch); cannot resume safely"
            )
        self.spec = spec
        self.scenario = config["scenario"]
        self.seed = config["seed"]
        # Profiling is part of the campaign's identity: a resumed unit
        # must re-profile (or not) exactly as the original run would
        # have, or its payload digest cannot match.
        self.profile = bool(config.get("profile", False))
        # The campaign fault scenarios apply to the original run only;
        # resuming must converge, not crash again.
        self.campaign_plan = None
        self.worker_plan = None

        completed: dict[str, str] = {}
        failed: dict[str, str] = {}
        for rec in journal.records:
            if rec["type"] == "unit-done":
                completed[rec["unit"]] = rec["digest"]
            elif rec["type"] in ("unit-failed", "unit-quarantined"):
                # A failure (or a legacy quarantine) is final: its
                # stored FAILED payload stands and resume skips it.
                completed[rec["unit"]] = rec["digest"]
                failed[rec["unit"]] = rec.get("error", "")
        corrupt = [
            uid
            for uid, digest in sorted(completed.items())
            if not self.store.verify(uid, digest)
        ]
        for uid in corrupt:
            del completed[uid]
        order = self.spec.execution_order()
        rerun = [u.id for u in order if u.id not in completed]
        if not rerun and journal.of_type("campaign-done") and not journal.dropped_tail:
            _log("campaign already complete; nothing to resume")
            return ExitCode(journal.of_type("campaign-done")[-1]["exit"])
        journal.append(
            "resume",
            skipped=sorted(completed),
            rerun=rerun,
            dropped_records=journal.dropped_tail,
            corrupt_store=corrupt,
        )
        if journal.dropped_tail:
            _log(
                f"recovered from a corrupt journal tail "
                f"({journal.dropped_tail} record(s) dropped)"
            )
        if corrupt:
            _log(
                "store payloads failed their digest check and will be "
                "re-executed: " + ", ".join(corrupt)
            )
        _log(
            f"resuming: {len(completed)} unit(s) verified and skipped, "
            f"{len(rerun)} to run"
        )
        self.events.emit(
            "resume",
            sim_us=1e6
            * sum(
                self._payload(uid, digest).get("simulated_s", 0.0)
                for uid, digest in completed.items()
            ),
            skipped=len(completed),
            rerun=len(rerun),
        )
        return self._execute(journal, completed=completed)

    # ------------------------------------------------------------------

    def _payload(self, unit_id: str, digest: str | None = None) -> dict:
        if unit_id not in self._payloads:
            self._payloads[unit_id] = self.store.get(unit_id, digest)
        return self._payloads[unit_id]

    def _pre_unit_exit(
        self, journal: Journal, unit, simulated_total: float
    ) -> ExitCode | None:
        """The between-unit supervisor checks."""
        if self._interrupted:
            journal.append("interrupted", before=unit.id)
            self.events.emit(
                "interrupted", sim_us=simulated_total * 1e6, before=unit.id
            )
            _log("interrupted; journal is resumable")
            return ExitCode.INTERRUPTED
        if self.deadline_s is not None and simulated_total >= self.deadline_s:
            journal.append(
                "deadline",
                before=unit.id,
                simulated_s=simulated_total,
                deadline_s=self.deadline_s,
            )
            self.events.emit(
                "deadline",
                sim_us=simulated_total * 1e6,
                before=unit.id,
                simulated_s=simulated_total,
            )
            _log(
                f"campaign deadline of {self.deadline_s:g}s "
                f"(simulated) reached; resumable"
            )
            return ExitCode.INTERRUPTED
        return None

    def _emit_unit_events(
        self,
        unit,
        payload: dict,
        digest: str,
        simulated_total: float,
    ) -> None:
        """Publish one committed unit's deterministic event records.

        Everything here is distilled from the stored payload (itself a
        pure function of the unit's identity) plus the cumulative
        simulated clock, so the emitted bytes are identical however the
        unit was executed — serial, worker pool, or degraded step.
        """
        sim_us = simulated_total * 1e6
        for incident in payload.get("incidents", []):
            self.events.emit(
                "fault-injected", sim_us=sim_us, unit=unit.id, incident=incident
            )
        hits, misses, bypasses = _cache_counts(payload)
        if hits or misses or bypasses:
            self.events.emit(
                "cache-stats",
                sim_us=sim_us,
                unit=unit.id,
                hits=hits,
                misses=misses,
                bypasses=bypasses,
            )
        if "profile" in payload:
            profile = payload["profile"]
            self.events.emit(
                "profile-attributed",
                sim_us=sim_us,
                unit=unit.id,
                digest=profile["digest"],
                device_us=profile["device_us"],
                kernels=profile["kernels"],
            )
        extra: dict = {}
        if payload.get("error") is not None:
            extra["error"] = payload["error"]
        self.events.emit(
            "unit-committed",
            sim_us=sim_us,
            unit=unit.id,
            status=payload["status"],
            digest=digest,
            simulated_s=payload.get("simulated_s", 0.0),
            **extra,
        )

    def _injected_crash(self, journal: Journal, unit, idx: int) -> bool:
        """Apply the campaign fault plan's crash point, if this is it."""
        if (
            self.campaign_plan is None
            or self.campaign_plan.crash_after_unit != idx
        ):
            return False
        # Simulated hard crash: no clean shutdown record.
        if self.campaign_plan.truncate_journal:
            journal.truncate_tail()
        _log(
            f"injected crash after unit {unit.id} "
            f"({self.campaign_plan.scenario}); resumable"
        )
        return True

    def _execute(self, journal: Journal, completed: dict[str, str]) -> ExitCode:
        """The commit loop, for serial, parallel and degraded runs alike.

        The scheduler yields outcomes in topological order and, without
        a pool, executes each unit only when it is pulled; so this loop
        journals ``unit-start`` before every pull and an interrupt during
        the pull lands inside that unit (``during=``) for any ``--jobs``.
        """
        order = self.spec.execution_order()
        simulated_total = sum(
            self._payload(uid, digest).get("simulated_s", 0.0)
            for uid, digest in completed.items()
        )
        scheduler = DagScheduler(
            self.spec,
            scenario=self.scenario,
            seed=self.seed,
            profile=self.profile,
            jobs=self.jobs,
            unit_timeout_s=self.unit_timeout_s,
            preloaded={uid: self._payload(uid) for uid in completed},
            worker_faults=self.worker_plan,
            events=self.events,
            traceparent=self.traceparent,
        )
        if self.jobs > 1:
            _log(
                f"parallel execution: {len(scheduler.pending)} unit(s) across "
                f"{min(self.jobs, len(scheduler.pending))} worker(s), "
                f"{len(self.spec.waves())} wave(s)"
            )
        self.events.live(
            "run-live",
            jobs=self.jobs,
            pid=os.getpid(),
            units=len(scheduler.pending),
        )
        stream = scheduler.outcomes()
        try:
            with self._supervised():
                for idx, unit in enumerate(order):
                    if unit.id in completed:
                        continue
                    early = self._pre_unit_exit(journal, unit, simulated_total)
                    if early is not None:
                        return early
                    journal.append("unit-start", unit=unit.id)
                    try:
                        outcome = next(stream)
                    except KeyboardInterrupt:
                        journal.append("interrupted", during=unit.id)
                        self.events.emit(
                            "interrupted",
                            sim_us=simulated_total * 1e6,
                            before=unit.id,
                        )
                        _log(
                            f"interrupted during {unit.id}; "
                            "journal is resumable"
                        )
                        return ExitCode.INTERRUPTED
                    payload = outcome.payload
                    digest = self.store.put(unit.id, payload)
                    if outcome.error is not None:
                        journal.append(
                            "unit-failed",
                            unit=unit.id,
                            digest=digest,
                            status=payload["status"],
                            error=payload["error"],
                        )
                        self._emit_unit_events(
                            unit, payload, digest, simulated_total
                        )
                        _log(f"{unit.id}: FAILED ({payload['error']})")
                    else:
                        extra = (
                            {"watchdog": outcome.watchdog}
                            if outcome.watchdog
                            else {}
                        )
                        journal.append(
                            "unit-done",
                            unit=unit.id,
                            status=payload["status"],
                            digest=digest,
                            simulated_s=payload["simulated_s"],
                            **extra,
                        )
                        simulated_total += payload["simulated_s"]
                        self._emit_unit_events(
                            unit, payload, digest, simulated_total
                        )
                        _log(f"{unit.id}: {payload['status']}")
                    completed[unit.id] = digest
                    self._payloads[unit.id] = payload
                    if self._injected_crash(journal, unit, idx):
                        return ExitCode.INTERRUPTED
        finally:
            stream.close()
        return self._finalize(journal, completed)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def _finalize(self, journal: Journal, completed: dict[str, str]) -> ExitCode:
        order = self.spec.execution_order()
        payloads = [self._payload(u.id, completed[u.id]) for u in order]
        os.makedirs(self.tables_dir, exist_ok=True)
        for unit, payload in zip(order, payloads):
            if unit.artifact is None:
                continue
            text = payload.get(
                "text", f"FAILED: {payload.get('error', 'no result')}\n"
            )
            atomic_write_text(os.path.join(self.tables_dir, unit.artifact), text)
        worst = max(
            (CellStatus[p["status"]] for p in payloads), default=CellStatus.OK
        )
        self._write_manifest(order, payloads, completed, worst)
        code = status_exit_code(worst)
        journal.append("campaign-done", exit=int(code))
        self.events.emit(
            "campaign-done",
            sim_us=1e6 * sum(p.get("simulated_s", 0.0) for p in payloads),
            exit=int(code),
        )
        _log(
            f"complete: {len(order)} unit(s), worst status {worst.name}, "
            f"artifacts in {self.tables_dir}"
        )
        return code

    def _write_manifest(self, order, payloads, completed, worst) -> None:
        ctx = ExecutionContext(self.scenario, self.seed)
        ctx.record(worst)
        campaign = {
            "spec": self.spec.name,
            "spec_digest": self.spec.digest(),
            "profile": self.profile,
            "units": [
                {
                    "id": unit.id,
                    "status": payload["status"],
                    "digest": completed[unit.id],
                    "simulated_s": payload.get("simulated_s", 0.0),
                    "incidents": payload.get("incidents", []),
                    **(
                        {"profile_digest": payload["profile"]["digest"]}
                        if "profile" in payload
                        else {}
                    ),
                }
                for unit, payload in zip(order, payloads)
            ],
            "worst_unit_status": worst.name,
            "simulated_total_s": sum(
                p.get("simulated_s", 0.0) for p in payloads
            ),
            "metrics": aggregate_metrics(payloads).snapshot(),
        }
        doc = build_manifest(
            "campaign", ctx, campaign=campaign, systems=self.spec.systems()
        )
        atomic_write_text(self.manifest_path, render_manifest(doc))

    # ------------------------------------------------------------------
    # status / verify
    # ------------------------------------------------------------------

    def _load_config(self, journal: Journal) -> dict:
        start = journal.of_type("campaign-start")
        if not start:
            raise CampaignError(
                f"{self.directory} holds no campaign journal"
            )
        return start[0]

    def status(self) -> ExitCode:
        journal = Journal.load(self.journal_path)
        config = self._load_config(journal)
        spec = get_spec(config["spec"])
        state: dict[str, str] = {u.id: "pending" for u in spec.execution_order()}
        for rec in journal.records:
            if rec["type"] in ("unit-done", "unit-failed", "unit-quarantined"):
                state[rec["unit"]] = rec["status"]
            elif rec["type"] == "unit-start" and state.get(rec["unit"]) == "pending":
                state[rec["unit"]] = "started"
        done = sum(1 for s in state.values() if s not in ("pending", "started"))
        print(f"campaign {config['spec']!r} in {self.directory}")
        print(
            f"  scenario {config['scenario']!r} seed {config['seed']}"
            + (
                f", campaign scenario {config['campaign_scenario']!r}"
                if config.get("campaign_scenario")
                else ""
            )
        )
        for uid, unit_state in state.items():
            print(f"  {uid:24s} {unit_state}")
        self._status_workers()
        print(
            f"  {done}/{len(state)} unit(s) complete, "
            f"{len(journal)} journal record(s)"
            + (
                f", {journal.dropped_tail} corrupt record(s) in the tail"
                if journal.dropped_tail
                else ""
            )
        )
        if journal.of_type("campaign-done"):
            print("  campaign complete")
        else:
            print("  campaign incomplete: finish with 'campaign resume'")
        return ExitCode.OK

    def _status_workers(self) -> None:
        """Per-worker lanes and their last activity (live stream)."""
        import time

        from ..obs.watch import worker_lanes

        lanes = worker_lanes(self.events.live_records())
        if not lanes:
            return
        now = time.time()
        print(f"  workers: {len(lanes)} lane(s)")
        for ln in lanes:
            seen = (
                f"last active {max(now - ln.last_ts, 0.0):.1f}s ago"
                if ln.last_ts is not None
                else "no unit yet"
            )
            unit = f" on {ln.unit}" if ln.unit else ""
            print(
                f"    [{ln.index}] {ln.worker:22s} {ln.state}{unit} ({seen})"
            )

    def verify(self) -> ExitCode:
        """Prove journal + store integrity; 0 complete, 3 partial, 4 corrupt."""
        try:
            journal = Journal.load(self.journal_path, strict=True)
        except CampaignCorruptError as exc:
            print(f"corrupt journal: {exc}")
            return ExitCode.CORRUPT
        config = self._load_config(journal)
        spec = get_spec(config["spec"])
        if spec.digest() != config["spec_digest"]:
            print(f"spec {config['spec']!r} digest mismatch")
            return ExitCode.CORRUPT
        bad: list[str] = []
        completed: dict[str, str] = {}
        for rec in journal.records:
            if rec["type"] in ("unit-done", "unit-failed", "unit-quarantined"):
                completed[rec["unit"]] = rec["digest"]
        for uid, digest in sorted(completed.items()):
            if not self.store.verify(uid, digest):
                bad.append(uid)
        if bad:
            print(
                "corrupt store payload(s): " + ", ".join(bad)
            )
            return ExitCode.CORRUPT
        print(
            f"journal intact ({len(journal)} record(s)); "
            f"{len(completed)}/{len(spec)} unit payload(s) verified"
        )
        if not journal.of_type("campaign-done"):
            print("campaign incomplete (resumable)")
            return ExitCode.INTERRUPTED
        print("campaign complete and verified")
        return ExitCode.OK


# ----------------------------------------------------------------------
# CLI entry
# ----------------------------------------------------------------------

def campaign_main(args) -> int:
    """Dispatch ``pvc-bench campaign <run|resume|status|verify>``."""
    if args.action == "status":
        return int(Orchestrator(args.dir).status())
    if args.action == "verify":
        return int(Orchestrator(args.dir).verify())
    supervision = dict(
        unit_timeout_s=args.unit_timeout,
        deadline_s=args.deadline,
        jobs=args.jobs,
    )
    if args.action == "resume":
        return int(Orchestrator(args.dir, **supervision).resume())
    spec = get_spec(args.spec)
    scenario, plan, worker_plan = args.inject, None, None
    if scenario is not None and scenario in CAMPAIGN_SCENARIO_NAMES:
        plan = build_campaign_plan(scenario, args.seed, len(spec))
        scenario = None
    elif scenario is not None and scenario in WORKER_SCENARIO_NAMES:
        worker_plan = build_worker_plan(
            scenario, args.seed, [u.id for u in spec.execution_order()]
        )
        scenario = None
    elif scenario is not None and scenario not in SCENARIO_NAMES:
        raise CampaignError(
            f"unknown fault scenario {scenario!r}; choose an engine "
            f"scenario ({', '.join(SCENARIO_NAMES)}), a campaign "
            f"scenario ({', '.join(CAMPAIGN_SCENARIO_NAMES)}), or a "
            f"worker scenario ({', '.join(WORKER_SCENARIO_NAMES)})"
        )
    orch = Orchestrator(
        args.dir,
        spec=spec,
        scenario=scenario,
        seed=args.seed,
        campaign_plan=plan,
        profile=args.profile,
        worker_plan=worker_plan,
        **supervision,
    )
    return int(orch.run())
