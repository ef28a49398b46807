"""The campaign DAG scheduler: the one producer of unit outcomes.

The campaign spec is a DAG whose measuring units are mutually
independent (a table cell on ``aurora`` never reads a cell from
``dawn``), so the orchestrator can fan them out to a pool of worker
processes.  Determinism — the whole point of the campaign subsystem —
is preserved by splitting *execution order* from *commit order*:

* **Execution order** is opportunistic: a unit is submitted to the pool
  the moment every dependency payload is available, and workers finish
  in whatever order the host schedules them.
* **Commit order** is the spec's topological order: the scheduler
  buffers out-of-order completions and yields
  :class:`UnitOutcome`\\ s strictly in ``spec.execution_order()``
  sequence, so the orchestrator journals, stores, and logs exactly the
  byte sequence a serial run would produce.  A crash at any commit
  point therefore leaves the journal a *prefix* of the serial journal,
  which is what makes ``campaign resume`` indifferent to how the
  interrupted run was parallelised.

:meth:`DagScheduler.outcomes` serves every execution mode through one
commit-order loop.  With ``jobs == 1`` no pool exists: each unit
executes in-process at the moment the orchestrator pulls it, so the
orchestrator's between-unit checks (deadline, SIGINT, injected crash
points) still fall *between* executions.  With ``jobs > 1`` the pool is
*supervised* (:class:`~repro.campaign.supervisor.WorkerSupervisor`):
dead workers are reaped and respawned up to ``--max-respawns``, their
in-flight units re-enqueued (unit execution is a pure function of
identity, so a re-run reproduces the same bytes); hung workers are
SIGKILLed after a heartbeat deadline; a unit that kills
``poison_crashes`` consecutive workers is quarantined instead of
aborting the DAG; and when the respawn budget is spent the scheduler
degrades to the same lazy in-process step a serial run uses.

In-process, only a :class:`ReproError` becomes a FAILED outcome;
``KeyboardInterrupt`` and any other exception propagate with their own
type.  A worker that ships a ``crashed`` status — its unit raised an
unexpected non-:class:`ReproError` exception — aborts the campaign with
:class:`~repro.errors.WorkerCrashError`: the same bug would be fatal
in-process, and respawning would only re-crash on the same code path.

Units execute in the worker exactly as they do in-process: a fresh
:class:`~repro.faults.ExecutionContext` and telemetry session per unit,
fault plans and noise that are pure functions of ``(scenario, seed,
system)``.  Per-unit payloads are merged by the orchestrator with the
same content-sorted rules the profiler uses, so N workers produce the
same aggregate metrics as one.

Workers are forked before any queue traffic starts (so the parent is
still effectively single-threaded) and communicate over
``multiprocessing`` queues; results cross the pipe as plain dicts and
pre-formatted error strings — exceptions never need to pickle.
Process-level fault plans (:class:`~repro.faults.WorkerFaultPlan`) are
applied *inside* the worker loop only, so the in-process step can never
SIGKILL the orchestrator.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from ..errors import CampaignError, ReproError, WorkerCrashError
from .spec import CampaignSpec
from .supervisor import (
    DEFAULT_MAX_RESPAWNS,
    HEARTBEAT,
    SupervisionStats,
    WorkerSupervisor,
)
from .units import (
    apply_watchdog,
    execute_unit,
    failure_payload,
    format_error,
    quarantine_payload,
)

__all__ = [
    "JOBS_ENV",
    "DagScheduler",
    "UnitOutcome",
    "resolve_jobs",
    "scheduler_selfcheck",
]

#: Environment fallback for ``--jobs`` (CLI flag wins when given).
JOBS_ENV = "CAMPAIGN_JOBS"

#: Consecutive worker crashes on one unit before quarantine (mirrors
#: :data:`repro.faults.DEFAULT_POISON_CRASHES`; duplicated here so the
#: campaign package does not import the faults package at module scope).
DEFAULT_POISON_CRASHES = 3

#: Ceiling on an injected hang: a hung worker the supervisor somehow
#: never kills (supervision disabled, parent died) exits on its own
#: rather than lingering forever.
_HANG_CAP_S = 120.0


def resolve_jobs(jobs: int | None) -> int:
    """The worker count from ``--jobs``, ``$CAMPAIGN_JOBS``, or 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise CampaignError(
                f"${JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if jobs < 1:
        raise CampaignError(f"--jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True, slots=True)
class UnitOutcome:
    """One unit's result, ready to commit in topological order."""

    unit: object  # CampaignUnit
    payload: dict
    error: str | None = None  # set -> journal as unit-failed
    watchdog: str | None = None  # set -> demoted by the simulated watchdog
    quarantined: tuple[int, ...] | None = None  # worker exit codes


def _worker_loop(
    index, task_q, result_q, scenario, seed, profile, faults,
    traceparent=None,
) -> None:
    """Worker process body: execute units until the ``None`` sentinel.

    On pickup the worker heartbeats ``(HEARTBEAT, index, unit_id)`` so
    the supervisor can tell "still computing" from "hung".  Results are
    ``(unit_id, status, data)`` tuples where *status* is ``"ok"`` (data
    = payload dict), ``"failed"`` (data = formatted
    :class:`ReproError`, journalled as unit-failed) or ``"crashed"``
    (data = formatted unexpected exception, fatal to the campaign —
    exactly as it would be in-process).

    *faults* is an optional :class:`~repro.faults.WorkerFaultPlan`;
    scheduled kills/hangs fire here, keyed on the supervisor-assigned
    attempt number, so "crash twice then succeed" is expressible.

    *traceparent* is the originating service request's trace context;
    exported into this process's environment so anything the unit
    touches (nested tooling, diagnostics) can attribute itself to the
    request that caused the work.  Never influences results — the
    payloads stay byte-identical traced or not.
    """
    if traceparent:
        from ..obs.requests import TRACEPARENT_ENV

        os.environ[TRACEPARENT_ENV] = traceparent
    while True:
        task = task_q.get()
        if task is None:
            return
        unit, deps, attempt = task
        result_q.put((HEARTBEAT, index, unit.id))
        if faults is not None:
            if faults.should_hang(unit.id, attempt):
                deadline = time.monotonic() + _HANG_CAP_S
                while time.monotonic() < deadline:  # pragma: no branch
                    time.sleep(0.1)
                os._exit(1)  # pragma: no cover - supervisor kills us first
            if faults.kill_point(unit.id, attempt) == "start":
                os.kill(os.getpid(), signal.SIGKILL)
        try:
            payload = execute_unit(unit, scenario, seed, deps, profile)
        except KeyboardInterrupt:  # pragma: no cover - signal timing
            return
        except ReproError as exc:
            result_q.put((unit.id, "failed", format_error(exc)))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            result_q.put((unit.id, "crashed", format_error(exc)))
        else:
            result_q.put((unit.id, "ok", payload))
            if faults is not None and faults.kill_point(unit.id, attempt) == "done":
                # Flush the queue's feeder thread before dying, so the
                # result is on the wire — this is the swallowed-result
                # race the supervisor's grace drain must win.
                result_q.close()
                result_q.join_thread()
                os.kill(os.getpid(), signal.SIGKILL)


class DagScheduler:
    """Runs units in-process or on a supervised pool; yields topo order."""

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        scenario: str | None,
        seed: int,
        profile: bool,
        jobs: int,
        unit_timeout_s: float | None = None,
        preloaded: dict[str, dict] | None = None,
        max_respawns: int | None = None,
        poison_crashes: int | None = None,
        hang_timeout_s: float | None = None,
        worker_faults=None,
        log=None,
        events=None,
        traceparent=None,
    ) -> None:
        self.spec = spec
        self.scenario = scenario
        self.seed = seed
        self.profile = profile
        self.jobs = jobs
        self.unit_timeout_s = unit_timeout_s
        self.preloaded = dict(preloaded or {})
        self.max_respawns = (
            DEFAULT_MAX_RESPAWNS if max_respawns is None else max_respawns
        )
        self.poison_crashes = (
            DEFAULT_POISON_CRASHES if poison_crashes is None else poison_crashes
        )
        self.hang_timeout_s = hang_timeout_s
        self.worker_faults = worker_faults
        self.log = log
        self.events = events  # optional EventBus for live worker telemetry
        self.traceparent = traceparent  # originating request, if any
        self.stats = SupervisionStats()
        self.pending = tuple(
            u for u in spec.execution_order() if u.id not in self.preloaded
        )

    # ------------------------------------------------------------------

    def outcomes(self):
        """Generator of :class:`UnitOutcome` in topological order.

        Without a pool (``jobs == 1``, or once a pool degrades) a unit
        executes in-process only when it is pulled.  Closing the
        generator (or letting an exception escape) tears any pool down;
        workers are daemonic, so even an unclean parent exit cannot
        leak them.
        """
        payloads = dict(self.preloaded)
        ready: dict[str, UnitOutcome] = {}
        submitted: set[str] = set()
        pool = None
        if self.jobs > 1 and self.pending:
            pool = WorkerSupervisor(
                min(self.jobs, len(self.pending)),
                worker_body=_worker_loop,
                worker_args=(
                    self.scenario,
                    self.seed,
                    self.profile,
                    self.worker_faults,
                    self.traceparent,
                ),
                max_respawns=self.max_respawns,
                poison_crashes=self.poison_crashes,
                hang_timeout_s=self.hang_timeout_s,
                stats=self.stats,
                events=self.events,
                **({"log": self.log} if self.log is not None else {}),
            )
            pool.start()
        draining = pool is None

        def settle(outcome: UnitOutcome) -> None:
            ready[outcome.unit.id] = outcome
            payloads[outcome.unit.id] = outcome.payload

        def submit_ready() -> None:
            for unit in self.pending:
                if unit.id in submitted:
                    continue
                if all(d in payloads for d in unit.deps):
                    submitted.add(unit.id)
                    pool.submit(unit, {d: payloads[d] for d in unit.deps})

        try:
            if pool is not None:
                submit_ready()
            for unit in self.pending:
                while not draining and unit.id not in ready:
                    event = pool.next_event()
                    if event[0] == "degraded":
                        draining = True
                        continue
                    settle(self._pool_outcome(event))
                    submit_ready()
                if unit.id not in ready:
                    settle(self._run_in_process(unit, payloads))
                yield ready.pop(unit.id)
        finally:
            if pool is not None:
                pool.shutdown()

    def _pool_outcome(self, event: tuple) -> UnitOutcome:
        """The outcome a supervisor result or quarantine event carries."""
        if event[0] == "quarantined":
            _, unit, codes = event
            payload = quarantine_payload(unit, codes)
            return UnitOutcome(
                unit,
                payload,
                error=payload["error"],
                quarantined=tuple(int(c) for c in codes),
            )
        _, uid, status, data = event
        unit = self.spec.unit(uid)
        if status == "ok":
            return self._done(unit, data)
        if status == "failed":
            return UnitOutcome(unit, failure_payload(unit, data), error=data)
        raise WorkerCrashError(f"unit {uid!r} crashed in a worker: {data}")

    def _run_in_process(self, unit, payloads: dict) -> UnitOutcome:
        """Execute *unit* in this process: the serial and degraded step.

        Worker fault plans never fire here.  Only a :class:`ReproError`
        becomes a FAILED outcome; anything else propagates unchanged.
        """
        if self.events is not None:
            self.events.live(
                "unit-dispatched", unit=unit.id, index=0, attempt=1
            )
        deps = {d: payloads[d] for d in unit.deps}
        try:
            payload = execute_unit(
                unit, self.scenario, self.seed, deps, self.profile
            )
        except ReproError as exc:
            error = format_error(exc)
            outcome = UnitOutcome(
                unit, failure_payload(unit, error), error=error
            )
        else:
            outcome = self._done(unit, payload)
        if self.events is not None:
            self.events.live(
                "unit-completed",
                unit=unit.id,
                status=outcome.payload["status"],
            )
        return outcome

    def _done(self, unit, payload: dict) -> UnitOutcome:
        note = apply_watchdog(payload, self.unit_timeout_s)
        return UnitOutcome(unit, payload, watchdog=note)


# ----------------------------------------------------------------------
# health selfcheck
# ----------------------------------------------------------------------

def scheduler_selfcheck():
    """Supervision invariants for ``pvc-bench health``.

    Runs the smoke spec through a 2-worker pool with a scripted
    SIGKILL, then asserts the run completed, the supervisor respawned
    exactly once, nothing was quarantined, and no child process leaked.
    Lives here (not in :mod:`.supervisor`) because it needs the worker
    loop and a spec — the supervisor module stays import-light.
    """
    from ..faults.process import WorkerFaultPlan
    from ..hw.selfcheck import CheckResult
    from .spec import get_spec

    spec = get_spec("smoke")
    victim = spec.execution_order()[0].id
    plan = WorkerFaultPlan("worker-kill", 0, kills={victim: (1, "start")})
    scheduler = DagScheduler(
        spec,
        scenario=None,
        seed=0,
        profile=False,
        jobs=2,
        worker_faults=plan,
        log=lambda _msg: None,
    )
    checks: list = []
    try:
        outcomes = list(scheduler.outcomes())
    except ReproError as exc:  # pragma: no cover - only on regression
        checks.append(
            CheckResult("scheduler.survives-worker-death", False, str(exc))
        )
        return checks
    checks.append(
        CheckResult(
            "scheduler.survives-worker-death",
            len(outcomes) == len(spec.execution_order()),
            f"{len(outcomes)}/{len(spec.execution_order())} units completed "
            "after an injected worker SIGKILL",
        )
    )
    checks.append(
        CheckResult(
            "scheduler.respawn",
            scheduler.stats.respawns == 1,
            f"supervisor respawned {scheduler.stats.respawns} worker(s) "
            "(expected 1)",
        )
    )
    checks.append(
        CheckResult(
            "scheduler.no-quarantine",
            not scheduler.stats.quarantined and not scheduler.stats.degraded,
            "single crash healed transparently "
            "(no quarantine, no degradation)",
        )
    )
    import multiprocessing

    leaked = [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("campaign-worker-")
    ]
    checks.append(
        CheckResult(
            "scheduler.no-leaked-children",
            not leaked,
            f"{len(leaked)} campaign worker(s) left alive after shutdown",
        )
    )
    return checks
