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
points) still fall *between* executions.  With ``jobs > 1`` the units
run on a standard-library
:class:`~concurrent.futures.ProcessPoolExecutor` (fork context).  A
worker that dies — the OOM killer, an operator's ``kill -9``, the
``worker-kill`` scenario — breaks the pool; the scheduler then
*degrades*: it keeps every result already received, says so once (a
stderr line and a live ``pool-degraded`` record), and runs every
unsettled unit through the same in-process step ``--jobs 1`` uses.
Unit execution is a pure function of the unit's identity, so the
degraded run commits the same bytes as a clean one.

In-process, only a :class:`ReproError` becomes a FAILED outcome;
``KeyboardInterrupt`` and any other exception propagate with their own
type.  A worker that ships a ``crashed`` status — its unit raised an
unexpected non-:class:`ReproError` exception — aborts the campaign with
:class:`~repro.errors.WorkerCrashError`: the same bug would be fatal
in-process.

Units execute in the worker exactly as they do in-process: a fresh
:class:`~repro.faults.ExecutionContext` and telemetry session per unit,
fault plans and noise that are pure functions of ``(scenario, seed,
system)``.  Per-unit payloads are merged by the orchestrator with the
same content-sorted rules the profiler uses, so N workers produce the
same aggregate metrics as one.  Results cross the pipe as plain dicts
and pre-formatted error strings — exceptions never need to pickle.
Each result also carries its worker's index and the unit's wall start
and end, from which the parent writes the live ``unit-dispatched`` /
``unit-completed`` records that ``campaign watch`` folds into lanes.
Process-level fault plans (:class:`~repro.faults.WorkerFaultPlan`) fire
inside pool workers only, so the in-process step can never SIGKILL the
orchestrator.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from dataclasses import dataclass

from ..errors import CampaignError, ReproError, WorkerCrashError
from ..obs.events import IN_PROCESS
from .spec import CampaignSpec
from .units import apply_watchdog, execute_unit, failure_payload, format_error

__all__ = [
    "JOBS_ENV",
    "DagScheduler",
    "UnitOutcome",
    "resolve_jobs",
]

#: Environment fallback for ``--jobs`` (CLI flag wins when given).
JOBS_ENV = "CAMPAIGN_JOBS"

#: Per-process state of a pool worker, set by :func:`_init_worker`.
_WORKER: dict = {}


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


def _init_worker(counter, faults, traceparent) -> None:
    """Pool initializer: number this worker and set its process state.

    *counter* is a shared integer; each worker takes the next index, so
    a pool of N workers holds indices ``0..N-1``.  SIGINT is ignored (a
    terminal Ctrl-C reaches the orchestrator, which journals the
    interrupt and shuts the pool down) and SIGTERM is reset to its
    default, so the executor can terminate a worker that inherited the
    orchestrator's handlers.  *faults* is the optional
    :class:`~repro.faults.WorkerFaultPlan`.  *traceparent* is the
    originating service request's trace context, exported into this
    process's environment so anything the unit touches can attribute
    itself to that request; it never influences results.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with counter.get_lock():
        _WORKER["index"] = counter.value
        counter.value += 1
    _WORKER["faults"] = faults
    if traceparent:
        from ..obs.requests import TRACEPARENT_ENV

        os.environ[TRACEPARENT_ENV] = traceparent


def _pool_unit(unit, deps, scenario, seed, profile) -> tuple:
    """Pool task: execute one unit in a worker.

    Returns ``(index, start_ts, end_ts, status, data)``: the worker's
    index, the unit's wall-clock start and end, and a *status* of
    ``"ok"`` (data = payload dict), ``"failed"`` (data = formatted
    :class:`ReproError`, journalled as unit-failed) or ``"crashed"``
    (data = formatted unexpected exception, fatal to the campaign —
    exactly as it would be in-process).
    """
    start = time.time()
    faults = _WORKER["faults"]
    if faults is not None and faults.kill == unit.id:
        os.kill(os.getpid(), signal.SIGKILL)
    try:
        payload = execute_unit(unit, scenario, seed, deps, profile)
    except ReproError as exc:
        status, data = "failed", format_error(exc)
    except Exception as exc:  # noqa: BLE001 - shipped to parent
        status, data = "crashed", format_error(exc)
    else:
        status, data = "ok", payload
    return _WORKER["index"], start, time.time(), status, data


def _log(message: str) -> None:
    print(f"campaign: {message}", file=sys.stderr)


class DagScheduler:
    """Runs units in-process or on a process pool; yields topo order."""

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
        self.worker_faults = worker_faults
        self.log = log if log is not None else _log
        self.events = events  # optional EventBus for live worker telemetry
        self.traceparent = traceparent  # originating request, if any
        #: True once a worker death sent the run to the in-process step.
        self.degraded = False
        self.pending = tuple(
            u for u in spec.execution_order() if u.id not in self.preloaded
        )

    def _live(self, etype: str, **fields) -> None:
        if self.events is not None:
            self.events.live(etype, **fields)

    # ------------------------------------------------------------------

    def outcomes(self):
        """Generator of :class:`UnitOutcome` in topological order.

        Without a pool (``jobs == 1``, or once the pool broke) a unit
        executes in-process only when it is pulled.  Closing the
        generator (or letting an exception escape) shuts any pool down
        and waits for its workers.
        """
        payloads = dict(self.preloaded)
        ready: dict[str, UnitOutcome] = {}

        def settle(outcome: UnitOutcome) -> None:
            ready[outcome.unit.id] = outcome
            payloads[outcome.unit.id] = outcome.payload

        pool = None
        if self.jobs > 1 and self.pending:
            from concurrent.futures import FIRST_COMPLETED, wait
            from concurrent.futures.process import BrokenProcessPool

            pool = self._start_pool()
            running: dict = {}  # future -> unit
            submitted: set[str] = set()

            def submit_ready() -> None:
                for unit in self.pending:
                    if unit.id in submitted:
                        continue
                    if all(d in payloads for d in unit.deps):
                        submitted.add(unit.id)
                        deps = {d: payloads[d] for d in unit.deps}
                        future = pool.submit(
                            _pool_unit, unit, deps,
                            self.scenario, self.seed, self.profile,
                        )
                        running[future] = unit

        try:
            for unit in self.pending:
                while pool is not None and unit.id not in ready:
                    try:
                        submit_ready()
                        done, _ = wait(running, return_when=FIRST_COMPLETED)
                        for future in done:
                            settle(self._pool_outcome(
                                running.pop(future), future.result()
                            ))
                    except BrokenProcessPool:
                        self._degrade(pool, running, settle)
                        pool = None
                if unit.id not in ready:
                    settle(self._run_in_process(unit, payloads))
                yield ready.pop(unit.id)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def _start_pool(self):
        """A fork pool of ``min(jobs, pending)`` indexed workers."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("fork")
        workers = min(self.jobs, len(self.pending))
        pool = ProcessPoolExecutor(
            workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(ctx.Value("i", 0), self.worker_faults, self.traceparent),
        )
        for index in range(workers):
            self._live(
                "worker-spawn", worker=f"campaign-worker-{index}", index=index
            )
        return pool

    def _degrade(self, pool, running: dict, settle) -> None:
        """Keep the results already received, then drop the broken pool."""
        for future, unit in running.items():
            received = future.done() and not future.cancelled()
            if received and future.exception() is None:
                settle(self._pool_outcome(unit, future.result()))
        running.clear()
        pool.shutdown(cancel_futures=True)
        self.degraded = True
        self.log(
            "a pool worker died; running the remaining units in-process"
        )
        self._live("pool-degraded")

    def _pool_outcome(self, unit, result: tuple) -> UnitOutcome:
        """The outcome a worker's result tuple carries."""
        index, start, end, status, data = result
        self._live("unit-dispatched", ts=start, unit=unit.id, index=index)
        self._live("unit-completed", ts=end, unit=unit.id, status=status)
        if status == "ok":
            return self._done(unit, data)
        if status == "failed":
            return UnitOutcome(unit, failure_payload(unit, data), error=data)
        raise WorkerCrashError(f"unit {unit.id!r} crashed in a worker: {data}")

    def _run_in_process(self, unit, payloads: dict) -> UnitOutcome:
        """Execute *unit* in this process: the serial and degraded step.

        Worker fault plans never fire here.  Only a :class:`ReproError`
        becomes a FAILED outcome; anything else propagates unchanged.
        """
        index = IN_PROCESS if self.degraded else 0
        self._live("unit-dispatched", unit=unit.id, index=index)
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
        self._live(
            "unit-completed", unit=unit.id, status=outcome.payload["status"]
        )
        return outcome

    def _done(self, unit, payload: dict) -> UnitOutcome:
        note = apply_watchdog(payload, self.unit_timeout_s)
        return UnitOutcome(unit, payload, watchdog=note)
