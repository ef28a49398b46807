"""Worker supervision for the campaign DAG scheduler.

The PR 5 scheduler treated a dead worker as fatal: the run aborted with
a ``CampaignError`` and the operator resumed by hand.  For the
benchmark-as-a-service north star that is exactly backwards — at scale,
process death is the *common* case ("Scaling MPI Applications on
Aurora"), so the pool must heal itself.  :class:`WorkerSupervisor`
implements the healing loop:

* **Exact in-flight accounting.**  Each worker gets its own task queue
  and holds at most one unit, so when it dies the supervisor knows
  precisely which unit was in flight — nothing is lost, nothing is
  double-committed.  Before declaring that unit crashed, the result
  queue is drained with a short grace period: a worker killed *after*
  flushing its result (the classic swallowed-result race) contributes
  its outcome instead of a spurious retry.
* **Respawn with a budget.**  Dead workers are reaped (joined — no
  zombies), their exit codes recorded, and replacements forked while
  the respawn budget lasts.  The re-enqueued unit runs with an
  incremented attempt number, which is how deterministic fault plans
  express "crash twice, then succeed".
* **Poison-unit quarantine.**  A unit that kills
  ``poison_crashes`` consecutive workers is reported as a
  ``("quarantined", unit, exit_codes)`` event rather than retried
  forever; the scheduler journals it with the worker exit codes as
  provenance and the rest of the DAG continues.
* **Hang detection.**  Workers heartbeat on the result queue when they
  pick up a unit; a worker whose unit outlives ``hang_timeout_s``
  without a beat or result is SIGKILLed and handled exactly like a
  crash.
* **Graceful degradation.**  When the budget is spent and no workers
  remain, the supervisor emits a single ``("degraded",)`` event; the
  scheduler then drains the remaining units serially in-process
  (where process-level fault plans deliberately do not fire).

Everything the supervisor does transparently — respawns, grace drains,
hang kills — leaves the committed journal/store/table bytes identical
to a serial run; only quarantine and degradation leave a visible trace,
and both are deterministic functions of the fault plan.
"""

from __future__ import annotations

import multiprocessing
import queue
import sys
import time
from collections import deque
from dataclasses import dataclass, field

from ..errors import WorkerCrashError

__all__ = [
    "DEFAULT_MAX_RESPAWNS",
    "HEARTBEAT",
    "SupervisionStats",
    "WorkerSupervisor",
]

#: Worker respawns allowed per campaign before the pool degrades.
DEFAULT_MAX_RESPAWNS = 8

#: First element of a heartbeat tuple on the result queue
#: (``(HEARTBEAT, worker_index, unit_id)``), sent when a worker picks a
#: task up; unit ids never collide with it.
HEARTBEAT = "__hb__"

#: Result-queue poll interval; also the cadence of liveness/hang checks.
_POLL_S = 0.05

#: Grace period to drain a dead worker's already-flushed result before
#: declaring its in-flight unit crashed.
_REAP_DRAIN_S = 0.25

#: Join timeout for reaped/terminated workers.
_JOIN_S = 2.0


def _default_log(message: str) -> None:
    print(f"[campaign] {message}", file=sys.stderr, flush=True)


@dataclass
class SupervisionStats:
    """What supervision had to do during one scheduler run.

    Only deterministic facts make it into :meth:`to_doc` (and from
    there the manifest): respawn/hang counts and the quarantine map
    with worker exit codes.  Wall-clock-flavoured details stay out so
    manifests remain byte-stable across runs.
    """

    respawns: int = 0
    crashes: int = 0
    hang_kills: int = 0
    degraded: bool = False
    #: ``(worker_name, exitcode)`` for every worker death observed.
    worker_exits: list[tuple[str, int | None]] = field(default_factory=list)
    #: unit id -> exit codes of the workers it killed (quarantined units).
    quarantined: dict[str, list[int]] = field(default_factory=dict)
    #: unit id -> dispatch attempts (1 for the untroubled path).
    attempts: dict[str, int] = field(default_factory=dict)

    def eventful(self) -> bool:
        """True when supervision left (or should leave) a visible trace."""
        return self.degraded or bool(self.quarantined)

    def to_doc(self) -> dict:
        return {
            "respawns": self.respawns,
            "hang_kills": self.hang_kills,
            "degraded": self.degraded,
            "quarantined": {
                unit_id: list(codes)
                for unit_id, codes in sorted(self.quarantined.items())
            },
        }


class _Worker:
    """One supervised slot: a process, its private task queue, and the
    unit currently in flight (exact in-flight map — at most one)."""

    __slots__ = (
        "index",
        "proc",
        "task_q",
        "unit",
        "deps",
        "last_beat",
        "reaped",
    )

    def __init__(self, index: int, proc, task_q) -> None:
        self.index = index
        self.proc = proc
        self.task_q = task_q
        self.unit = None
        self.deps = None
        self.last_beat: float | None = None
        self.reaped = False

    @property
    def idle(self) -> bool:
        return self.unit is None

    def alive(self) -> bool:
        return not self.reaped and self.proc.is_alive()


class WorkerSupervisor:
    """Runs and heals a pool of campaign workers.

    The caller (the DAG scheduler) feeds ready units with
    :meth:`submit` and pulls events with :meth:`next_event`; the
    supervisor owns dispatch, liveness, respawn, quarantine, and hang
    policy.  ``worker_body`` is the process target — it is passed in
    (rather than imported) so the scheduler module keeps owning the
    loop that tests monkeypatch — and is invoked as
    ``worker_body(index, task_q, result_q, *worker_args)``.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        worker_body,
        worker_args: tuple = (),
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        poison_crashes: int = 3,
        hang_timeout_s: float | None = None,
        stats: SupervisionStats | None = None,
        log=None,
        events=None,
    ) -> None:
        if n_workers < 1:
            raise WorkerCrashError(f"worker pool needs >= 1 worker, got {n_workers}")
        if max_respawns < 0:
            raise WorkerCrashError(f"--max-respawns must be >= 0, got {max_respawns}")
        if poison_crashes < 1:
            raise WorkerCrashError(f"poison threshold must be >= 1, got {poison_crashes}")
        self.n_workers = n_workers
        self.worker_body = worker_body
        self.worker_args = tuple(worker_args)
        self.max_respawns = max_respawns
        self.poison_crashes = poison_crashes
        self.hang_timeout_s = hang_timeout_s
        self.stats = stats if stats is not None else SupervisionStats()
        self.log = log if log is not None else _default_log
        #: Optional :class:`repro.obs.events.EventBus`; everything the
        #: supervisor publishes goes to the wall-clock *live* stream
        #: (spawns, dispatches, heartbeats, deaths, respawns, hangs,
        #: quarantines, degradation) so the deterministic stream stays
        #: byte-identical to a fault-free serial run.
        self.events = events
        self._ctx = multiprocessing.get_context("fork")
        self.result_q = self._ctx.Queue()
        self._workers: list[_Worker] = []
        self._pending: deque = deque()
        self._events: deque = deque()
        self._crash_counts: dict[str, int] = {}
        self._crash_codes: dict[str, list[int]] = {}
        self._spawn_serial = 0
        self._degraded_announced = False

    def _live(self, etype: str, **fields) -> None:
        if self.events is not None:
            self.events.live(etype, **fields)

    # -- pool lifecycle -----------------------------------------------------

    def start(self) -> None:
        for _ in range(self.n_workers):
            self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        index = self._spawn_serial
        self._spawn_serial += 1
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=self.worker_body,
            args=(index, task_q, self.result_q) + self.worker_args,
            daemon=True,
            name=f"campaign-worker-{index}",
        )
        proc.start()
        self._live("worker-spawn", worker=proc.name, index=index)
        return _Worker(index, proc, task_q)

    def shutdown(self) -> None:
        """Tear the pool down without leaking children or zombies.

        Deterministic reaping: sentinel + join with timeout, then
        terminate + join, then kill + join — every child is waited on,
        so none is left as a zombie for the test harness to trip over.
        """
        for worker in self._workers:
            if worker.alive():
                try:
                    worker.task_q.put(None)
                except (OSError, ValueError):  # pragma: no cover - teardown race
                    pass
        for worker in self._workers:
            worker.proc.join(timeout=_JOIN_S)
        for worker in self._workers:
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=_JOIN_S)
        for worker in self._workers:
            if worker.proc.is_alive():  # pragma: no cover - stuck in kernel
                worker.proc.kill()
                worker.proc.join(timeout=_JOIN_S)
        for worker in self._workers:
            worker.task_q.close()
            worker.task_q.cancel_join_thread()
        self.result_q.close()
        self.result_q.cancel_join_thread()

    def live_children(self) -> list:
        """Processes still alive (should be empty after :meth:`shutdown`)."""
        return [w.proc for w in self._workers if w.proc.is_alive()]

    # -- work intake --------------------------------------------------------

    def submit(self, unit, deps: dict) -> None:
        """Queue a ready unit for dispatch to the next idle worker."""
        self._pending.append((unit, deps))

    def _requeue(self, unit, deps) -> None:
        # Front of the queue: a re-enqueued unit keeps its place so the
        # commit order (and with it the journal bytes) is unaffected.
        self._pending.appendleft((unit, deps))

    @property
    def has_work(self) -> bool:
        return bool(self._pending) or any(not w.idle for w in self._workers)

    # -- event pump ---------------------------------------------------------

    def next_event(self) -> tuple:
        """Block for the next supervision event.

        Returns one of::

            ("result", unit_id, status, data)   # worker completed a unit
            ("quarantined", unit, exit_codes)   # unit crossed the poison bar
            ("degraded",)                       # pool gone, budget spent

        Transparent healing (respawns, grace drains, hang kills) happens
        inside this call and produces no event.
        """
        while True:
            self._drain_results()
            self._check_hangs()
            self._reap_dead()
            self._dispatch()
            if self._events:
                return self._events.popleft()
            if self._degraded():
                if not self._degraded_announced:
                    self._degraded_announced = True
                    self.stats.degraded = True
                    self.log(
                        "worker pool exhausted "
                        f"(respawn budget {self.max_respawns} spent); "
                        "draining remaining units serially in-process"
                    )
                    self._live("pool-degraded")
                return ("degraded",)
            try:
                item = self.result_q.get(timeout=_POLL_S)
            except queue.Empty:
                continue
            self._handle_item(item)

    def _degraded(self) -> bool:
        if not self.has_work:
            return False
        # Not ``alive()``: a worker that died after this pass's reap must
        # be reaped, and its crash recorded, before the pool degrades.
        if not all(w.reaped for w in self._workers):
            return False
        return self.stats.respawns >= self.max_respawns

    # -- internals ----------------------------------------------------------

    def _handle_item(self, item) -> None:
        if item[0] == HEARTBEAT:
            _, index, unit_id = item
            for worker in self._workers:
                if worker.index == index:
                    worker.last_beat = time.monotonic()
                    break
            self._live("worker-heartbeat", index=index, unit=unit_id)
            return
        unit_id, status, data = item
        self._live("unit-completed", unit=unit_id, status=status)
        for worker in self._workers:
            if worker.unit is not None and worker.unit.id == unit_id:
                worker.unit = None
                worker.deps = None
                worker.last_beat = None
                break
        # A completed unit wipes its crash history: only *consecutive*
        # crashes poison (a unit that survived a flaky worker is fine).
        self._crash_counts.pop(unit_id, None)
        self._crash_codes.pop(unit_id, None)
        self._events.append(("result", unit_id, status, data))

    def _drain_results(self, deadline_s: float = 0.0) -> None:
        end = time.monotonic() + deadline_s
        while True:
            try:
                item = self.result_q.get_nowait()
            except queue.Empty:
                if deadline_s and time.monotonic() < end:
                    time.sleep(0.01)
                    continue
                return
            self._handle_item(item)

    def _check_hangs(self) -> None:
        if self.hang_timeout_s is None:
            return
        now = time.monotonic()
        for worker in self._workers:
            if worker.idle or not worker.alive() or worker.last_beat is None:
                continue
            if now - worker.last_beat > self.hang_timeout_s:
                self.log(
                    f"worker {worker.proc.name} hung on unit "
                    f"{worker.unit.id!r} (> {self.hang_timeout_s:g}s); killing it"
                )
                self.stats.hang_kills += 1
                self._live(
                    "worker-hang-kill",
                    worker=worker.proc.name,
                    unit=worker.unit.id,
                )
                worker.proc.kill()
                worker.proc.join(timeout=_JOIN_S)

    def _reap_dead(self) -> None:
        for slot, worker in enumerate(self._workers):
            if worker.reaped or worker.proc.is_alive():
                continue
            worker.proc.join(timeout=_JOIN_S)  # no zombies
            worker.reaped = True
            exitcode = worker.proc.exitcode
            self.stats.worker_exits.append((worker.proc.name, exitcode))
            worker.task_q.close()
            worker.task_q.cancel_join_thread()
            if worker.unit is not None:
                # Its result may already be on the wire (killed after
                # flushing): grace-drain before treating it as a crash.
                self._drain_results(_REAP_DRAIN_S)
            self._live(
                "worker-exit",
                worker=worker.proc.name,
                exitcode=exitcode,
                unit=worker.unit.id if worker.unit is not None else None,
            )
            if worker.unit is not None:
                self._record_crash(worker)
            else:
                self.log(
                    f"worker {worker.proc.name} died idle "
                    f"(exit code {exitcode})"
                )
            if self.stats.respawns < self.max_respawns:
                self.stats.respawns += 1
                replacement = self._spawn()
                self.log(
                    f"respawned {replacement.proc.name} "
                    f"({self.stats.respawns}/{self.max_respawns} respawns used)"
                )
                self._live(
                    "worker-respawn",
                    worker=replacement.proc.name,
                    replaces=worker.proc.name,
                    respawns_used=self.stats.respawns,
                )
                self._workers[slot] = replacement

    def _record_crash(self, worker: _Worker) -> None:
        unit, deps = worker.unit, worker.deps
        worker.unit = None
        worker.deps = None
        worker.last_beat = None
        exitcode = worker.proc.exitcode
        self.stats.crashes += 1
        count = self._crash_counts.get(unit.id, 0) + 1
        self._crash_counts[unit.id] = count
        codes = self._crash_codes.setdefault(unit.id, [])
        codes.append(exitcode if exitcode is not None else -1)
        self.log(
            f"worker {worker.proc.name} died (exit code {exitcode}) "
            f"holding unit {unit.id!r} (crash {count}/{self.poison_crashes})"
        )
        if count >= self.poison_crashes:
            self.stats.quarantined[unit.id] = list(codes)
            self._crash_counts.pop(unit.id, None)
            self._crash_codes.pop(unit.id, None)
            self.log(
                f"quarantining unit {unit.id!r} after {count} consecutive "
                f"worker crashes (exit codes: {', '.join(map(str, codes))})"
            )
            self._live("quarantine", unit=unit.id, exit_codes=list(codes))
            self._events.append(("quarantined", unit, tuple(codes)))
        else:
            self._requeue(unit, deps)

    def _dispatch(self) -> None:
        for worker in self._workers:
            if not self._pending:
                return
            if not worker.alive() or not worker.idle:
                continue
            unit, deps = self._pending.popleft()
            attempt = self.stats.attempts.get(unit.id, 0) + 1
            self.stats.attempts[unit.id] = attempt
            worker.unit = unit
            worker.deps = deps
            worker.last_beat = time.monotonic()
            self._live(
                "unit-dispatched",
                unit=unit.id,
                index=worker.index,
                attempt=attempt,
            )
            worker.task_q.put((unit, deps, attempt))
