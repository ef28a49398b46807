"""Process-level fault plans: killing workers and starving writes.

The injectors (:mod:`.injectors`) perturb the *simulated hardware*
inside a run; the plans here attack the campaign machinery itself at
the operating-system level, with the failure modes "Scaling MPI
Applications on Aurora" reports as common at scale: a worker process
SIGKILLed mid-run (OOM killer, node health daemon) and the shared
filesystem transiently refusing writes.

A :class:`WorkerFaultPlan` is — like every other plan in this package —
a pure function of ``(scenario, seed)``: the same pair always kills the
worker that picks up the same unit, which is what lets the chaos
property suite assert that a campaign's artifacts are byte-identical to
a clean serial run at *every* kill point.

The plan is consulted in two places:

* a campaign pool worker (:mod:`repro.campaign.scheduler`) SIGKILLs
  itself when it picks up :attr:`WorkerFaultPlan.kill`; the broken pool
  sends the scheduler to its in-process step, where the plan never
  fires, so the unit then completes;
* the orchestrator installs :meth:`WorkerFaultPlan.io_gate` into
  :func:`repro.ioutils.set_io_fault_gate`, failing scheduled journal and
  store write ops with ``ENOSPC`` until the bounded retry absorbs them.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ScenarioError
from .plan import SeededDraw

__all__ = [
    "WORKER_SCENARIO_NAMES",
    "WorkerFaultPlan",
    "build_worker_plan",
]

#: Orchestrator ``--inject`` scenarios built by :func:`build_worker_plan`.
WORKER_SCENARIO_NAMES = ("worker-kill", "io-enospc")

#: Transient-failure depth for ``io-enospc``: each scheduled op fails
#: this many consecutive attempts, comfortably inside the
#: :data:`repro.ioutils.IO_RETRY_ATTEMPTS` budget so the retry absorbs it.
_ENOSPC_FAILURES = 2

#: Write ops eligible for the ``io-enospc`` schedule (the journal and
#: store land well within this window for every spec).
_ENOSPC_OP_RANGE = (1, 12)


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A deterministic schedule of process-level campaign faults.

    ``kill`` names the unit whose pool worker dies (SIGKILL to itself)
    before executing it.  ``enospc`` maps 1-based write-op indices
    (journal appends + store/artifact writes, in commit order) to the
    number of consecutive attempts that fail with ``ENOSPC``.
    """

    scenario: str
    seed: int
    kill: str | None = None
    enospc: Mapping[int, int] = field(default_factory=dict)

    # -- orchestrator-side IO gate ------------------------------------------

    def io_gate(self):
        """A stateful gate for :func:`repro.ioutils.set_io_fault_gate`.

        Counts write ops (first attempts only, so retries re-test the
        same op index) and raises ``ENOSPC`` while an op's scheduled
        failure budget lasts.
        """
        remaining = {int(op): int(n) for op, n in self.enospc.items()}
        counter = {"op": 0}

        def gate(op: str, path: str, attempt: int) -> None:
            if attempt == 1:
                counter["op"] += 1
            index = counter["op"]
            if remaining.get(index, 0) > 0:
                remaining[index] -= 1
                raise OSError(
                    errno.ENOSPC,
                    f"injected ENOSPC ({op} op {index}, attempt {attempt})",
                    os.fspath(path),
                )

        return gate

    # -- reporting ----------------------------------------------------------

    def describe(self) -> str:
        head = f"worker scenario {self.scenario!r} seed {self.seed}"
        parts = []
        if self.kill is not None:
            parts.append(f"SIGKILL the worker that picks up {self.kill}")
        for op, n in sorted(self.enospc.items()):
            parts.append(f"ENOSPC write op {op} x{n}")
        if not parts:
            return f"{head}: no events"
        return f"{head}: " + "; ".join(parts)


def build_worker_plan(
    scenario: str,
    seed: int,
    unit_ids: "list[str] | tuple[str, ...]",
) -> WorkerFaultPlan:
    """Build the process-fault schedule for one campaign.

    ``unit_ids`` is the spec's execution order; the targeted unit is a
    seeded draw over it, so the schedule is a pure function of
    ``(scenario, seed, spec)``.
    """
    key = scenario.strip().lower()
    if key not in WORKER_SCENARIO_NAMES:
        raise ScenarioError(
            f"unknown worker fault scenario {scenario!r}; "
            f"known: {', '.join(WORKER_SCENARIO_NAMES)}"
        )
    if not unit_ids and key != "io-enospc":
        raise ScenarioError(f"scenario {key!r} needs at least one unit")
    draw = SeededDraw(seed, f"worker:{key}")
    if key == "worker-kill":
        unit = draw.choice(tuple(unit_ids), "unit")
        return WorkerFaultPlan(key, seed, kill=unit)
    ops = draw.distinct_ints(2, *_ENOSPC_OP_RANGE, "op")
    return WorkerFaultPlan(
        key, seed, enospc={op: _ENOSPC_FAILURES for op in ops}
    )
