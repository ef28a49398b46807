"""Per-run fault-injection context shared by the CLI and table drivers.

:class:`ExecutionContext` owns one :class:`FaultInjector`-equipped
:class:`~repro.sim.engine.PerfEngine` per system, accumulates the worst
cell status seen anywhere in the run, and turns it into the CLI's exit
code contract: 0 clean, 1 degraded, 2 failed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.result import CellStatus
from ..hw.systems import System, get_system
from ..sim.engine import PerfEngine
from ..sim.memo import MemoCache
from ..errors import ScenarioError
from .injectors import FaultInjector
from .scenarios import SCENARIO_NAMES, build_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry.session import Telemetry

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """One CLI invocation's fault-injection state.

    ``scenario=None`` is the clean mode: engines carry no injector and
    the exit code stays 0 unless something fails outright.

    Pass a :class:`~repro.telemetry.Telemetry` session to thread span
    tracing and metrics through every engine, queue, runner and injector
    this context builds (the ``trace``/``metrics``/``--manifest`` CLI
    paths do).  Without one, runs behave exactly as before — the
    telemetry hooks are all no-ops.
    """

    def __init__(
        self,
        scenario: str | None = None,
        seed: int = 0,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if scenario is not None and scenario not in SCENARIO_NAMES:
            raise ScenarioError(
                f"unknown fault scenario {scenario!r}; choose from: "
                + ", ".join(SCENARIO_NAMES)
            )
        self.scenario = scenario
        self.seed = seed
        self.telemetry = telemetry
        self.trace_files: list[str] = []
        self._engines: dict[str, PerfEngine] = {}
        self._injectors: dict[str, FaultInjector] = {}
        self._worst = CellStatus.OK
        # One model-evaluation memo cache per context, shared by every
        # engine the context builds (see repro.sim.memo).
        self.memo = MemoCache()

    @property
    def active(self) -> bool:
        return self.scenario is not None

    # ------------------------------------------------------------------
    # engines
    # ------------------------------------------------------------------

    def engine(self, sys_name: str) -> PerfEngine:
        """The (cached) engine for a system, injector attached if active.

        Each context builds its own fresh :class:`System`, so fabric
        health mutations never leak between runs or into other contexts.
        """
        if sys_name not in self._engines:
            system: System = get_system(sys_name)
            injector = None
            if self.active:
                plan = build_plan(self.scenario, self.seed, system.node)
                injector = FaultInjector(
                    plan, system.node, telemetry=self.telemetry
                )
                self._injectors[sys_name] = injector
            self._engines[sys_name] = PerfEngine(
                system,
                faults=injector,
                telemetry=self.telemetry,
                memo=self.memo,
            )
        return self._engines[sys_name]

    def injector(self, sys_name: str) -> FaultInjector | None:
        self.engine(sys_name)
        return self._injectors.get(sys_name)

    def engines_built(self) -> list[str]:
        """Names of the systems this run touched (for the manifest)."""
        return sorted(self._engines)

    def injectors_built(self) -> list[tuple[str, FaultInjector]]:
        return sorted(self._injectors.items())

    # ------------------------------------------------------------------
    # status accounting
    # ------------------------------------------------------------------

    def record(self, status: CellStatus) -> None:
        if status > self._worst:
            self._worst = status

    @property
    def worst_status(self) -> CellStatus:
        return self._worst

    def exit_code(self) -> int:
        """0 clean, 1 degraded (faults absorbed), 2 failed cells."""
        return int(self._worst)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        if not self.active:
            return "fault injection: off"
        lines = [
            f"fault injection: scenario {self.scenario!r}, seed {self.seed}"
        ]
        for sys_name, injector in sorted(self._injectors.items()):
            lines.append(f"  {sys_name}: {injector.plan.describe()}")
        return "\n".join(lines)

    def incident_log(self) -> list[str]:
        """Every fault applied so far, across all systems, in order."""
        out: list[str] = []
        for sys_name, injector in sorted(self._injectors.items()):
            out.extend(f"{sys_name}: {msg}" for msg in injector.history)
        return out

    def telemetry_summary(self) -> str:
        """One-line span/fault evidence (the exit-code contract's rider)."""
        if self.telemetry is None:
            return "telemetry: off (use trace/metrics or --manifest)"
        return self.telemetry.summary()

    def manifest(self, command: str) -> dict:
        """The run manifest document binding config, metrics and traces."""
        from ..telemetry.manifest import build_manifest

        return build_manifest(command, self, trace_files=self.trace_files)
