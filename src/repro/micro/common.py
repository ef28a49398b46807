"""Shared microbenchmark machinery.

Every microbenchmark follows the paper's protocol (Section IV-A): run
several repetitions, report the best.  :class:`MicroBenchmark` wires that
protocol to the performance engine and exposes a uniform
``measure(engine, n_stacks)`` entry point used by the table regenerators.
Kernels run on SYCL queues whether or not a telemetry session watches:
a session observes a run and never selects its path.
"""

from __future__ import annotations

import abc

from ..core.resilient import ResilientRunner
from ..core.result import BenchmarkResult, DeviceScope, Measurement
from ..core.runner import RunPlan, Runner
from ..errors import DeviceLostError
from ..runtime.sycl import stack_queue
from ..sim.engine import PerfEngine
from ..sim.kernel import KernelSpec

__all__ = ["MicroBenchmark", "scope_for", "runner_for"]


def runner_for(
    engine: PerfEngine, plan: RunPlan | None, runner: Runner | None = None
) -> Runner:
    """The runner a benchmark should use on *engine*.

    An explicit *runner* wins; otherwise an engine with a fault injector
    attached gets the resilient protocol (retry/timeout/quarantine) and a
    clean engine keeps the plain repeat-and-take-best runner.  Either way
    the engine's telemetry session (if any) rides along.
    """
    if runner is not None:
        return runner
    if engine.faults is not None:
        return ResilientRunner(
            plan, injector=engine.faults, telemetry=engine.telemetry
        )
    return Runner(plan, telemetry=engine.telemetry)


def scope_for(engine: PerfEngine, n_stacks: int) -> DeviceScope:
    """Map a stack count to the paper's scope names for this system."""
    node = engine.node
    per_card = node.card.n_devices
    if n_stacks == 1:
        name = "One Stack" if per_card == 2 else "One GPU"
    elif n_stacks == per_card:
        name = "One PVC" if engine.device.arch == "pvc" else "One GPU"
    elif n_stacks == node.n_stacks:
        name = engine.system.full_node_scope_name()
    else:
        name = f"{n_stacks} Stacks"
    return DeviceScope(name, n_stacks)


class MicroBenchmark(abc.ABC):
    """Base class for the seven microbenchmarks of Table I."""

    #: Set by the @register decorator.
    benchmark_name: str = ""

    #: Set on the instance once its functional leg has passed.
    _functional_ok: bool = False

    @abc.abstractmethod
    def _measure_once(
        self, engine: PerfEngine, n_stacks: int, rep: int
    ) -> Measurement:
        """One repetition: returns elapsed simulated time + work done."""

    def _functional_check(self) -> None:
        """Run the reduced-size functional leg and verify its numerics.

        The default has no leg.  Overrides read only constructor fields
        and a fixed seed, so :meth:`measure` runs the check once per
        instance rather than once per repetition.
        """

    def measure(
        self,
        engine: PerfEngine,
        n_stacks: int = 1,
        plan: RunPlan | None = None,
        runner: Runner | None = None,
    ) -> BenchmarkResult:
        """Run the repeat-and-take-best protocol at the given scope.

        The instance's functional leg runs before its first timed
        repetition.  Only a passing check is remembered, so a diverging
        one raises on every call.
        """
        if not self._functional_ok:
            self._functional_check()
            self._functional_ok = True
        runner = runner_for(engine, plan, runner)
        return runner.run(
            benchmark=self.benchmark_name or type(self).__name__,
            system=engine.system.name,
            scope=scope_for(engine, n_stacks),
            measure=lambda rep: self._measure_once(engine, n_stacks, rep),
            params=self.params(),
        )

    def params(self) -> dict:
        """Benchmark-specific configuration recorded with results."""
        return {}

    # ------------------------------------------------------------------
    # kernel execution through SYCL queues
    # ------------------------------------------------------------------

    def _kernel_elapsed(
        self, engine: PerfEngine, spec: KernelSpec, n_stacks: int, rep: int
    ) -> float:
        """Kernel time for one repetition, timed as the paper's SYCL
        ports time it: one queue per selected stack, slowest event wins.

        The queues are picked once per scope and kept across
        repetitions, like real benchmark setup code, so a device lost
        mid-run surfaces as a retryable
        :class:`~repro.errors.DeviceLostError` on the next submit, and
        the retry picks queues on the survivors.
        """
        held = self.__dict__.setdefault("_held_queues", {})
        key = (engine.system.name, n_stacks)
        queues = held.get(key)
        if queues is None:
            queues = held[key] = [
                stack_queue(engine, ref)
                for ref in engine.select_stacks(n_stacks)
            ]
        try:
            events = []
            for queue in queues:
                queue.set_repetition(rep)
                events.append(queue.submit(spec, n_stacks=n_stacks))
        except DeviceLostError:
            held.pop(key, None)
            raise
        if getattr(engine.telemetry, "profiler", None) is not None:
            # Profiled runs read the timestamps the way the paper's SYCL
            # ports do — through the event's profiling info (each query
            # is itself an intercepted API call).
            durations = []
            for event in events:
                info = event.profiling_info()
                durations.append(
                    (info["command_end"] - info["command_start"]) * 1e-9
                )
            return max(durations)
        return max(event.duration_s for event in events)
