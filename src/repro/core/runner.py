"""The repeat-and-take-best measurement protocol.

Section IV-A of the paper: *"Each microbenchmark is executed multiple times
and the best performance number is presented.  This avoids run-to-run
variations and any other intermittent artifacts."*

:class:`Runner` drives a callable that returns one :class:`Measurement`
per invocation, applying deterministic run-to-run noise (injected by the
performance engine's noise model) and collecting a :class:`SampleSet`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from ..errors import BuildError, MeasurementError, NotMeasuredError, ReproError
from .result import BenchmarkResult, DeviceScope, Measurement, SampleSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry.session import Telemetry

__all__ = ["Runner", "RunPlan"]


@dataclass(frozen=True, slots=True)
class RunPlan:
    """How many repetitions to run, with an optional warm-up discard.

    The paper's scripts run each benchmark several times; warm-up
    repetitions exercise first-touch/page-fault effects (modelled by the
    engine's noise layer) and are discarded.
    """

    repetitions: int = 5
    warmup: int = 1

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        if self.warmup < 0:
            raise ValueError("warmup cannot be negative")


class Runner:
    """Executes a measurement callable according to a :class:`RunPlan`."""

    def __init__(
        self,
        plan: RunPlan | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.plan = plan or RunPlan()
        self.telemetry = telemetry

    def _run_span(self, benchmark: str, system: str, scope: DeviceScope):
        """A ``<benchmark>.run`` span on the run lane (no-op untelemetered)."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.span(
            f"{benchmark}.run", system=system, scope=str(scope)
        )

    def _record_rep(
        self, benchmark: str, rep: int, sample: Measurement, warmup: bool
    ) -> None:
        """One complete event per repetition on the run lane."""
        tel = self.telemetry
        if tel is None:
            return
        tel.complete(
            f"{benchmark} rep {rep}",
            tel.run_lane(),
            duration_us=sample.elapsed_s * 1e6,
            category="rep",
            warmup=warmup,
        )
        tel.metrics.observe(
            "rep.time_us",
            sample.elapsed_s * 1e6,
            benchmark=benchmark,
            **tel.unit_labels(),
        )

    def run(
        self,
        benchmark: str,
        system: str,
        scope: DeviceScope,
        measure: Callable[[int], Measurement],
        params: Mapping[str, object] | None = None,
    ) -> BenchmarkResult:
        """Run *measure* ``warmup + repetitions`` times; keep the last
        ``repetitions`` samples.

        *measure* receives the repetition index (including warm-ups) so the
        engine's noise model can vary deterministically per repetition.
        """
        samples = SampleSet()
        total = self.plan.warmup + self.plan.repetitions
        with self._run_span(benchmark, system, scope):
            for rep in range(total):
                try:
                    sample = measure(rep)
                except (NotMeasuredError, BuildError, MeasurementError):
                    # Already carries context (or is the '-' sentinel): pass
                    # through so table code can keep its existing handling.
                    raise
                except ReproError as exc:
                    raise MeasurementError(
                        f"repetition {rep} of {benchmark} on {system} "
                        f"failed: {exc}",
                        benchmark=benchmark,
                        system=system,
                        repetition=rep,
                        partial=samples,
                    ) from exc
                self._record_rep(
                    benchmark, rep, sample, rep < self.plan.warmup
                )
                if rep >= self.plan.warmup:
                    samples.add(sample)
        return BenchmarkResult(
            benchmark=benchmark,
            system=system,
            scope=scope,
            samples=samples,
            params=dict(params or {}),
        )
