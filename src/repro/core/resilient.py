"""Resilient benchmark execution: retry, timeout, quarantine, degradation.

:class:`ResilientRunner` wraps the repeat-and-take-best protocol of
:class:`~repro.core.runner.Runner` with the policies production benchmark
harnesses need on flaky hardware:

* **bounded retry with exponential backoff** for transient failures
  (kernel launch failures, USM allocation failures, MPI faults, lost
  devices whose work can land on a survivor);
* **per-repetition timeout** and a **cumulative deadline** on simulated
  time, so a throttled or hung repetition cannot stall the suite;
* **outlier quarantine** — repetitions far slower than the fastest are
  excluded from the sample set (a DVFS excursion must not poison the
  median) but recorded in provenance;
* **per-benchmark isolation** — a benchmark that still cannot produce a
  sample raises :class:`~repro.errors.MeasurementError`; table drivers
  catch it and mark the cell FAILED instead of aborting the suite.

All timing is *simulated* time, so the runner is deterministic: the same
fault plan and seed reproduce the same retries, quarantines and statuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from ..errors import (
    AllocationError,
    BenchmarkTimeoutError,
    DeviceLostError,
    MeasurementError,
    MPIError,
    ReproError,
    TransientKernelError,
)
from .result import (
    BenchmarkResult,
    CellStatus,
    DeviceScope,
    Measurement,
    Provenance,
    SampleSet,
)
from .runner import RunPlan, Runner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injectors import FaultInjector
    from ..telemetry.session import Telemetry

__all__ = ["ResiliencePolicy", "ResilientRunner"]

#: Errors worth retrying: the fault either clears on its own (transient
#: kernel/allocation/MPI faults advance their stream counter on retry) or
#: the retried repetition can select surviving hardware (device loss).
_RETRYABLE = (TransientKernelError, AllocationError, MPIError, DeviceLostError)


@dataclass(frozen=True, slots=True)
class ResiliencePolicy:
    """Knobs for the resilient execution protocol.

    ``rep_timeout_s``/``deadline_s`` bound *simulated* elapsed time; the
    defaults are generous because microbenchmark repetitions complete in
    simulated milliseconds-to-seconds.
    """

    max_retries: int = 2
    backoff_s: float = 1e-3
    rep_timeout_s: float | None = None
    deadline_s: float | None = None
    quarantine_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s cannot be negative")
        if self.quarantine_ratio <= 1.0:
            raise ValueError("quarantine_ratio must exceed 1.0")

    def backoff_for(self, attempt: int) -> float:
        """Simulated wait before retry *attempt* (1-based), doubling."""
        return self.backoff_s * (2.0 ** (attempt - 1))


class ResilientRunner(Runner):
    """A :class:`Runner` that survives injected (and real) faults."""

    def __init__(
        self,
        plan: RunPlan | None = None,
        policy: ResiliencePolicy | None = None,
        injector: "FaultInjector | None" = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        super().__init__(plan, telemetry)
        self.policy = policy or ResiliencePolicy()
        self.injector = injector

    # ------------------------------------------------------------------

    def run(
        self,
        benchmark: str,
        system: str,
        scope: DeviceScope,
        measure: Callable[[int], Measurement],
        params: Mapping[str, object] | None = None,
    ) -> BenchmarkResult:
        policy = self.policy
        incidents: dict[str, None] = {}
        retries = 0
        timeouts = 0
        elapsed_total = 0.0
        kept: list[tuple[int, Measurement]] = []
        detail_parts: list[str] = []

        def record_incidents() -> None:
            if self.injector is not None:
                for msg in self.injector.drain():
                    incidents.setdefault(msg, None)

        tel = self.telemetry
        total = self.plan.warmup + self.plan.repetitions
        last_error: ReproError | None = None
        with self._run_span(benchmark, system, scope):
            for rep in range(total):
                if self.injector is not None:
                    self.injector.tick()
                if (
                    policy.deadline_s is not None
                    and elapsed_total >= policy.deadline_s
                ):
                    detail_parts.append(
                        f"deadline of {policy.deadline_s:g}s reached after "
                        f"rep {rep - 1}; remaining repetitions skipped"
                    )
                    break
                sample: Measurement | None = None
                for attempt in range(policy.max_retries + 1):
                    try:
                        sample = measure(rep)
                        break
                    except _RETRYABLE as exc:
                        last_error = exc
                        record_incidents()
                        if attempt >= policy.max_retries:
                            incidents.setdefault(
                                f"rep {rep} gave up after "
                                f"{policy.max_retries} retries: {exc}",
                                None,
                            )
                            break
                        retries += 1
                        backoff = policy.backoff_for(attempt + 1)
                        elapsed_total += backoff
                        if tel is not None:
                            tel.metrics.inc(
                                "retry.count",
                                benchmark=benchmark,
                                **tel.unit_labels(),
                            )
                            tel.complete(
                                f"retry backoff (rep {rep})",
                                tel.run_lane(),
                                duration_us=backoff * 1e6,
                                category="retry",
                                attempt=attempt + 1,
                                error=type(exc).__name__,
                            )
                record_incidents()
                if sample is None:
                    continue
                elapsed_total += sample.elapsed_s
                self._record_rep(
                    benchmark, rep, sample, rep < self.plan.warmup
                )
                if (
                    policy.rep_timeout_s is not None
                    and sample.elapsed_s > policy.rep_timeout_s
                ):
                    timeouts += 1
                    if tel is not None:
                        tel.metrics.inc(
                            "timeout.count",
                            benchmark=benchmark,
                            **tel.unit_labels(),
                        )
                    incidents.setdefault(
                        f"rep {rep} exceeded the {policy.rep_timeout_s:g}s "
                        f"repetition timeout ({sample.elapsed_s:.3g}s)",
                        None,
                    )
                    continue
                if rep >= self.plan.warmup:
                    kept.append((rep, sample))

        quarantined = 0
        if kept and policy.quarantine_ratio:
            fastest = min(m.elapsed_s for _, m in kept)
            threshold = fastest * policy.quarantine_ratio
            survivors = [(rep, m) for rep, m in kept if m.elapsed_s <= threshold]
            quarantined = len(kept) - len(survivors)
            if quarantined:
                if tel is not None:
                    tel.metrics.inc(
                        "quarantine.count",
                        quarantined,
                        benchmark=benchmark,
                        **tel.unit_labels(),
                    )
                incidents.setdefault(
                    f"{quarantined} outlier repetition(s) quarantined "
                    f"(> {policy.quarantine_ratio:g}x the fastest)",
                    None,
                )
                kept = survivors

        if not kept:
            if timeouts and last_error is None:
                raise BenchmarkTimeoutError(
                    f"{benchmark} on {system}: every repetition exceeded "
                    f"the {policy.rep_timeout_s:g}s repetition timeout"
                )
            raise MeasurementError(
                f"{benchmark} on {system} produced no usable samples"
                + (f" (last error: {last_error})" if last_error else ""),
                benchmark=benchmark,
                system=system,
                repetition=total - 1,
                partial=SampleSet(),
            )

        samples = SampleSet(m for _, m in kept)
        degraded = bool(incidents) or retries or quarantined or timeouts
        provenance = Provenance(
            status=CellStatus.DEGRADED if degraded else CellStatus.OK,
            faults=tuple(incidents),
            retries=retries,
            quarantined=quarantined,
            timeouts=timeouts,
            detail="; ".join(detail_parts),
        )
        return BenchmarkResult(
            benchmark=benchmark,
            system=system,
            scope=scope,
            samples=samples,
            params=dict(params or {}),
            provenance=provenance,
        )
