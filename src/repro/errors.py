"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with inconsistent values."""


class UnknownSystemError(ConfigurationError):
    """A system name did not match any registered system factory."""


class UnknownBenchmarkError(ConfigurationError):
    """A benchmark name did not match any registered benchmark."""


class CalibrationError(ConfigurationError):
    """A calibration table is missing an entry required by the engine."""


class TopologyError(ReproError):
    """The interconnect topology cannot satisfy a routing request."""


class AllocationError(ReproError):
    """A USM or host allocation request could not be satisfied."""


class AffinityError(ReproError):
    """An affinity mask referenced a device or stack that does not exist."""


class MPIError(ReproError):
    """Misuse of the simulated MPI layer (bad rank, tag mismatch, ...)."""


class BuildError(ReproError):
    """A (simulated) toolchain failed to build an application.

    The paper reports that the GAMESS RI-MP2 mini-app failed to build with
    the AMD Fortran compiler on the JLSE-MI250 node; the toolchain model in
    :mod:`repro.runtime.toolchain` reproduces that behaviour by raising this
    exception.
    """


class KernelSpecError(ReproError):
    """A kernel workload descriptor is malformed (negative flops, ...)."""


class NotMeasuredError(ReproError):
    """The paper did not measure this cell (rendered as '-' in its tables)."""


class ScenarioError(ConfigurationError):
    """A fault-injection scenario name or specification is invalid."""


class DeviceLostError(ReproError):
    """A logical device dropped off the bus (injected or detected).

    Production PVC nodes lose stacks mid-run; the fault-injection layer
    reproduces that by marking a stack dead in the fabric, after which any
    attempt to move data to or from it raises this error.
    """

    def __init__(self, message: str, stack: object | None = None) -> None:
        super().__init__(message)
        self.stack = stack


class TransientKernelError(ReproError):
    """A kernel launch failed transiently; a retry may succeed."""


class BenchmarkTimeoutError(ReproError):
    """A repetition or benchmark exceeded its (simulated) time budget."""


class CampaignError(ReproError):
    """A campaign cannot be orchestrated as requested (bad spec, bad
    directory, resume of a campaign that was never started, ...)."""


class WorkerCrashError(CampaignError):
    """A unit's code raised an unexpected exception inside a pool worker.

    Only a non-:class:`ReproError` exception raises this — the same bug
    would be fatal in-process, so re-running the unit could not heal it.
    A dead worker does *not* raise this: the scheduler
    (:mod:`repro.campaign.scheduler`) runs the units the broken pool
    still held through its in-process step instead.
    """


class CampaignCorruptError(CampaignError):
    """A journal record or result-store entry failed its integrity check.

    Raised (or reported as exit code 4) when a checksum or digest does
    not match — the signature of a torn write, manual tampering, or disk
    corruption rather than an ordinary interrupted run.
    """


class MeasurementError(ReproError):
    """A measurement failed mid-plan.

    Carries the benchmark identity and the partial sample set collected
    before the failure so callers can salvage a degraded result instead of
    losing everything (the resilient runner does exactly that).
    """

    def __init__(
        self,
        message: str,
        *,
        benchmark: str = "?",
        system: str = "?",
        repetition: int = -1,
        partial: object | None = None,
    ) -> None:
        super().__init__(message)
        self.benchmark = benchmark
        self.system = system
        self.repetition = repetition
        self.partial = partial
