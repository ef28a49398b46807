"""Per-run telemetry context: one tracer + one metrics registry.

A :class:`Telemetry` instance is the handle every layer carries: the
performance engine, SYCL queues, the MPI layer, the fault injector and
the runners all record into the same session, so a single run produces
one coherent timeline, one metrics scrape and one manifest.

A session built with ``trace=False`` holds no tracer (``tracer is
None``): campaign units read only metrics, so they record no spans.
Layers record through :meth:`Telemetry.complete`, :meth:`Telemetry.span`,
:meth:`Telemetry.instant_fault` and the lane helpers, which are the only
code that checks for a missing tracer.

Lane naming conventions (see ``docs/telemetry.md``):

* ``run``            — the benchmark driver timeline (repetitions,
  retries, backoff gaps, run-level spans);
* ``rank N``         — one per MPI rank;
* ``gpu C.S``        — one per SYCL queue / device stack;
* ``faults``         — injector events that have no device target.

Sort keys keep that order stable in Perfetto regardless of which lane
recorded first: run < ranks (by rank) < queues (by card, stack) < the
rest.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

from .metrics import MetricsRegistry
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hw.ids import StackRef
    from ..sim.engine import PerfEngine
    from ..runtime.sycl import SyclQueue

__all__ = ["Telemetry", "RUN_LANE", "FAULT_LANE", "gpu_lane", "rank_lane"]

RUN_LANE = "run"
FAULT_LANE = "faults"


def gpu_lane(ref: "StackRef") -> str:
    """Lane name for a device stack's queue timeline."""
    return f"gpu {ref}"


def rank_lane(rank: int) -> str:
    """Lane name for one MPI rank's timeline."""
    return f"rank {rank}"


class Telemetry:
    """One run's telemetry session (tracer + metrics + queue cache).

    ``unit`` names the campaign unit this session is attributed to (if
    any): runners add a ``unit=<id>`` label to their resilience counters,
    which is what lets campaign resume drop and re-record one unit's
    metrics idempotently (see :meth:`MetricsRegistry.drop_label`).
    """

    def __init__(
        self,
        unit: str | None = None,
        *,
        profile: bool = False,
        trace: bool = True,
    ) -> None:
        self.unit = unit
        self.tracer = Tracer() if trace else None
        self.metrics = MetricsRegistry()
        self.profiler = None
        if profile:
            # Lazy import: repro.profiler renders reports over telemetry
            # aggregates, so the package root must not import it eagerly.
            from ..profiler.core import ApiProfiler

            self.profiler = ApiProfiler()
        self.run_lane()
        self._queues: dict[tuple[str, object], "SyclQueue"] = {}
        # Pre-declare the resilience counters so a clean scrape still
        # exposes them (at 0) and attaches HELP text.
        self.metrics.counter(
            "retry.count", help="repetitions retried after a recoverable fault"
        )
        self.metrics.counter(
            "quarantine.count", help="benchmarks quarantined after retry budget"
        )
        self.metrics.counter(
            "fault.count", help="injected faults observed on the timeline"
        )

    # ------------------------------------------------------------------
    # lane registration helpers (sort keys give deterministic ordering)
    # ------------------------------------------------------------------

    def _lane(self, name: str, sort_key: tuple[int, int, int]) -> str:
        if self.tracer is not None:
            self.tracer.lane(name, sort_key=sort_key)
        return name

    def run_lane(self) -> str:
        return self._lane(RUN_LANE, (0, 0, 0))

    def rank_lane(self, rank: int) -> str:
        return self._lane(rank_lane(rank), (1, rank, 0))

    def gpu_lane(self, ref: "StackRef") -> str:
        return self._lane(gpu_lane(ref), (2, ref.card, ref.stack))

    def fault_lane(self) -> str:
        return self._lane(FAULT_LANE, (8, 0, 0))

    def unit_labels(self) -> dict[str, str]:
        """Extra metric labels attributing samples to a campaign unit."""
        return {"unit": self.unit} if self.unit is not None else {}

    # ------------------------------------------------------------------
    # recording shortcuts
    # ------------------------------------------------------------------

    def complete(self, name: str, lane: str, duration_us: float, **kw) -> None:
        """One complete event on *lane* — see :meth:`Tracer.complete`."""
        if self.tracer is not None:
            self.tracer.complete(name, lane, duration_us, **kw)

    def span(self, name: str, lane: str = RUN_LANE, **attrs):
        """``with telemetry.span("gemm.run", attrs=...):`` — see Tracer."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, lane, **attrs)

    def instant_fault(self, name: str, lane: str | None = None, **args):
        """Mark an injected/observed fault on the timeline + metrics."""
        kind = str(args.get("kind", "fault"))
        self.metrics.inc("fault.count", kind=kind)
        if self.tracer is None:
            return None
        return self.tracer.instant(
            name, lane if lane is not None else self.fault_lane(), **args
        )

    # ------------------------------------------------------------------
    # SYCL queue cache (per-device timelines that persist across reps)
    # ------------------------------------------------------------------

    def sycl_queue(self, engine: "PerfEngine", ref: "StackRef") -> "SyclQueue":
        """A cached telemetry-wired queue on *ref*.

        Caching keeps each device lane's simulated clock advancing across
        repetitions, so the exported timeline is one continuous run.
        """
        key = (engine.system.name, ref)
        queue = self._queues.get(key)
        if queue is None:
            from ..errors import DeviceLostError
            from ..runtime.sycl import SyclRuntime

            runtime = SyclRuntime(engine)
            device = next(
                (d for d in runtime.devices() if d.ref == ref), None
            )
            if device is None:
                # The stack vanished between selection and queue creation
                # (injected loss): surface a retryable error.
                raise DeviceLostError(f"device {ref} is lost", stack=ref)
            queue = runtime.queue(device)
            self._queues[key] = queue
        return queue

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def faults_observed(self) -> int:
        if "fault.count" not in self.metrics:
            return 0
        return int(round(self.metrics.counter("fault.count").total()))

    def summary(self) -> str:
        """One line of machine-grepable evidence for health/exit reports."""
        return (
            f"telemetry: {self.tracer.n_spans()} span(s) on "
            f"{len(self.tracer.lanes())} lane(s), "
            f"{self.tracer.n_instants()} instant event(s), "
            f"{self.faults_observed()} fault(s) observed, "
            f"{len(self.metrics.names())} metric(s)"
        )
