"""The performance engine: hardware model + calibration -> simulated time.

:class:`PerfEngine` is the single place where architectural derivations
(:mod:`repro.hw`), calibrated efficiencies (:mod:`repro.sim.calibration`),
the roofline (:mod:`repro.sim.roofline`), the transfer model and the noise
model meet.  Microbenchmarks, the runtime layers, mini-apps and the
analysis code all consume this one API.

Ablation switches (each maps to a discussion point in the paper):

* ``enable_tdp=False`` — clocks never downclock; kills the FP32:FP64=1.3x
  observation of Section IV-B.2.
* ``enable_contention=False`` — no host-side aggregate cap; kills the
  "PCIe scales poorly for the full node" result of Section IV-B.4.
* ``enable_planes=False`` — remote stacks become directly connected;
  removes the extra-hop routing of Section IV-A.4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from ..dtypes import ENGINE_MATRIX, Precision
from ..errors import DeviceLostError
from ..hw.frequency import WorkloadKind
from ..hw.ids import StackRef
from ..hw.systems import System
from .calibration import SystemCalibration, get_calibration
from .kernel import KernelSpec
from .memo import MemoCache, content_digest
from .noise import NoiseModel, QUIET
from .roofline import RooflinePoint, kernel_time
from .transfer import TransferModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injectors import FaultInjector
    from ..telemetry.metrics import MetricsRegistry
    from ..telemetry.session import Telemetry

__all__ = ["CacheEvent", "KernelEvent", "PerfEngine"]

#: Numeric encoding of the roofline regime for the gauge exporter.
_REGIME_CODE = {"latency": 0.0, "memory": 1.0, "compute": 2.0}

#: Sim-cache outcome -> the counter it folds into.
_CACHE_METRIC = {
    "hit": "simcache.hit",
    "miss": "simcache.miss",
    "bypass": "simcache.bypass",
}


class CacheEvent(NamedTuple):
    """One sim-cache lookup made outside :meth:`PerfEngine.kernel_time_s`."""

    cache: str

    def fold(self, metrics: "MetricsRegistry") -> None:
        metrics.apply_inc(_CACHE_METRIC[self.cache], 1.0)


class KernelEvent(NamedTuple):
    """One simulated kernel execution, as telemetry sees it.

    :meth:`PerfEngine.kernel_time_s` records one per call; the metrics
    registry folds it into the kernel and sim-cache metrics when they
    are read, and the profiler builds its kernel sample from it.
    """

    spec: KernelSpec
    system: str
    n_stacks: int
    point: RooflinePoint
    time_s: float
    rep: int | None
    cache: str

    def fold(self, metrics: "MetricsRegistry") -> None:
        spec, point = self.spec, self.point
        bound = point.bound
        kernel = (("kernel", spec.name),)
        metrics.apply_inc(_CACHE_METRIC[self.cache], 1.0)
        metrics.apply_inc("kernel.count", 1.0, (("bound", bound),) + kernel)
        if spec.flops:
            metrics.apply_inc("kernel.flops", spec.flops)
        total_bytes = spec.total_bytes
        if total_bytes:
            metrics.apply_inc("kernel.bytes", total_bytes)
        metrics.apply_observe("kernel.time_us", self.time_s * 1e6, kernel)
        metrics.apply_set("roofline.regime", _REGIME_CODE[bound], kernel)
        # Fraction of the roofline window the compute pipes are busy;
        # 1.0 means fully compute-bound, ~0 means stalled on memory.
        total = point.total_s
        metrics.apply_set(
            "kernel.occupancy", point.compute_s / total if total else 0.0, kernel
        )


class PerfEngine:
    """Simulated performance of one system."""

    def __init__(
        self,
        system: System,
        *,
        noise: NoiseModel | None = None,
        enable_tdp: bool = True,
        enable_contention: bool = True,
        enable_planes: bool = True,
        faults: "FaultInjector | None" = None,
        telemetry: "Telemetry | None" = None,
        memo: MemoCache | None = None,
    ) -> None:
        self.system = system
        self.node = system.node
        self.device = system.device
        self.cal: SystemCalibration = get_calibration(system.calibration_key)
        self.memo = memo if memo is not None else MemoCache()
        self._identity: str | None = None
        self.noise = noise if noise is not None else NoiseModel(
            amplitude=self.cal.noise_amplitude
        )
        self.enable_tdp = enable_tdp
        self.faults = faults
        self.telemetry = telemetry
        #: SYCL queues opened on this engine, one per stack; owned by
        #: :func:`repro.runtime.sycl.stack_queue`.
        self.queues: dict = {}
        self.transfers = TransferModel(
            self.node,
            self.cal,
            enable_planes=enable_planes,
            enable_contention=enable_contention,
        )
        if telemetry is not None:
            self.node.fabric.set_observer(self._on_route)

    def _on_route(self, src: object, dst: object, route) -> None:
        """Fabric routing observer: one counter sample per decision."""
        if self.telemetry is None:  # pragma: no cover - observer cleared
            return
        degraded = any(
            self.node.fabric.link_health(u, v) < 1.0
            for u, v, _ in route.hops
        )
        self.telemetry.metrics.inc(
            "route.count",
            hops=route.n_hops,
            degraded=str(degraded).lower(),
        )

    # ------------------------------------------------------------------
    # clocks and peaks
    # ------------------------------------------------------------------

    def sustained_hz(
        self, precision: Precision | None, kind: WorkloadKind
    ) -> float:
        ratio = 1.0 if self.faults is None else self.faults.clock_ratio()
        if not self.enable_tdp:
            return self.device.frequency.max_hz * ratio
        return self.device.frequency.sustained_hz(precision, kind) * ratio

    def sustained_peak(
        self, precision: Precision, kind: WorkloadKind = WorkloadKind.FMA_CHAIN
    ) -> float:
        """Theoretical peak at the sustained (TDP-aware) clock, one stack."""
        try:
            per_clock = self.device.flops_per_clock[precision]
        except KeyError:
            raise ValueError(
                f"{self.device.name} has no {precision} pipeline"
            ) from None
        return per_clock * self.sustained_hz(precision, kind)

    # ------------------------------------------------------------------
    # achieved rates (fold in calibration + multi-stack scaling)
    # ------------------------------------------------------------------

    def _scaled(self, family: str, single: float, n_stacks: int) -> float:
        self._check_stacks(n_stacks)
        n_stacks = self._effective_stacks(n_stacks)
        return self.cal.scaling_curve(family).aggregate(single, n_stacks)

    def _check_stacks(self, n: int) -> None:
        if not (1 <= n <= self.node.n_stacks):
            raise ValueError(
                f"{self.system.name} has 1..{self.node.n_stacks} stacks, got {n}"
            )

    def _effective_stacks(self, n: int) -> int:
        """Clip a requested scope to the devices still alive."""
        if self.faults is None:
            return n
        alive = len(self.faults.alive(self.node.stacks()))
        if alive == 0:
            raise DeviceLostError(f"{self.system.name}: all devices lost")
        if n > alive:
            self.faults.note(
                f"scope clipped from {n} to {alive} stack(s) after device loss"
            )
            return alive
        return n

    def alive_stacks(self) -> list[StackRef]:
        """Stacks not lost to injected faults (all stacks when clean)."""
        refs = list(self.node.stacks())
        return refs if self.faults is None else self.faults.alive(refs)

    def select_stacks(self, n: int) -> list[StackRef]:
        """The first *n* alive stacks (or all alive, if fewer survive)."""
        alive = self.alive_stacks()
        if not alive:
            raise DeviceLostError(f"{self.system.name}: all devices lost")
        if len(alive) < n and self.faults is not None:
            self.faults.note(
                f"requested {n} stack(s) but only {len(alive)} alive"
            )
        return alive[:n]

    def fma_rate(self, precision: Precision, n_stacks: int = 1) -> float:
        """Achieved FMA-chain flop rate (the paper's Peak Flops rows)."""
        eff = self.cal.fma_efficiency.get(precision, 1.0)
        single = self.sustained_peak(precision, WorkloadKind.FMA_CHAIN) * eff
        return self._scaled(f"flops-{precision.label}", single, n_stacks)

    def stream_bw(self, n_stacks: int = 1) -> float:
        """Achieved triad bandwidth (Device Memory Bandwidth rows)."""
        single = self.device.hbm_peak_bw * self.cal.stream_efficiency
        if self.faults is not None:
            # HBM runs off the same clock domain: a DVFS excursion drops
            # streaming rate along with the compute clocks.
            single *= self.faults.clock_ratio()
        return self._scaled("stream", single, n_stacks)

    def gemm_rate(self, precision: Precision, n_stacks: int = 1) -> float:
        """Achieved GEMM rate for a precision (Table II GEMM rows)."""
        eff = self.cal.require_gemm(precision)
        mult = self.cal.gemm_peak_multiplier.get(precision, 1.0)
        single = (
            self.sustained_peak(precision, WorkloadKind.GEMM) * mult * eff
        )
        return self._scaled("gemm", single, n_stacks)

    def fft_rate(self, ndim: int, n_stacks: int = 1) -> float:
        """Achieved single-precision C2C FFT flop rate (Table II FFT rows)."""
        try:
            frac = self.cal.fft_fraction[ndim]
        except KeyError:
            raise ValueError(f"no FFT calibration for {ndim}D") from None
        single = (
            self.sustained_peak(Precision.FP32, WorkloadKind.STREAM) * frac
        )
        return self._scaled(f"fft{ndim}d", single, n_stacks)

    # ------------------------------------------------------------------
    # latency
    # ------------------------------------------------------------------

    def latency_cycles(self, working_set_bytes: int) -> float:
        """Pointer-chase latency in cycles (the Fig. 1 y-axis)."""
        return self.device.memory.latency_cycles(working_set_bytes)

    def latency_seconds(self, working_set_bytes: int) -> float:
        clock = self.sustained_hz(None, WorkloadKind.STREAM)
        return self.latency_cycles(working_set_bytes) / clock

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------

    def _compute_rate_for(self, spec: KernelSpec, n_stacks: int) -> float:
        precision = spec.precision or Precision.FP32
        if spec.kind is WorkloadKind.GEMM or precision.engine == ENGINE_MATRIX:
            return self.gemm_rate(precision, n_stacks)
        return self.fma_rate(precision, n_stacks)

    def identity_digest(self) -> str:
        """Content digest of everything the roofline depends on: the
        system, the calibration table, and the ablation switches.
        Computed once per engine; the memoization key component that
        lets equal-content engines share cache entries safely."""
        if self._identity is None:
            self._identity = content_digest(
                {
                    "system": self.system.name,
                    "calibration": self.cal.digest(),
                    "enable_tdp": self.enable_tdp,
                }
            )
        return self._identity

    def _roofline_eval(self, spec: KernelSpec, n_stacks: int) -> RooflinePoint:
        rate = self._compute_rate_for(spec, n_stacks)
        bw = self.stream_bw(n_stacks)
        chase = (
            self.latency_seconds(spec.working_set_bytes)
            if spec.serial_chases
            else 0.0
        )
        return kernel_time(spec, rate, bw, chase)

    def roofline(
        self, spec: KernelSpec, n_stacks: int = 1, *, with_cache: bool = False
    ) -> RooflinePoint | tuple[RooflinePoint, str]:
        """Roofline decomposition of *spec* on *n_stacks* stacks.

        Clean (fault-free) evaluations are memoized by content —
        ``(engine identity, kernel signature, n_stacks)`` — because the
        decomposition is a pure function of those three.  A
        fault-injected engine bypasses the cache: injector state (clock
        excursions, lost stacks, notes emitted while clipping scope)
        legitimately changes the answer between calls.

        The cache outcome (``hit``, ``miss`` or ``bypass``) is recorded
        as a :class:`CacheEvent`.  With ``with_cache=True`` nothing is
        recorded and ``(point, outcome)`` is returned instead, so that
        :meth:`kernel_time_s` carries the outcome on its kernel event.
        """
        if self.faults is not None:
            cache = "bypass"
            try:
                point = self._roofline_eval(spec, n_stacks)
            except Exception:
                # The failed evaluation still bypassed the cache.
                self._record(CacheEvent(cache))
                raise
        else:
            key = (self.identity_digest(), spec.signature(), n_stacks)
            point = self.memo.get(key)
            cache = "miss" if point is None else "hit"
            if point is None:
                point = self._roofline_eval(spec, n_stacks)
                self.memo.put(key, point)
        if with_cache:
            return point, cache
        self._record(CacheEvent(cache))
        return point

    def _record(self, event) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.record(event)

    def kernel_time_s(
        self,
        spec: KernelSpec,
        n_stacks: int = 1,
        *,
        rep: int | None = None,
    ) -> float:
        """Simulated execution time; pass *rep* to include run-to-run noise.

        With telemetry on, the call records one :class:`KernelEvent`; the
        kernel metrics are folded from it when they are read.
        """
        if self.faults is not None:
            self.faults.on_kernel(spec.name)
        point, cache = self.roofline(spec, n_stacks, with_cache=True)
        t = point.total_s
        if rep is not None:
            t = self.noise.apply(t, f"{self.system.name}:{spec.name}", rep)
        telemetry = self.telemetry
        if telemetry is not None:
            event = KernelEvent(
                spec, self.system.name, n_stacks, point, t, rep, cache
            )
            telemetry.metrics.record(event)
            if telemetry.profiler is not None:
                telemetry.profiler.record_kernel(event)
        return t

    # ------------------------------------------------------------------
    # batch evaluation (vectorized design-space sweeps)
    # ------------------------------------------------------------------

    def batch(self) -> "BatchEngine":
        """A vectorized evaluator bound to this engine.

        The batch path (:mod:`repro.sim.batch`) resolves achieved-rate
        ceilings through this engine's own ``fma_rate``/``gemm_rate``/
        ``stream_bw`` methods and runs the roofline arithmetic as NumPy
        array ops, so its results are bit-for-bit identical to calling
        :meth:`roofline` per point — the scalar path stays the golden
        reference.  Requires a fault-free engine.
        """
        from .batch import BatchEngine

        return BatchEngine(self)

    # ------------------------------------------------------------------
    # transfers (delegate to the transfer model, adding noise hooks)
    # ------------------------------------------------------------------

    def host_transfer_time(
        self,
        ref: StackRef,
        nbytes: float,
        direction: str = "h2d",
        *,
        rep: int | None = None,
    ) -> float:
        if self.faults is not None:
            self.faults.check_stack(ref)
        t = self.transfers.host_transfer_time(ref, nbytes, direction)
        if rep is not None:
            t = self.noise.apply(
                t, f"{self.system.name}:pcie:{direction}:{ref}", rep
            )
        if self.telemetry is not None:
            m = self.telemetry.metrics
            m.inc(
                "transfer.bytes", float(nbytes),
                path="pcie", direction=direction,
            )
            m.observe("transfer.time_us", t * 1e6, path="pcie")
        return t

    def p2p_transfer_time(
        self,
        src: StackRef,
        dst: StackRef,
        nbytes: float,
        *,
        rep: int | None = None,
    ) -> float:
        if self.faults is not None:
            self.faults.check_stack(src, dst)
            if (
                self.node.fabric.has_degradation
                and self.node.fabric.is_route_degraded(src, dst)
            ):
                self.faults.note(
                    f"p2p {src} -> {dst} rerouted over degraded fabric"
                )
        t = self.transfers.p2p_transfer_time(src, dst, nbytes)
        if rep is not None:
            t = self.noise.apply(
                t, f"{self.system.name}:p2p:{src}:{dst}", rep
            )
        if self.telemetry is not None:
            route = self.node.fabric.route(src, dst)
            # Label by the bottleneck link (the one the bandwidth model
            # charges): mdfi for on-card pairs, xelink across planes, ...
            slowest = min(
                route.hops, key=lambda hop: hop[2].peak_bw_per_dir
            )[2].kind
            m = self.telemetry.metrics
            m.inc(
                "transfer.bytes", float(nbytes),
                path=slowest.name.lower(), hops=route.n_hops,
            )
            m.observe(
                "transfer.time_us", t * 1e6, path=slowest.name.lower()
            )
        return t

    # ------------------------------------------------------------------
    # convenience for the analysis layer
    # ------------------------------------------------------------------

    def quiet(self) -> "PerfEngine":
        """A copy of this engine with the noise model disabled.

        Shares the memo cache: noise applies after the roofline, so the
        quiet copy's evaluations are content-identical.
        """
        return PerfEngine(
            self.system,
            noise=QUIET,
            enable_tdp=self.enable_tdp,
            enable_contention=self.transfers.enable_contention,
            enable_planes=self.transfers.enable_planes,
            faults=self.faults,
            telemetry=self.telemetry,
            memo=self.memo,
        )

    def all_stacks(self) -> Sequence[StackRef]:
        return self.node.stacks()
