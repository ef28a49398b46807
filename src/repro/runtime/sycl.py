"""A SYCL-like runtime over the simulated node.

The paper's SYCL benchmarks use queues, USM allocations
(``sycl::malloc_host`` — "internally implemented by a call to
ze_malloc_host(), an equivalent to Nvidia pinned memory", Section
IV-A.3) and profiling events.  This module provides that surface:

* :class:`SyclQueue` — in-order queue on one logical device, with a
  simulated timeline; ``memcpy`` and ``submit`` return profiling
  :class:`SyclEvent`\\ s whose durations come from the performance engine,
  while the *data* really moves / the kernel function really executes
  (NumPy), so functional results are exact.
* USM: ``malloc_device`` / ``malloc_host`` / ``malloc_shared`` returning
  :class:`UsmAllocation` buffers tagged with their location.

This keeps the benchmark code structurally identical to the paper's SYCL
ports while remaining a pure-Python simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import AllocationError, ConfigurationError, DeviceLostError
from ..hw.ids import StackRef
from ..sim.engine import PerfEngine
from ..sim.kernel import KernelSpec
from .ze import FLAT, ZeDriver

__all__ = [
    "UsmKind",
    "UsmAllocation",
    "SyclDevice",
    "SyclEvent",
    "SyclQueue",
    "SyclRuntime",
    "stack_queue",
]


class UsmKind(enum.Enum):
    """Unified-shared-memory allocation kinds (SYCL USM)."""

    HOST = "host"
    DEVICE = "device"
    SHARED = "shared"


@dataclass
class UsmAllocation:
    """A unified-shared-memory allocation.

    ``buffer`` is the backing NumPy byte array (functional payload);
    ``device`` is the owning stack for device/shared allocations.
    """

    kind: UsmKind
    nbytes: int
    buffer: np.ndarray
    device: StackRef | None = None
    freed: bool = False

    def view(self, dtype) -> np.ndarray:
        """Typed view of the raw bytes."""
        self._check_live()
        return self.buffer.view(dtype)

    def _check_live(self) -> None:
        if self.freed:
            raise AllocationError("use after free")

    def fill(self, value: float, dtype=np.float64) -> None:
        self.view(dtype)[:] = value


@dataclass(frozen=True, slots=True)
class SyclDevice:
    """One logical device visible to the runtime."""

    index: int
    ref: StackRef
    name: str
    max_compute_units: int
    global_mem_bytes: int

    def info(self) -> dict:
        return {
            "name": self.name,
            "max_compute_units": self.max_compute_units,
            "global_mem_size": self.global_mem_bytes,
        }


class SyclEvent:
    """A profiling event: submit/start/end timestamps in simulated ns."""

    def __init__(
        self, submit_ns: int, start_ns: int, end_ns: int, *, profiler=None
    ) -> None:
        if not (submit_ns <= start_ns <= end_ns):
            raise ConfigurationError("event timestamps must be ordered")
        self.submit_ns = submit_ns
        self.start_ns = start_ns
        self.end_ns = end_ns
        self._profiler = profiler

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns * 1e-9

    def profiling_info(self) -> dict[str, int]:
        if self._profiler is not None:
            self._profiler.record("sycl::event::get_profiling_info", "sycl")
        return {
            "command_submit": self.submit_ns,
            "command_start": self.start_ns,
            "command_end": self.end_ns,
        }


class SyclQueue:
    """An in-order queue on one device with a simulated clock.

    When the owning engine carries a telemetry session, every timed
    operation is also recorded on the queue's ``gpu C.S`` trace lane
    (superseding the old standalone ``TracedQueue`` wrapper), and
    submitting to a device lost to fault injection raises a retryable
    :class:`~repro.errors.DeviceLostError`.
    """

    def __init__(
        self,
        engine: PerfEngine,
        device: SyclDevice,
        *,
        enable_profiling: bool = True,
    ) -> None:
        self.engine = engine
        self.device = device
        self.enable_profiling = enable_profiling
        self._now_ns: int = 0
        self._rep: int = 0
        self._events: list[SyclEvent] = []
        self.lane: str | None = None
        self._profiler = None
        self._stream = ""
        if engine.telemetry is not None:
            self.lane = engine.telemetry.gpu_lane(device.ref)
            self._profiler = getattr(engine.telemetry, "profiler", None)
        if self._profiler is not None:
            from ..profiler.core import SYCL_POINTS, ZE_QUEUE_POINTS

            self._profiler.register("ze", *ZE_QUEUE_POINTS)
            self._profiler.register("sycl", *SYCL_POINTS)
            self._stream = self._profiler.stream(
                f"{engine.system.name}:{device.ref}"
            )
            self._profiler.record(
                "zeCommandQueueCreate",
                "ze",
                stream=self._stream,
                clock_us=self._now_ns / 1e3,
            )

    # -- clock ------------------------------------------------------------

    @property
    def now_ns(self) -> int:
        return self._now_ns

    def set_repetition(self, rep: int) -> None:
        """Select the noise-model repetition index for subsequent work."""
        self._rep = rep

    def _check_device(self) -> None:
        """Queues on a stack lost mid-run must fail retryably."""
        if self.engine.faults is not None:
            self.engine.faults.check_stack(self.device.ref)

    def _advance(
        self,
        seconds: float,
        name: str | None = None,
        category: str = "kernel",
        **args,
    ) -> SyclEvent:
        submit = self._now_ns
        start = submit  # in-order queue, idle device: starts immediately
        end = start + max(1, round(seconds * 1e9))
        self._now_ns = end
        ev = SyclEvent(submit, start, end, profiler=self._profiler)
        self._events.append(ev)
        tel = self.engine.telemetry
        if tel is not None and self.lane is not None and name is not None:
            tel.complete(
                name,
                self.lane,
                duration_us=ev.duration_ns / 1e3,
                start_us=start / 1e3,
                category=category,
                **args,
            )
        return ev

    # -- USM -------------------------------------------------------------

    def _alloc(self, kind: UsmKind, nbytes: int) -> UsmAllocation:
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive: {nbytes}")
        if self.engine.faults is not None:
            self.engine.faults.on_alloc(kind.value, nbytes)
        if kind in (UsmKind.DEVICE, UsmKind.SHARED):
            if nbytes > self.engine.device.hbm_capacity_bytes:
                raise AllocationError(
                    f"{nbytes} B exceeds device HBM "
                    f"({self.engine.device.hbm_capacity_bytes} B)"
                )
        if self._profiler is not None:
            self._profiler.record(f"sycl::malloc_{kind.value}", "sycl")
        return UsmAllocation(
            kind=kind,
            nbytes=nbytes,
            buffer=np.zeros(nbytes, dtype=np.uint8),
            device=self.device.ref if kind is not UsmKind.HOST else None,
        )

    def malloc_device(self, nbytes: int) -> UsmAllocation:
        return self._alloc(UsmKind.DEVICE, nbytes)

    def malloc_host(self, nbytes: int) -> UsmAllocation:
        """Pinned host memory (the paper's ``sycl::malloc_host``)."""
        return self._alloc(UsmKind.HOST, nbytes)

    def malloc_shared(self, nbytes: int) -> UsmAllocation:
        return self._alloc(UsmKind.SHARED, nbytes)

    def free(self, alloc: UsmAllocation) -> None:
        alloc._check_live()
        alloc.freed = True
        if self._profiler is not None:
            self._profiler.record("sycl::free", "sycl")

    # -- operations -------------------------------------------------------

    def memcpy(
        self,
        dst: UsmAllocation,
        src: UsmAllocation,
        nbytes: int | None = None,
        *,
        timed_nbytes: int | None = None,
    ) -> SyclEvent:
        """Copy between USM allocations; time depends on the location pair.

        ``timed_nbytes`` overrides the size used for the simulated timing
        (benchmarks declare the paper's 500 MB messages while carrying a
        small functional payload to bound host memory use).
        """
        dst._check_live()
        src._check_live()
        if nbytes is None:
            nbytes = min(dst.nbytes, src.nbytes)
        if nbytes > src.nbytes or nbytes > dst.nbytes:
            raise AllocationError("memcpy overruns an allocation")
        if timed_nbytes is not None and timed_nbytes < nbytes:
            raise AllocationError("timed_nbytes smaller than the payload")
        self._check_device()
        seconds = self._memcpy_seconds(dst, src, timed_nbytes or nbytes)
        dst.buffer[:nbytes] = src.buffer[:nbytes]
        op = f"memcpy[{src.kind.value}->{dst.kind.value}]"
        ev = self._advance(
            seconds, op, category="transfer", nbytes=timed_nbytes or nbytes
        )
        if self._profiler is not None:
            self._profiler.record(
                "zeCommandListAppendMemoryCopy",
                "ze",
                device_us=ev.duration_ns / 1e3,
                bytes_moved=float(timed_nbytes or nbytes),
                op=op,
                stream=self._stream,
                clock_us=self._now_ns / 1e3,
            )
        return ev

    def _memcpy_seconds(
        self, dst: UsmAllocation, src: UsmAllocation, nbytes: int
    ) -> float:
        eng = self.engine
        rep = self._rep
        src_dev = src.kind is not UsmKind.HOST
        dst_dev = dst.kind is not UsmKind.HOST
        if not src_dev and not dst_dev:
            # host-to-host over DDR: read + write.
            bw = eng.node.sockets[0].ddr_peak_bw / 2
            return nbytes / bw
        if src_dev and dst_dev:
            if src.device == dst.device:
                # on-device copy: read + write through HBM.
                return 2 * nbytes / eng.stream_bw(1)
            return eng.p2p_transfer_time(src.device, dst.device, nbytes, rep=rep)
        direction = "h2d" if dst_dev else "d2h"
        ref = dst.device if dst_dev else src.device
        assert ref is not None
        return eng.host_transfer_time(ref, nbytes, direction, rep=rep)

    def memcpy_bidirectional(
        self,
        d2h_dst: UsmAllocation,
        d2h_src: UsmAllocation,
        h2d_dst: UsmAllocation,
        h2d_src: UsmAllocation,
        nbytes: int,
        *,
        timed_nbytes: int | None = None,
    ) -> SyclEvent:
        """Simultaneous H2D + D2H of *nbytes* each (the paper's 1 GB
        bidirectional PCIe case).  Total time = 2*nbytes / bidir rate."""
        for a in (d2h_dst, d2h_src, h2d_dst, h2d_src):
            a._check_live()
        ref = h2d_dst.device
        assert ref is not None
        self._check_device()
        bw = self.engine.transfers.host_device_bw(ref, "bidir")
        seconds = self.engine.noise.apply(
            2 * (timed_nbytes or nbytes) / bw,
            f"{self.engine.system.name}:pcie:bidir:{ref}",
            self._rep,
        )
        d2h_dst.buffer[:nbytes] = d2h_src.buffer[:nbytes]
        h2d_dst.buffer[:nbytes] = h2d_src.buffer[:nbytes]
        ev = self._advance(
            seconds,
            "memcpy[bidir]",
            category="transfer",
            nbytes=2 * (timed_nbytes or nbytes),
        )
        if self._profiler is not None:
            self._profiler.record(
                "zeCommandListAppendMemoryCopy",
                "ze",
                device_us=ev.duration_ns / 1e3,
                bytes_moved=2.0 * (timed_nbytes or nbytes),
                op="memcpy[bidir]",
                stream=self._stream,
                clock_us=self._now_ns / 1e3,
            )
        return ev

    def submit(
        self,
        spec: KernelSpec,
        func: Callable[..., None] | None = None,
        *args,
        n_stacks: int = 1,
    ) -> SyclEvent:
        """Run a kernel: *func(args)* executes functionally (if given);
        the event duration comes from the engine's roofline for *spec*."""
        self._check_device()
        seconds = self.engine.kernel_time_s(spec, n_stacks, rep=self._rep)
        if func is not None:
            func(*args)
        ev = self._advance(
            seconds, spec.name, category="kernel", flops=spec.flops
        )
        if self._profiler is not None:
            self._profiler.record(
                "zeCommandListAppendLaunchKernel", "ze", op=spec.name
            )
            self._profiler.record(
                "zeCommandQueueExecuteCommandLists",
                "ze",
                device_us=ev.duration_ns / 1e3,
                op=spec.name,
                stream=self._stream,
                clock_us=self._now_ns / 1e3,
            )
        return ev

    def wait(self) -> None:
        """In-order queue: everything submitted is already retired."""
        if self._profiler is not None:
            self._profiler.record(
                "zeCommandQueueSynchronize",
                "ze",
                stream=self._stream,
                clock_us=self._now_ns / 1e3,
            )

    @property
    def events(self) -> list[SyclEvent]:
        return list(self._events)


class SyclRuntime:
    """Platform + device discovery, honouring ``ZE_AFFINITY_MASK``."""

    def __init__(
        self,
        engine: PerfEngine,
        affinity_mask: str | None = None,
        hierarchy: str = FLAT,
    ) -> None:
        self.engine = engine
        profiler = (
            getattr(engine.telemetry, "profiler", None)
            if engine.telemetry is not None
            else None
        )
        self.driver = ZeDriver(
            engine.node, affinity_mask, hierarchy, profiler=profiler
        )
        if self.driver.excluded and engine.faults is not None:
            engine.faults.note(
                "SYCL runtime skipped lost device(s): "
                + ", ".join(str(r) for r in self.driver.excluded)
            )

    def devices(self) -> list[SyclDevice]:
        model = self.engine.device
        cu = model.spec.active_xe_cores if model.spec is not None else 0
        return [
            SyclDevice(
                index=zed.index,
                ref=zed.stacks[0],
                name=model.name,
                max_compute_units=cu or 1,
                global_mem_bytes=model.hbm_capacity_bytes * zed.n_sub_devices,
            )
            for zed in self.driver.devices()
        ]

    def default_device(self) -> SyclDevice:
        return self.devices()[0]

    def queue(
        self, device: SyclDevice | None = None, *, enable_profiling: bool = True
    ) -> SyclQueue:
        if device is None:
            device = self.default_device()
        return SyclQueue(self.engine, device, enable_profiling=enable_profiling)


def stack_queue(engine: PerfEngine, ref: StackRef) -> SyclQueue:
    """The engine's queue on stack *ref*, opened on first use and kept,
    so its clock (and ``gpu C.S`` lane) runs on across repetitions.

    Opening one enumerates devices as a SYCL program does: a stack lost
    to fault injection is skipped (the runtime notes it), and asking for
    it raises a retryable :class:`~repro.errors.DeviceLostError`.
    """
    queue = engine.queues.get(ref)
    if queue is None:
        runtime = SyclRuntime(engine)
        device = next((d for d in runtime.devices() if d.ref == ref), None)
        if device is None:
            raise DeviceLostError(f"device {ref} is lost", stack=ref)
        queue = engine.queues[ref] = runtime.queue(device)
    return queue
