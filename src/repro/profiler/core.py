"""The API interception layer: records and aggregates runtime calls.

iprof (THAPI) works by intercepting every Level Zero / OpenCL / CUDA
entry point through LTTng tracepoints and aggregating host time, device
time and bytes moved per API name.  The simulated runtime has no
``LD_PRELOAD`` surface, so the interception is explicit: the runtime
layers (``runtime.ze``, ``runtime.sycl``, ``runtime.mpi``) call
:meth:`ApiProfiler.record` at each instrumentation point, and the
performance engine hands each kernel event to
:meth:`ApiProfiler.record_kernel`, whenever the telemetry session
carries a profiler.

Determinism contract (same as the tracer/metrics exporters): every
aggregation sorts the raw records by their full content before folding,
so a profile does not depend on the order its records arrived in, and
all times derive from the simulated clock plus a fixed per-API
host-overhead table, never the wall clock.  (The simulated MPI runs its
ranks on one deterministic scheduler, so even the raw order repeats.)
Two runs with the same seed produce byte-identical profile documents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..ioutils import canonical_json, sha256_text

__all__ = [
    "LAYERS",
    "PROFILE_SCHEMA",
    "ZE_DRIVER_POINTS",
    "ZE_QUEUE_POINTS",
    "SYCL_POINTS",
    "MPI_POINTS",
    "host_overhead_us",
    "ApiCall",
    "KernelSample",
    "ApiProfiler",
]

PROFILE_SCHEMA = "repro.profiler.profile/v1"

#: Runtime layers the interception surface covers (iprof's "backends").
LAYERS = ("ze", "sycl", "mpi")

#: Instrumentation points the driver layer registers (runtime.ze).
ZE_DRIVER_POINTS = ("zeInit", "zeDeviceGet", "zeDeviceGetSubDevices")

#: Instrumentation points every queue registers (runtime.sycl -> L0).
ZE_QUEUE_POINTS = (
    "zeCommandQueueCreate",
    "zeCommandListAppendLaunchKernel",
    "zeCommandListAppendMemoryCopy",
    "zeCommandQueueExecuteCommandLists",
    "zeCommandQueueSynchronize",
)

#: SYCL USM + event instrumentation points (runtime.sycl).
SYCL_POINTS = (
    "sycl::malloc_device",
    "sycl::malloc_host",
    "sycl::malloc_shared",
    "sycl::free",
    "sycl::event::get_profiling_info",
)

#: MPI instrumentation points (runtime.mpi).
MPI_POINTS = (
    "MPI_Isend",
    "MPI_Irecv",
    "MPI_Wait",
    "MPI_Barrier",
    "MPI_Allreduce",
    "MPI_Bcast",
    "MPI_Gather",
    "MPI_Allgather",
)

#: Deterministic host-side cost charged per intercepted call, in
#: simulated microseconds.  Shaped after the host-time distribution an
#: iprof trace of the paper's benchmarks shows: driver bring-up is
#: hundreds of us, pinned-host allocation is slower than device
#: allocation, per-append costs are single-digit us.
_HOST_OVERHEAD_US = {
    "zeInit": 120.0,
    "zeDeviceGet": 6.0,
    "zeDeviceGetSubDevices": 3.0,
    "zeCommandQueueCreate": 21.0,
    "zeCommandListAppendLaunchKernel": 9.0,
    "zeCommandListAppendMemoryCopy": 7.0,
    "zeCommandQueueExecuteCommandLists": 13.0,
    "zeCommandQueueSynchronize": 4.0,
    "sycl::malloc_device": 38.0,
    "sycl::malloc_host": 55.0,
    "sycl::malloc_shared": 46.0,
    "sycl::free": 12.0,
    "sycl::event::get_profiling_info": 1.0,
    "MPI_Isend": 5.0,
    "MPI_Irecv": 3.0,
    "MPI_Wait": 2.0,
    "MPI_Barrier": 4.0,
    "MPI_Allreduce": 6.0,
    "MPI_Bcast": 4.0,
    "MPI_Gather": 5.0,
    "MPI_Allgather": 6.0,
}

_DEFAULT_HOST_OVERHEAD_US = 2.0


def host_overhead_us(name: str) -> float:
    """The fixed host-side cost charged for one call to *name*."""
    return _HOST_OVERHEAD_US.get(name, _DEFAULT_HOST_OVERHEAD_US)


@dataclass(frozen=True, slots=True)
class ApiCall:
    """One intercepted API call.

    ``op`` refines the device/traffic attribution (the kernel or copy
    the append launched) while ``name`` stays the API entry point, so
    the host table reads like an iprof API section and the device table
    like its device-profiling section.  ``stream`` identifies the
    simulated command queue (``<system>:<card>.<stack>``) and
    ``clock_us`` its clock at retirement; the profiler checks per-stream
    monotonicity and lists violations in ``clock_violations``.
    """

    layer: str
    name: str
    host_us: float
    device_us: float = 0.0
    bytes_moved: float = 0.0
    op: str = ""
    stream: str = ""
    clock_us: float = -1.0

    def order_key(self) -> tuple:
        return (
            self.layer,
            self.name,
            self.op,
            self.stream,
            self.clock_us,
            self.host_us,
            self.device_us,
            self.bytes_moved,
        )


@dataclass(frozen=True, slots=True)
class KernelSample:
    """One profiled kernel execution joined against its roofline model.

    ``achieved_s`` is the simulated (noise-bearing) execution time;
    ``compute_s``/``memory_s``/``latency_s`` are the model decomposition
    from :class:`~repro.sim.roofline.RooflinePoint`, and
    ``compute_rate``/``mem_bw`` the achieved-rate ceilings the model
    used — enough to attribute the kernel without re-querying the engine
    (which would re-trigger fault-injection notes).
    """

    name: str
    system: str
    n_stacks: int
    achieved_s: float
    compute_s: float
    memory_s: float
    latency_s: float
    flops: float
    nbytes: float
    compute_rate: float
    mem_bw: float

    @property
    def model_s(self) -> float:
        return max(self.compute_s, self.memory_s) + self.latency_s

    def order_key(self) -> tuple:
        return (
            self.name,
            self.system,
            self.n_stacks,
            self.achieved_s,
            self.compute_s,
            self.memory_s,
            self.latency_s,
        )


def _classify(compute_s: float, memory_s: float, latency_s: float) -> str:
    if latency_s > max(compute_s, memory_s):
        return "latency"
    return "compute" if compute_s >= memory_s else "memory"


@dataclass
class _Stat:
    """Folded per-name statistics (time or bytes, depending on table)."""

    calls: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def add(self, value: float) -> None:
        self.calls += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def to_doc(self) -> dict:
        return {
            "calls": self.calls,
            "total": self.total,
            "min": self.min if self.calls else 0.0,
            "max": self.max,
        }


class ApiProfiler:
    """Collects intercepted API calls and kernel samples for one run.

    Thread safe.  All query methods aggregate over a content-sorted
    copy of the raw records, so results are independent of record order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: list[ApiCall] = []
        self._kernels: list[KernelSample] = []
        self._points: dict[str, set[str]] = {}
        self._stream_clock: dict[str, float] = {}
        self._stream_serial: dict[str, int] = {}
        self.clock_violations: list[str] = []

    # ------------------------------------------------------------------
    # interception points
    # ------------------------------------------------------------------

    def register(self, layer: str, *names: str) -> None:
        """Declare instrumentation points for a runtime layer.

        Registration is idempotent: each runtime object re-declares its
        layer's points when it is built.
        """
        self._check_layer(layer)
        with self._lock:
            self._points.setdefault(layer, set()).update(names)

    def points(self, layer: str | None = None) -> tuple[str, ...]:
        """Registered instrumentation points (for one layer, or all)."""
        with self._lock:
            if layer is not None:
                return tuple(sorted(self._points.get(layer, ())))
            return tuple(
                sorted(set().union(*self._points.values()))
                if self._points
                else ()
            )

    def layers(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._points))

    def stream(self, base: str) -> str:
        """A stream name for a newly opened queue on *base*.

        Each queue owns an independent simulated clock, so a second
        queue on the same device must not share the first one's stream
        (its clock restarts at zero and would trip the monotonicity
        check): the first queue keeps the bare name, later ones get a
        ``/qN`` suffix.  Queue creation happens sequentially in setup
        code, so the numbering is deterministic.
        """
        with self._lock:
            n = self._stream_serial.get(base, 0)
            self._stream_serial[base] = n + 1
        return base if n == 0 else f"{base}/q{n}"

    @staticmethod
    def _check_layer(layer: str) -> None:
        if layer not in LAYERS:
            raise ValueError(
                f"unknown profiler layer {layer!r}; expected one of "
                + ", ".join(LAYERS)
            )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(
        self,
        name: str,
        layer: str,
        *,
        host_us: float | None = None,
        device_us: float = 0.0,
        bytes_moved: float = 0.0,
        op: str = "",
        stream: str = "",
        clock_us: float | None = None,
    ) -> ApiCall:
        """Record one intercepted call.

        ``host_us`` defaults to the fixed overhead table; pass an
        explicit value for calls that block (``MPI_Wait``).  Passing
        ``clock_us`` with a ``stream`` enrols the call in the per-stream
        clock-monotonicity check.
        """
        self._check_layer(layer)
        call = ApiCall(
            layer=layer,
            name=name,
            host_us=host_overhead_us(name) if host_us is None else host_us,
            device_us=device_us,
            bytes_moved=bytes_moved,
            op=op,
            stream=stream,
            clock_us=clock_us if clock_us is not None else -1.0,
        )
        with self._lock:
            self._points.setdefault(layer, set()).add(name)
            if clock_us is not None and stream:
                last = self._stream_clock.get(stream)
                if last is not None and clock_us < last - 1e-9:
                    self.clock_violations.append(
                        f"{stream}: {name} clock went backwards "
                        f"({clock_us:.3f}us after {last:.3f}us)"
                    )
                self._stream_clock[stream] = max(last or 0.0, clock_us)
            self._calls.append(call)
        return call

    def kernel(self, sample: KernelSample) -> None:
        """Record one profiled kernel execution."""
        with self._lock:
            self._kernels.append(sample)

    def record_kernel(self, event) -> None:
        """Record the engine's :class:`~repro.sim.engine.KernelEvent`."""
        spec, point = event.spec, event.point
        self.kernel(
            KernelSample(
                name=spec.name,
                system=event.system,
                n_stacks=event.n_stacks,
                achieved_s=event.time_s,
                compute_s=point.compute_s,
                memory_s=point.memory_s,
                latency_s=point.latency_s,
                flops=float(spec.flops),
                nbytes=float(spec.total_bytes),
                compute_rate=point.compute_rate,
                mem_bw=point.mem_bw,
            )
        )

    # ------------------------------------------------------------------
    # deterministic views of the raw records
    # ------------------------------------------------------------------

    def calls(self) -> list[ApiCall]:
        """Raw calls in content order (record-order independent)."""
        with self._lock:
            return sorted(self._calls, key=ApiCall.order_key)

    def kernels(self) -> list[KernelSample]:
        with self._lock:
            return sorted(self._kernels, key=KernelSample.order_key)

    @property
    def n_calls(self) -> int:
        with self._lock:
            return len(self._calls)

    @property
    def n_kernels(self) -> int:
        with self._lock:
            return len(self._kernels)

    # ------------------------------------------------------------------
    # aggregation (iprof's three sections + the attribution join)
    # ------------------------------------------------------------------

    def host_table(self) -> dict[str, dict[str, dict]]:
        """Per-layer, per-API host-time stats (iprof's API sections)."""
        out: dict[str, dict[str, _Stat]] = {}
        for call in self.calls():
            out.setdefault(call.layer, {}).setdefault(
                call.name, _Stat()
            ).add(call.host_us)
        return {
            layer: {name: stat.to_doc() for name, stat in sorted(names.items())}
            for layer, names in sorted(out.items())
        }

    def device_table(self) -> dict[str, dict]:
        """Per-operation device-time stats (iprof's device profiling)."""
        out: dict[str, _Stat] = {}
        for call in self.calls():
            if call.device_us > 0.0:
                out.setdefault(call.op or call.name, _Stat()).add(
                    call.device_us
                )
        return {name: stat.to_doc() for name, stat in sorted(out.items())}

    def traffic_table(self) -> dict[str, dict]:
        """Per-operation explicit-traffic stats (bytes moved)."""
        out: dict[str, _Stat] = {}
        for call in self.calls():
            if call.bytes_moved > 0.0:
                out.setdefault(call.op or call.name, _Stat()).add(
                    call.bytes_moved
                )
        return {name: stat.to_doc() for name, stat in sorted(out.items())}

    def kernel_attribution(self) -> list[dict]:
        """Join profiled kernels against their roofline model.

        One row per kernel name, sorted by total device time descending:
        achieved time, model time, the binding regime of the aggregate
        decomposition, and two fractions —

        * ``model_pct`` — model time / achieved time (how much of the
          measured time the full roofline model, latency term included,
          accounts for);
        * ``peak_pct`` — binding-component time / achieved time (the
          fraction of the roofline *ceiling* the kernel achieved; for a
          compute-bound kernel this equals achieved flop rate over the
          achieved-rate ceiling the model used).
        """
        acc: dict[str, dict[str, float]] = {}
        for s in self.kernels():
            row = acc.setdefault(
                s.name,
                {
                    "calls": 0.0,
                    "achieved_s": 0.0,
                    "model_s": 0.0,
                    "compute_s": 0.0,
                    "memory_s": 0.0,
                    "latency_s": 0.0,
                    "flops": 0.0,
                    "nbytes": 0.0,
                },
            )
            row["calls"] += 1
            row["achieved_s"] += s.achieved_s
            row["model_s"] += s.model_s
            row["compute_s"] += s.compute_s
            row["memory_s"] += s.memory_s
            row["latency_s"] += s.latency_s
            row["flops"] += s.flops
            row["nbytes"] += s.nbytes
        rows = []
        for name, row in acc.items():
            t = row["achieved_s"]
            bound = _classify(
                row["compute_s"], row["memory_s"], row["latency_s"]
            )
            binding_s = {
                "compute": row["compute_s"],
                "memory": row["memory_s"],
                "latency": row["latency_s"],
            }[bound]
            rows.append(
                {
                    "kernel": name,
                    "calls": int(row["calls"]),
                    "achieved_us": t * 1e6,
                    "model_us": row["model_s"] * 1e6,
                    "bound": bound,
                    "model_pct": 100.0 * row["model_s"] / t if t else 0.0,
                    "peak_pct": 100.0 * binding_s / t if t else 0.0,
                    "intensity": (
                        row["flops"] / row["nbytes"] if row["nbytes"] else None
                    ),
                    "achieved_rate": (
                        (row["flops"] / t)
                        if (bound == "compute" and t)
                        else (row["nbytes"] / t if t else 0.0)
                    ),
                }
            )
        rows.sort(key=lambda r: (-r["achieved_us"], r["kernel"]))
        return rows

    # ------------------------------------------------------------------
    # totals, document, digest
    # ------------------------------------------------------------------

    def host_total_us(self) -> float:
        return sum(c.host_us for c in self.calls())

    def device_total_us(self) -> float:
        return sum(c.device_us for c in self.calls())

    def traffic_total_bytes(self) -> float:
        return sum(c.bytes_moved for c in self.calls())

    def to_doc(self) -> dict:
        """The canonical aggregate profile document (JSON-able)."""
        return {
            "schema": PROFILE_SCHEMA,
            "api_calls": self.n_calls,
            "host_us": self.host_total_us(),
            "device_us": self.device_total_us(),
            "traffic_bytes": self.traffic_total_bytes(),
            "points": {
                layer: list(self.points(layer)) for layer in self.layers()
            },
            "host": self.host_table(),
            "device": self.device_table(),
            "traffic": self.traffic_table(),
            "kernels": self.kernel_attribution(),
            "clock_violations": len(self.clock_violations),
        }

    def digest(self) -> str:
        """Content digest of the aggregate profile (manifest-embeddable)."""
        return sha256_text(canonical_json(self.to_doc()))

    def summary(self) -> dict:
        """The small per-run aggregate embedded in payloads/manifests."""
        return {
            "digest": self.digest(),
            "api_calls": self.n_calls,
            "host_us": self.host_total_us(),
            "device_us": self.device_total_us(),
            "traffic_bytes": self.traffic_total_bytes(),
            "kernels": len(self.kernel_attribution()),
        }
