"""Kernel workload descriptors.

A :class:`KernelSpec` describes *what a kernel does* — flops by precision,
bytes moved to/from device memory, the working-set footprint, and the
workload class for the frequency model — independent of *how fast* any
device runs it.  The engine (:mod:`repro.sim.engine`) turns a spec plus a
device model into a simulated execution time.

Constructors at the bottom build the specs for each microbenchmark exactly
as Section IV describes them (FMA chain of 16x128 operations, stream triad
over 805 MB arrays, N=20480 GEMMs, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.units import MB, MIB
from ..dtypes import Precision
from ..errors import KernelSpecError
from ..hw.frequency import WorkloadKind

__all__ = [
    "KernelSpec",
    "fma_chain_kernel",
    "triad_kernel",
    "gemm_kernel",
    "fft_kernel",
    "pointer_chase_kernel",
    "TRIAD_ARRAY_BYTES",
    "GEMM_N",
    "FLOPS_PER_INTERACTION",
]

#: Section IV-A.2: the triad loads "805 MB (192*1024*1024 Bytes (LLC per
#: Stack) * 4 (STREAM factor)) of double precision values per array".
TRIAD_ARRAY_BYTES = 192 * MIB * 4

#: Section IV-A.5: square GEMM with N = 20480.
GEMM_N = 20480

#: FP32 flops charged per pose-atom-atom interaction in miniBUDE's FOM
#: model (distance + steric + electrostatic arithmetic; calibrated jointly
#: with the achieved-fraction constants so Table VI and the Section V-B
#: peak percentages are mutually consistent).
FLOPS_PER_INTERACTION = 35.3


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """A device-kernel workload description.

    Attributes
    ----------
    name:
        Human-readable kernel label.
    precision:
        Numeric precision of the arithmetic (None for pure data movement).
    flops:
        Total floating-point (or integer) operations.
    bytes_read / bytes_written:
        Device-memory traffic.  Cache-resident re-use is already folded
        out: these are the *DRAM-visible* bytes.
    working_set_bytes:
        Footprint used for cache-level/latency classification.
    kind:
        Workload class for the TDP frequency model.
    serial_chases:
        Number of *dependent* (serialized) memory accesses — nonzero only
        for pointer-chase-style kernels, which are latency-bound.
    """

    name: str
    precision: Precision | None = None
    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    working_set_bytes: int = 0
    kind: WorkloadKind = WorkloadKind.FMA_CHAIN
    serial_chases: int = 0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise KernelSpecError(f"{self.name}: negative work")
        if self.flops == 0 and self.total_bytes == 0 and self.serial_chases == 0:
            raise KernelSpecError(f"{self.name}: empty kernel")
        if self.working_set_bytes < 0:
            raise KernelSpecError(f"{self.name}: negative working set")
        if self.serial_chases < 0:
            raise KernelSpecError(f"{self.name}: negative chase count")

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written

    def signature(self) -> str:
        """Content digest of the workload (memoization key component)."""
        from .memo import kernel_signature

        return kernel_signature(self)

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per DRAM byte (infinity for pure-compute kernels)."""
        if self.total_bytes == 0:
            return float("inf")
        return self.flops / self.total_bytes

    def scaled(self, factor: float) -> "KernelSpec":
        """The same kernel with all work scaled by *factor* (weak scaling)."""
        if factor <= 0:
            raise KernelSpecError("scale factor must be positive")
        return replace(
            self,
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            serial_chases=round(self.serial_chases * factor),
        )


def fma_chain_kernel(
    precision: Precision,
    lanes: int = 1,
    chain_length: int = 16 * 128,
    repeats: int = 1_000,
) -> KernelSpec:
    """The peak-flops microbenchmark: a chain of FMAs (Section IV-A.1).

    Each logical lane performs ``chain_length`` FMA operations
    (= 2 flops each) per repeat; lanes represent the total concurrent
    work-items launched to fill the device.
    """
    flops = 2.0 * chain_length * lanes * repeats
    return KernelSpec(
        name=f"fma-chain-{precision}",
        precision=precision,
        flops=flops,
        working_set_bytes=lanes * precision.itemsize,
        kind=WorkloadKind.FMA_CHAIN,
    )


def triad_kernel(array_bytes: int = TRIAD_ARRAY_BYTES) -> KernelSpec:
    """STREAM triad ``a[i] = b[i] + k * c[i]``: two loads and one store of
    FP64 values per element (Section IV-A.2)."""
    return KernelSpec(
        name="stream-triad",
        precision=Precision.FP64,
        flops=2.0 * (array_bytes / 8),
        bytes_read=2.0 * array_bytes,
        bytes_written=1.0 * array_bytes,
        working_set_bytes=3 * array_bytes,
        kind=WorkloadKind.STREAM,
    )


def gemm_kernel(precision: Precision, n: int = GEMM_N) -> KernelSpec:
    """Square GEMM: ``2 * N^3`` operations (Section IV-A.5)."""
    itemsize = precision.itemsize
    return KernelSpec(
        name=f"gemm-{precision}-n{n}",
        precision=precision,
        flops=2.0 * n**3,
        bytes_read=2.0 * n * n * itemsize,
        bytes_written=1.0 * n * n * itemsize,
        working_set_bytes=3 * n * n * itemsize,
        kind=WorkloadKind.GEMM,
    )


def fft_kernel(
    n: int,
    ndim: int = 1,
    real: bool = False,
    batch: int = 1,
) -> KernelSpec:
    """FFT flop accounting per Section IV-A.6.

    "the standard Cooley-Tukey FFT of 5 x N x log2 N number of flops for
    complex transform and 2.5 x N x log2 N for real", where N is the total
    point count (``n ** ndim``).
    """
    import math

    points = n**ndim
    factor = 2.5 if real else 5.0
    flops = factor * points * math.log2(points) * batch
    itemsize = 8  # single-precision complex
    return KernelSpec(
        name=f"fft-{ndim}d-n{n}",
        precision=Precision.FP32,
        flops=flops,
        bytes_read=points * itemsize * batch,
        bytes_written=points * itemsize * batch,
        working_set_bytes=points * itemsize,
        kind=WorkloadKind.STREAM,
    )


def pointer_chase_kernel(
    working_set_bytes: int, n_chases: int, stride_bytes: int = 8
) -> KernelSpec:
    """The ``lats`` benchmark: a chain of dependent loads (Section IV-A.7)."""
    return KernelSpec(
        name=f"lats-{working_set_bytes}B",
        precision=None,
        bytes_read=float(n_chases * stride_bytes),
        working_set_bytes=working_set_bytes,
        kind=WorkloadKind.STREAM,
        serial_chases=n_chases,
    )
