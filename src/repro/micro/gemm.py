"""General Matrix Multiplication (Section IV-A.5).

"GEMM is used to measure floating-point (FP64, FP32, FP8, BF16, and
TF32) and small integer (I8) operation throughput.  We use a square
N x N matrix of size N = 20480 ...  The GEMMs are implemented using the
oneMKL library and the SYCL programming language.  A total of 2 * N^3
floating point operations is expected to be performed."

The functional leg is a real cache-blocked GEMM (the textbook tiling a
oneMKL-class library performs), validated against ``A @ B``; the timed
leg runs the N=20480 kernel through the engine's GEMM model, reproducing
the Table II GEMM rows including the DGEMM-vs-SGEMM efficiency gap the
paper highlights.
"""

from __future__ import annotations

import numpy as np

from ..core.registry import register
from ..core.result import Measurement
from ..dtypes import Precision
from ..sim.engine import PerfEngine
from ..sim.kernel import GEMM_N, gemm_kernel
from .common import MicroBenchmark

__all__ = [
    "Gemm",
    "blocked_gemm",
    "quantize_bf16",
    "quantize_tf32",
    "GEMM_PRECISIONS",
]

#: The Table II GEMM rows, in paper order.
GEMM_PRECISIONS: tuple[Precision, ...] = (
    Precision.FP64,
    Precision.FP32,
    Precision.FP16,
    Precision.BF16,
    Precision.TF32,
    Precision.I8,
)


def quantize_bf16(x: np.ndarray) -> np.ndarray:
    """Round float32 values to the bfloat16 grid (7-bit mantissa).

    bfloat16 is float32 with the bottom 16 mantissa bits dropped; we
    round-to-nearest-even on those bits, which is exactly what the matrix
    engines do when ingesting BF16 operands.
    """
    bits = np.asarray(x, dtype=np.float32).view(np.uint32)
    # Round half to even on the truncated 16 bits.
    rounding = ((bits >> 16) & 1) + 0x7FFF
    return ((bits + rounding) & np.uint32(0xFFFF0000)).view(np.float32)


def quantize_tf32(x: np.ndarray) -> np.ndarray:
    """Round float32 values to the TF32 grid (10-bit mantissa).

    TF32 keeps float32's exponent but only 10 explicit mantissa bits; the
    bottom 13 bits are rounded away.
    """
    bits = np.asarray(x, dtype=np.float32).view(np.uint32)
    rounding = ((bits >> 13) & 1) + 0x0FFF
    return ((bits + rounding) & np.uint32(0xFFFFE000)).view(np.float32)


def blocked_gemm(
    a: np.ndarray, b: np.ndarray, block: int = 64, out: np.ndarray | None = None
) -> np.ndarray:
    """Cache-blocked ``C = A @ B``.

    Tiles the K dimension and accumulates per (i, j) block — the loop
    structure a GPU GEMM uses with shared-memory tiles, expressed with
    NumPy per-tile products.  Accumulation happens in a wider type for
    integer inputs (int8 -> int32, as the hardware's I8 GEMM does).
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"bad GEMM shapes {a.shape} x {b.shape}")
    if block < 1:
        raise ValueError("block must be positive")
    m, k = a.shape
    _, n = b.shape
    acc_dtype = np.int32 if a.dtype == np.int8 else np.result_type(a, b)
    if out is None:
        out = np.zeros((m, n), dtype=acc_dtype)
    else:
        if out.shape != (m, n):
            raise ValueError("bad output shape")
        out[:] = 0
    a_acc = a.astype(acc_dtype, copy=False)
    b_acc = b.astype(acc_dtype, copy=False)
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        for j0 in range(0, n, block):
            j1 = min(j0 + block, n)
            tile = out[i0:i1, j0:j1]
            for k0 in range(0, k, block):
                k1 = min(k0 + block, k)
                tile += a_acc[i0:i1, k0:k1] @ b_acc[k0:k1, j0:j1]
    return out


@register(
    name="gemm",
    category="micro",
    programming_model="SYCL",
    description="DGEMM, SGEMM, HGEMM, BF16, TF32 and I8 GEMM throughput",
)
class Gemm(MicroBenchmark):
    """One Table II GEMM row (per precision)."""

    def __init__(
        self,
        precision: Precision = Precision.FP64,
        n: int = GEMM_N,
        functional_n: int = 96,
    ) -> None:
        self.precision = precision
        self.n = n
        self.functional_n = functional_n

    def params(self) -> dict:
        return {"precision": self.precision.label, "n": self.n}

    def _functional_check(self) -> None:
        rng = np.random.default_rng(42)
        fn = self.functional_n
        if self.precision.is_integer:
            a = rng.integers(-4, 5, size=(fn, fn), dtype=np.int8)
            b = rng.integers(-4, 5, size=(fn, fn), dtype=np.int8)
            c = blocked_gemm(a, b, block=32)
            ref = a.astype(np.int32) @ b.astype(np.int32)
            if not np.array_equal(c, ref):
                raise AssertionError("I8 GEMM numerics diverged")
            return
        dtype = self.precision.numpy_dtype
        a = rng.standard_normal((fn, fn)).astype(dtype)
        b = rng.standard_normal((fn, fn)).astype(dtype)
        # The matrix engines ingest reduced-mantissa operands: apply the
        # real BF16/TF32 rounding before multiplying.
        if self.precision is Precision.BF16:
            a, b = quantize_bf16(a), quantize_bf16(b)
        elif self.precision is Precision.TF32:
            a, b = quantize_tf32(a), quantize_tf32(b)
        c = blocked_gemm(a, b, block=32)
        rtol = 1e-2 if dtype == np.float16 else 1e-5
        if not np.allclose(
            c.astype(np.float64),
            a.astype(np.float64) @ b.astype(np.float64),
            rtol=rtol,
            atol=1e-2,
        ):
            raise AssertionError("GEMM numerics diverged")

    def _measure_once(
        self, engine: PerfEngine, n_stacks: int, rep: int
    ) -> Measurement:
        spec = gemm_kernel(self.precision, self.n)
        elapsed = self._traced_kernel_elapsed(engine, spec, n_stacks, rep)
        unit = "Iop/s" if self.precision.is_integer else "Flop/s"
        return Measurement(elapsed_s=elapsed, work=spec.flops, unit=unit)
