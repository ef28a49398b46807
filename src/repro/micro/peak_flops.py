"""Peak floating-point throughput: a chain of FMAs (Section IV-A.1).

"This OpenMP microbenchmark performs a chain of Fused Multiply Add
instructions (similar to clpeak).  Each kernel performs 16 x 128 FMA
operations using single and double precision floating point values."

The functional kernel really evaluates the FMA chain (vectorised over
lanes); its closed form ``x_n = a^n x_0 + b (a^n - 1)/(a - 1)`` is used
by the test suite to verify every element.  The measured rate comes from
the engine's FMA model, which reproduces the Table II flops rows
including the FP64 TDP downclock.
"""

from __future__ import annotations

import numpy as np

from ..core.registry import register
from ..core.result import Measurement
from ..dtypes import Precision
from ..sim.engine import PerfEngine
from ..sim.kernel import fma_chain_kernel
from .common import MicroBenchmark

__all__ = ["PeakFlops", "fma_chain", "fma_chain_reference"]

#: Section IV-A.1: each kernel performs 16 x 128 FMA operations.
CHAIN_LENGTH = 16 * 128


def fma_chain(
    x0: np.ndarray, a: float, b: float, n: int = CHAIN_LENGTH
) -> np.ndarray:
    """Evaluate ``x <- a*x + b`` *n* times, vectorised over lanes.

    This is the actual arithmetic the benchmark times on real hardware;
    NumPy evaluates it lane-parallel exactly like the GPU's SIMD units.
    """
    if n < 0:
        raise ValueError("chain length must be non-negative")
    x = np.array(x0, copy=True)
    for _ in range(n):
        x = a * x + b  # one fused multiply-add per lane
    return x


def fma_chain_reference(
    x0: np.ndarray, a: float, b: float, n: int = CHAIN_LENGTH
) -> np.ndarray:
    """Closed form of the FMA chain (geometric series)."""
    an = a**n
    if a == 1.0:
        return x0 + n * b
    return an * np.asarray(x0) + b * (an - 1.0) / (a - 1.0)


@register(
    name="peak_flops",
    category="micro",
    programming_model="OpenMP",
    description="Chain of FMA to measure FLOPS",
)
class PeakFlops(MicroBenchmark):
    """The Peak Compute rows of Table II."""

    def __init__(
        self,
        precision: Precision = Precision.FP64,
        lanes: int = 64,
        functional_chain: int = 64,
    ) -> None:
        self.precision = precision
        self.lanes = lanes
        self.functional_chain = functional_chain

    def params(self) -> dict:
        return {"precision": self.precision.label, "chain": CHAIN_LENGTH}

    def _functional_check(self) -> None:
        # Actually run (a shortened) chain and check it.
        if self.precision.is_integer:
            return
        dtype = self.precision.numpy_dtype
        x0 = np.linspace(0.0, 1.0, self.lanes, dtype=dtype)
        a = dtype.type(0.99) if hasattr(dtype, "type") else 0.99
        out = fma_chain(x0, float(a), 0.5, self.functional_chain)
        ref = fma_chain_reference(x0, float(a), 0.5, self.functional_chain)
        if not np.allclose(out, ref, rtol=1e-3):
            raise AssertionError("FMA chain numerics diverged")

    def _measure_once(
        self, engine: PerfEngine, n_stacks: int, rep: int
    ) -> Measurement:
        # Timed leg: a device-filling chain through the engine.  The rate
        # implied by (work / elapsed) is exactly the engine's achieved
        # multi-stack FMA rate.
        spec = fma_chain_kernel(self.precision, lanes=2**20)
        elapsed = engine.kernel_time_s(spec, n_stacks, rep=rep)
        return Measurement(elapsed_s=elapsed, work=spec.flops, unit="Flop/s")
