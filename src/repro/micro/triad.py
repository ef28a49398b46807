"""Device memory bandwidth: STREAM triad (Section IV-A.2).

"We measure bandwidth to/from the device local High Bandwidth Memory
(HBM) through a simple triad (two loads, one store) kernel in OpenMP
loading 805 MB (192*1024*1024 Bytes (LLC per Stack) * 4 (STREAM factor))
of double precision values per array."

The array size is deliberately 4x the stack's LLC so the kernel streams
from HBM rather than cache — :func:`triad_array_bytes` derives it from
the device model so non-PVC devices get the equivalent sizing.
"""

from __future__ import annotations

import numpy as np

from ..core.registry import register
from ..core.result import Measurement
from ..sim.engine import PerfEngine
from ..sim.kernel import triad_kernel
from .common import MicroBenchmark

__all__ = [
    "Triad",
    "triad",
    "stream_copy",
    "stream_scale",
    "stream_add",
    "STREAM_BYTES_PER_ELEMENT",
    "triad_array_bytes",
    "STREAM_FACTOR",
]

#: The classic STREAM sizing rule: arrays at least 4x the last cache.
STREAM_FACTOR = 4


def triad_array_bytes(engine: PerfEngine) -> int:
    """Per-array size: last-level cache capacity x STREAM factor."""
    llc = engine.device.memory["L2"].capacity_bytes
    return llc * STREAM_FACTOR


def triad(
    b: np.ndarray, c: np.ndarray, scalar: float, out: np.ndarray | None = None
) -> np.ndarray:
    """``a[i] = b[i] + scalar * c[i]`` — two loads, one store.

    Written with in-place operations so the functional kernel moves
    exactly the bytes the model charges for.
    """
    if b.shape != c.shape:
        raise ValueError("triad arrays must have identical shapes")
    if out is None:
        out = np.empty_like(b)
    np.multiply(c, scalar, out=out)
    out += b
    return out


def stream_copy(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """STREAM Copy: ``c[i] = a[i]`` (one load, one store)."""
    if out is None:
        out = np.empty_like(a)
    np.copyto(out, a)
    return out


def stream_scale(
    a: np.ndarray, scalar: float, out: np.ndarray | None = None
) -> np.ndarray:
    """STREAM Scale: ``b[i] = scalar * c[i]`` (one load, one store)."""
    if out is None:
        out = np.empty_like(a)
    np.multiply(a, scalar, out=out)
    return out


def stream_add(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """STREAM Add: ``c[i] = a[i] + b[i]`` (two loads, one store)."""
    if a.shape != b.shape:
        raise ValueError("add arrays must have identical shapes")
    if out is None:
        out = np.empty_like(a)
    np.add(a, b, out=out)
    return out


#: Bytes moved per element for each STREAM kernel (FP64).
STREAM_BYTES_PER_ELEMENT = {
    "copy": 16,  # 1 load + 1 store
    "scale": 16,
    "add": 24,  # 2 loads + 1 store
    "triad": 24,
}


@register(
    name="triad",
    category="micro",
    programming_model="OpenMP",
    description="Triad used for HBM bandwidth",
)
class Triad(MicroBenchmark):
    """The Memory Bandwidth (triad) row of Table II."""

    def __init__(self, functional_elements: int = 1 << 16) -> None:
        self.functional_elements = functional_elements

    def params(self) -> dict:
        return {"stream_factor": STREAM_FACTOR}

    def _functional_check(self) -> None:
        b = np.linspace(0.0, 1.0, self.functional_elements)
        c = np.linspace(1.0, 2.0, self.functional_elements)
        a = triad(b, c, 3.0)
        if not np.allclose(a, b + 3.0 * c):
            raise AssertionError("triad numerics diverged")

    def _measure_once(
        self, engine: PerfEngine, n_stacks: int, rep: int
    ) -> Measurement:
        # Timed leg at paper scale.
        spec = triad_kernel(triad_array_bytes(engine))
        elapsed = self._kernel_elapsed(engine, spec, n_stacks, rep)
        return Measurement(elapsed_s=elapsed, work=spec.total_bytes, unit="B/s")
