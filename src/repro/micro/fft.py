"""Fast Fourier Transform (Section IV-A.6).

"We test Forward and Backward FFTs using a size of 4096 and 20,000 for
1D FFTs, and 10,000 for 2D FFTs.  We use the standard Cooley-Tukey FFT of
5 x N x log2 N number of flops for complex transform and 2.5 x N x log2 N
for real."

The functional implementation is our own FFT stack (the paper's oneMKL
substitute): an iterative radix-2 Cooley-Tukey for power-of-two sizes and
Bluestein's chirp-z algorithm for arbitrary sizes (20,000 and 10,000 are
not powers of two), with 2D transforms via row/column passes.  Everything
is validated against ``numpy.fft`` in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..core.registry import register
from ..core.result import Measurement
from ..sim.engine import PerfEngine
from ..sim.kernel import fft_kernel
from .common import MicroBenchmark

__all__ = [
    "fft",
    "ifft",
    "fft2",
    "ifft2",
    "Fft",
    "FFT_1D_SIZES",
    "FFT_2D_SIZE",
]

#: Paper sizes.
FFT_1D_SIZES = (4096, 20_000)
FFT_2D_SIZE = 10_000


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _fft_pow2(x: np.ndarray, sign: float) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT over the last axis."""
    n = x.shape[-1]
    y = np.asarray(x, dtype=np.complex128)[..., _bit_reverse_indices(n)].copy()
    m = 1
    while m < n:
        w = np.exp(sign * -2j * np.pi * np.arange(m) / (2 * m))
        y = y.reshape(*y.shape[:-1], n // (2 * m), 2 * m)
        even = y[..., :m]
        odd = y[..., m:] * w
        y = np.concatenate([even + odd, even - odd], axis=-1)
        y = y.reshape(*y.shape[:-2], n)
        m *= 2
    return y


def _bluestein(x: np.ndarray, sign: float) -> np.ndarray:
    """Chirp-z FFT for arbitrary sizes, built on the radix-2 kernel."""
    n = x.shape[-1]
    k = np.arange(n)
    chirp = np.exp(sign * -1j * np.pi * (k * k % (2 * n)) / n)
    a = np.zeros((*x.shape[:-1], _next_pow2(2 * n - 1)), dtype=np.complex128)
    a[..., :n] = np.asarray(x, dtype=np.complex128) * chirp
    m = a.shape[-1]
    b = np.zeros(m, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[m - n + 1 :] = np.conj(chirp[1:][::-1])
    conv = _fft_pow2(
        _fft_pow2(a, 1.0) * _fft_pow2(b, 1.0), -1.0
    ) / m
    return conv[..., :n] * chirp


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def fft(x: np.ndarray) -> np.ndarray:
    """Forward complex FFT over the last axis (any size, batched)."""
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0:
        raise ValueError("empty transform")
    if n == 1:
        return x.astype(np.complex128)
    if n & (n - 1) == 0:
        return _fft_pow2(x, 1.0)
    return _bluestein(x, 1.0)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse (backward) complex FFT over the last axis."""
    x = np.asarray(x)
    n = x.shape[-1]
    return np.conj(fft(np.conj(x))) / n


def fft2(x: np.ndarray) -> np.ndarray:
    """2D FFT over the last two axes (row pass, then column pass)."""
    if x.ndim < 2:
        raise ValueError("fft2 needs at least 2 dimensions")
    rows = fft(x)
    return np.swapaxes(fft(np.swapaxes(rows, -1, -2)), -1, -2)


def ifft2(x: np.ndarray) -> np.ndarray:
    """Inverse 2D FFT over the last two axes."""
    rows = ifft(x)
    return np.swapaxes(ifft(np.swapaxes(rows, -1, -2)), -1, -2)


@register(
    name="fft",
    category="micro",
    programming_model="SYCL",
    description="Backward and forward FFT",
)
class Fft(MicroBenchmark):
    """The single-precision C2C FFT rows of Table II."""

    def __init__(
        self,
        ndim: int = 1,
        n: int | None = None,
        backward: bool = False,
        functional_n: int = 96,
    ) -> None:
        if ndim not in (1, 2):
            raise ValueError("only 1D and 2D FFTs are benchmarked")
        self.ndim = ndim
        self.n = n if n is not None else (FFT_1D_SIZES[1] if ndim == 1 else FFT_2D_SIZE)
        self.backward = backward
        self.functional_n = functional_n

    def params(self) -> dict:
        return {"ndim": self.ndim, "n": self.n, "backward": self.backward}

    def _functional_check(self) -> None:
        rng = np.random.default_rng(7)
        fn = self.functional_n
        if self.ndim == 1:
            x = rng.standard_normal(fn) + 1j * rng.standard_normal(fn)
            ours = ifft(x) if self.backward else fft(x)
            ref = np.fft.ifft(x) if self.backward else np.fft.fft(x)
        else:
            x = rng.standard_normal((fn, fn)) + 1j * rng.standard_normal((fn, fn))
            ours = ifft2(x) if self.backward else fft2(x)
            ref = np.fft.ifft2(x) if self.backward else np.fft.fft2(x)
        if not np.allclose(ours, ref, rtol=1e-8, atol=1e-8):
            raise AssertionError("FFT numerics diverged")

    def _measure_once(
        self, engine: PerfEngine, n_stacks: int, rep: int
    ) -> Measurement:
        spec = fft_kernel(self.n, ndim=self.ndim)
        rate = engine.fft_rate(self.ndim, n_stacks)
        elapsed = engine.noise.apply(
            spec.flops / rate,
            f"{engine.system.name}:{spec.name}",
            rep,
        )
        return Measurement(elapsed_s=elapsed, work=spec.flops, unit="Flop/s")
