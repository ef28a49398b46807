"""HPCG-style conjugate-gradient benchmark.

The paper's introduction situates Dawn (#51) and Aurora (#2) on the June
2024 Top500 via LINPACK and HPCG, noting those machine-scale results "are
not always useful for application optimizations".  This module provides
the single-node analogue so the two headline benchmarks can be related to
the microbenchmarks:

* a **real CG solver** on the HPCG operator — the symmetric positive
  definite 27-point stencil on a 3D grid — with optional symmetric
  Gauss-Seidel preconditioning, validated against direct solves;
* a **performance model**: HPCG is bandwidth-bound (its arithmetic
  intensity is ~0.25 flop/byte, far left of every GPU's ridge point), so
  node HPCG flops ~ stream bandwidth x intensity — which is why Aurora's
  HPCG fraction-of-peak is tiny compared to its HPL number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..dtypes import Precision
from ..sim.engine import PerfEngine

# scipy is imported where the solver needs it: the analytic HPL/HPCG
# models (all `pvc-bench top500` uses) never touch it.
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "build_hpcg_operator",
    "CgResult",
    "conjugate_gradient",
    "HpcgModel",
    "HplModel",
]


def build_hpcg_operator(n: int) -> sp.csr_matrix:
    """The HPCG matrix: 27-point stencil on an n^3 grid.

    Diagonal 26, off-diagonals -1 to every 3D neighbour (the reference
    HPCG problem); symmetric positive definite.
    """
    import scipy.sparse as sp

    if n < 2:
        raise ValueError("grid must be at least 2^3")
    idx = np.arange(n**3).reshape(n, n, n)
    rows, cols, vals = [], [], []
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
    ]
    for dx, dy, dz in offsets:
        src = idx[
            max(0, -dx) : n - max(0, dx),
            max(0, -dy) : n - max(0, dy),
            max(0, -dz) : n - max(0, dz),
        ]
        dst = idx[
            max(0, dx) : n - max(0, -dx),
            max(0, dy) : n - max(0, -dy),
            max(0, dz) : n - max(0, -dz),
        ]
        rows.append(src.ravel())
        cols.append(dst.ravel())
        value = 26.0 if (dx, dy, dz) == (0, 0, 0) else -1.0
        vals.append(np.full(src.size, value))
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n**3, n**3),
    )
    return matrix


@dataclass(frozen=True)
class CgResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def _sym_gauss_seidel(a: sp.csr_matrix):
    """Symmetric Gauss-Seidel preconditioner (HPCG's smoother)."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    lower = sp.tril(a, format="csr")
    upper = sp.triu(a, format="csr")
    diag = a.diagonal()

    def apply(r: np.ndarray) -> np.ndarray:
        y = spla.spsolve_triangular(lower, r, lower=True)
        return spla.spsolve_triangular(upper, diag * y, lower=False)

    return apply


def conjugate_gradient(
    a: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 500,
    preconditioned: bool = True,
) -> CgResult:
    """(Preconditioned) conjugate gradients, the HPCG iteration."""
    if b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise ValueError("shape mismatch")
    precond = _sym_gauss_seidel(a) if preconditioned else (lambda r: r)
    x = np.zeros_like(b)
    r = b - a @ x
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b)) or 1.0
    for iteration in range(1, max_iter + 1):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        if res / b_norm < tol:
            return CgResult(x, iteration, res, True)
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return CgResult(x, max_iter, float(np.linalg.norm(r)), False)


class HpcgModel:
    """Single-node HPCG rate from the bandwidth model.

    HPCG moves ~(27 nonzeros x 12 B + vectors) per row per iteration for
    ~54 flops: an arithmetic intensity near 0.25 flop/B.  Bandwidth-bound
    everywhere, so: HPCG flops ~ stream_bw x intensity x overhead.
    """

    #: Effective flops per DRAM byte of the full CG iteration.
    INTENSITY = 0.25
    #: Fraction of stream bandwidth HPCG's irregular access sustains.
    ACCESS_EFFICIENCY = 0.72

    def __init__(self, engine: PerfEngine) -> None:
        self.engine = engine

    def node_rate(self) -> float:
        """Modelled node HPCG flop/s."""
        bw = self.engine.stream_bw(self.engine.node.n_stacks)
        return bw * self.INTENSITY * self.ACCESS_EFFICIENCY

    def fraction_of_peak(self) -> float:
        """HPCG/peak — the tiny ratio the Top500 HPCG list shows."""
        return self.node_rate() / self.engine.fma_rate(
            Precision.FP64, self.engine.node.n_stacks
        )


class HplModel:
    """Single-node HPL (LINPACK) rate: DGEMM-bound by construction."""

    #: HPL sustains most of DGEMM (panel factorisation overhead).
    DGEMM_FRACTION = 0.92

    def __init__(self, engine: PerfEngine) -> None:
        self.engine = engine

    def node_rate(self) -> float:
        return (
            self.engine.gemm_rate(Precision.FP64, self.engine.node.n_stacks)
            * self.DGEMM_FRACTION
        )

    def fraction_of_peak(self) -> float:
        return self.node_rate() / self.engine.fma_rate(
            Precision.FP64, self.engine.node.n_stacks
        )
