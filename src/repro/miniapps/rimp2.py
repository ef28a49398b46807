"""GAMESS RI-MP2 mini-app (Section V-A.4).

"To help explore offloading GAMESS to GPUs, a mini-app for the RI-MP2
method was developed, and it implements the computation of the
perturbative correction.  The main portion of the mini-app is a call to
DGEMM and a reduction ... the FOM is defined by 1/walltime(h), and a
single input (W90.rand, an artificial input with the same data structure
of 90 water clusters) was used."

Functional leg: the actual RI-MP2 correlation-energy algorithm on
synthetic (random, W90.rand-style) inputs — build (ia|jb) integrals from
3-index RI factors ``B[P, i, a]`` with a DGEMM over the auxiliary index,
then reduce with the MP2 energy denominators.  Validated against a
direct O(o^2 v^2 P) reference contraction in the tests.

FOM leg: walltime = F_total / DGEMM-rate + serial overhead, strong-scaled
over stacks (Table V: "DGEMM bound", strong scaling).  On JLSE-MI250 the
build step raises :class:`repro.errors.BuildError`, reproducing the
paper's missing column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..core.registry import register
from ..dtypes import Precision
from ..errors import BuildError, ConfigurationError
from ..sim.calibration import Rimp2Calibration, get_app_calibration
from ..sim.engine import PerfEngine
from .base import MiniApp

__all__ = [
    "Rimp2Input",
    "make_input",
    "rimp2_energy",
    "rimp2_energy_distributed",
    "rimp2_energy_reference",
    "Rimp2",
    "TOTAL_FLOPS_W90",
]

#: Total DGEMM work of the W90.rand input, back-solved from the paper's
#: Table VI walltimes against the measured DGEMM rates (2.37e15 flops
#: reproduces all six PVC cells to within a few percent).
TOTAL_FLOPS_W90 = 2.3746e15


@dataclass(frozen=True)
class Rimp2Input:
    """Synthetic RI-MP2 problem data.

    ``b[P, i, a]`` are the RI 3-index factors (auxiliary P, occupied i,
    virtual a); ``e_occ``/``e_virt`` the orbital energies.
    """

    b: np.ndarray
    e_occ: np.ndarray
    e_virt: np.ndarray

    def __post_init__(self) -> None:
        p, o, v = self.b.shape
        if self.e_occ.shape != (o,) or self.e_virt.shape != (v,):
            raise ConfigurationError("orbital energy shapes do not match B")
        if np.any(self.e_occ >= 0) or np.any(self.e_virt <= 0):
            raise ConfigurationError(
                "occupied energies must be negative, virtuals positive"
            )

    @property
    def sizes(self) -> tuple[int, int, int]:
        return self.b.shape  # (P, o, v)


def make_input(
    n_aux: int = 24, n_occ: int = 8, n_virt: int = 16, seed: int = 0
) -> Rimp2Input:
    """A W90.rand-style random input with a proper HOMO-LUMO gap."""
    rng = np.random.default_rng(seed)
    return Rimp2Input(
        b=rng.standard_normal((n_aux, n_occ, n_virt)) / np.sqrt(n_aux),
        e_occ=-rng.uniform(0.5, 2.0, n_occ),
        e_virt=rng.uniform(0.5, 2.0, n_virt),
    )


def rimp2_energy(inp: Rimp2Input) -> float:
    """RI-MP2 correlation energy via the DGEMM + reduction algorithm.

    For each occupied pair (i, j): ``V_ab = B[:, i, :].T @ B[:, j, :]``
    (the DGEMM the mini-app offloads), then the spin-adapted closed-shell
    reduction ``sum_ab V_ab (2 V_ab - V_ba) / (e_i + e_j - e_a - e_b)``.
    """
    p, o, v = inp.sizes
    energy = 0.0
    for i in range(o):
        bi = inp.b[:, i, :]  # (P, v)
        for j in range(o):
            bj = inp.b[:, j, :]
            v_ab = bi.T @ bj  # the DGEMM
            denom = (
                inp.e_occ[i]
                + inp.e_occ[j]
                - inp.e_virt[:, None]
                - inp.e_virt[None, :]
            )
            energy += float(np.sum(v_ab * (2.0 * v_ab - v_ab.T) / denom))
    return energy


def rimp2_energy_distributed(
    comm, inp: Rimp2Input
) -> Generator[object, None, float]:
    """Strong-scaled RI-MP2 over the simulated MPI job (a generator rank
    program: ``SimMPI.run(lambda comm: rimp2_energy_distributed(comm, inp))``).

    The mini-app's decomposition: occupied pairs (i, j) are dealt
    round-robin to ranks, each rank runs its DGEMMs + reductions, and one
    Allreduce sums the correlation energy.  Bit-identical to the serial
    algorithm (the pair sum is exact, not statistical).
    """
    import numpy as np

    p, o, v = inp.sizes
    local = 0.0
    pairs = [(i, j) for i in range(o) for j in range(o)]
    for idx in range(comm.rank, len(pairs), comm.size):
        i, j = pairs[idx]
        v_ab = inp.b[:, i, :].T @ inp.b[:, j, :]
        denom = (
            inp.e_occ[i]
            + inp.e_occ[j]
            - inp.e_virt[:, None]
            - inp.e_virt[None, :]
        )
        local += float(np.sum(v_ab * (2.0 * v_ab - v_ab.T) / denom))
    total = yield from comm.Allreduce(np.array([local]))
    return float(total[0])


def rimp2_energy_reference(inp: Rimp2Input) -> float:
    """Direct contraction without the per-pair DGEMM factorisation."""
    # (ia|jb) = sum_P B[P,i,a] B[P,j,b]
    iajb = np.einsum("pia,pjb->iajb", inp.b, inp.b)
    denom = (
        inp.e_occ[:, None, None, None]
        + inp.e_occ[None, None, :, None]
        - inp.e_virt[None, :, None, None]
        - inp.e_virt[None, None, None, :]
    )
    return float(
        np.sum(iajb * (2.0 * iajb - np.swapaxes(iajb, 1, 3)) / denom)
    )


@register(
    name="rimp2",
    category="miniapp",
    programming_model="OpenMP",
    description="GAMESS RI-MP2 perturbative correction (DGEMM bound)",
)
class Rimp2(MiniApp):
    """FOM = 1 / walltime(h), strong scaled (Table V)."""

    app_key = "rimp2"

    def __init__(self, total_flops: float = TOTAL_FLOPS_W90) -> None:
        self.total_flops = total_flops

    # -- functional ----------------------------------------------------------

    def run_functional(self, inp: Rimp2Input | None = None) -> float:
        return rimp2_energy(inp or make_input())

    # -- FOM -------------------------------------------------------------------

    def walltime_s(self, engine: PerfEngine, n_stacks: int = 1) -> float:
        """Strong-scaled walltime: DGEMM time + serial overhead.

        Calls :meth:`build` first; on JLSE-MI250 this raises
        :class:`repro.errors.BuildError` (the paper's missing cells).
        """
        self._check_stacks(engine, n_stacks)
        cal = get_app_calibration("rimp2", engine.system.calibration_key)
        assert isinstance(cal, Rimp2Calibration)
        if cal.build_fails:
            raise BuildError(
                f"{self.fom_spec.name} failed to build on "
                f"{engine.system.display_name} (AMD Fortran compiler)"
            )
        self.build(engine)
        dgemm = engine.gemm_rate(Precision.FP64, n_stacks)
        return self.total_flops / dgemm + cal.serial_seconds

    def fom(self, engine: PerfEngine, n_stacks: int = 1) -> float:
        return 3600.0 / self.walltime_s(engine, n_stacks)
