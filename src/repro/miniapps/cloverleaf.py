"""CloverLeaf: compressible-Euler hydrodynamics (Section V-A.2).

"Cloverleaf is a Lagrangian-Eulerian hydrodynamics benchmark, which
represents a memory-bandwidth-bound workload. ... the mini-app computes
the solution of compressible Euler equations; a system of four partial
differential equations representing the conservation of energy, density,
and momentum. ... A grid of size 15360 (~47 GB) is solved on each rank,
and the results are weakly scaled up to a full node. ... The number of
cells divided by the total runtime represents the Figure of Merit."

Functional leg: a real 2D finite-volume compressible Euler solver —
ideal-gas EOS, HLL Riemann fluxes, dimensionally-split updates, CFL
timestep control, periodic or reflective boundaries, and an MPI-decomposed
driver with halo exchange over the simulated fabric.  Conservation and
shock-tube behaviour are validated in the test suite.

FOM leg: memory-bandwidth-bound cells/second with the calibrated achieved
fraction of stream bandwidth and the measured weak-scaling efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registry import register
from ..errors import ConfigurationError
from ..runtime.mpi import Blocking, Communicator
from ..sim.calibration import CloverLeafCalibration, get_app_calibration
from ..sim.engine import PerfEngine
from .base import MiniApp

__all__ = [
    "EulerState",
    "EulerSolver2D",
    "sod_state",
    "exchange_halos",
    "run_distributed",
    "CloverLeaf",
    "PAPER_GRID",
    "BENCH_STEPS",
    "BYTES_PER_CELL_STEP",
]

GAMMA = 1.4

#: Paper problem: 15360^2 cells per rank (~47 GB of field data).
PAPER_GRID = 15_360

#: FOM model constants: a CloverLeaf benchmark run advances ~87 steps and
#: each step streams ~469 bytes per cell through HBM (the ~15 field
#: arrays touched by the PdV, flux and advection kernels).  Their product
#: is what the bandwidth-bound FOM depends on.
BENCH_STEPS = 87
BYTES_PER_CELL_STEP = 469.0


@dataclass
class EulerState:
    """Conserved variables on a 2D grid: [rho, rho*u, rho*v, E]."""

    u: np.ndarray  # (4, ny, nx)

    def __post_init__(self) -> None:
        if self.u.ndim != 3 or self.u.shape[0] != 4:
            raise ConfigurationError("state must be (4, ny, nx)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[1], self.u.shape[2]

    @property
    def density(self) -> np.ndarray:
        return self.u[0]

    @property
    def momentum_x(self) -> np.ndarray:
        return self.u[1]

    @property
    def momentum_y(self) -> np.ndarray:
        return self.u[2]

    @property
    def energy(self) -> np.ndarray:
        return self.u[3]

    def primitives(self) -> tuple[np.ndarray, ...]:
        """(rho, u, v, p) with the ideal-gas EOS."""
        rho = self.u[0]
        vx = self.u[1] / rho
        vy = self.u[2] / rho
        kinetic = 0.5 * rho * (vx * vx + vy * vy)
        p = (GAMMA - 1.0) * (self.u[3] - kinetic)
        return rho, vx, vy, p

    def totals(self) -> np.ndarray:
        """Conserved totals [mass, mom_x, mom_y, energy] (for tests)."""
        return self.u.sum(axis=(1, 2))


def sod_state(n: int = 128, axis: str = "x") -> EulerState:
    """The Sod shock tube, extruded to 2D along *axis*."""
    u = np.zeros((4, n, n))
    rho = np.where(np.arange(n) < n // 2, 1.0, 0.125)
    p = np.where(np.arange(n) < n // 2, 1.0, 0.1)
    if axis == "x":
        u[0] = rho[None, :]
        u[3] = (p / (GAMMA - 1.0))[None, :]
    elif axis == "y":
        u[0] = rho[:, None]
        u[3] = (p / (GAMMA - 1.0))[:, None]
    else:
        raise ConfigurationError(f"bad axis {axis!r}")
    return EulerState(u)


def _hll_flux(ul: np.ndarray, ur: np.ndarray) -> np.ndarray:
    """HLL flux for the 1D Euler system along the last axis.

    ``ul``/``ur`` are left/right conserved states (4, ...) at each
    interface; returns the interface flux (4, ...).
    """

    def prim(u):
        rho = u[0]
        v = u[1] / rho
        vt = u[2] / rho
        p = (GAMMA - 1.0) * (u[3] - 0.5 * rho * (v * v + vt * vt))
        p = np.maximum(p, 1e-12)
        return rho, v, vt, p

    def flux(u, rho, v, p):
        f = np.empty_like(u)
        f[0] = u[1]
        f[1] = u[1] * v + p
        f[2] = u[2] * v
        f[3] = (u[3] + p) * v
        return f

    rl, vl, _, pl = prim(ul)
    rr, vr, _, pr = prim(ur)
    cl = np.sqrt(GAMMA * pl / rl)
    cr = np.sqrt(GAMMA * pr / rr)
    sl = np.minimum(vl - cl, vr - cr)
    sr = np.maximum(vl + cl, vr + cr)
    fl = flux(ul, rl, vl, pl)
    fr = flux(ur, rr, vr, pr)
    # HLL: F = (sr*Fl - sl*Fr + sl*sr*(Ur - Ul)) / (sr - sl), bounded by
    # the pure upwind fluxes when all waves move one way.
    denom = np.where(np.abs(sr - sl) < 1e-12, 1e-12, sr - sl)
    fhll = (sr * fl - sl * fr + sl * sr * (ur - ul)) / denom
    out = np.where(sl >= 0.0, fl, np.where(sr <= 0.0, fr, fhll))
    return out


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minmod slope limiter: 0 at extrema, the smaller slope else."""
    return np.where(
        a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b)
    )


class EulerSolver2D:
    """Dimensionally-split HLL finite-volume solver on a periodic or
    reflective square domain of unit cell size.

    ``order=1`` is the plain Godunov/HLL scheme; ``order=2`` adds
    MUSCL reconstruction (minmod-limited linear slopes), sharpening
    shocks and contacts while remaining conservative and positive.
    """

    def __init__(
        self,
        state: EulerState,
        cfl: float = 0.4,
        boundary: str = "periodic",
        order: int = 1,
    ) -> None:
        if boundary not in ("periodic", "reflective"):
            raise ConfigurationError(f"bad boundary {boundary!r}")
        if not (0.0 < cfl < 1.0):
            raise ConfigurationError("CFL must be in (0, 1)")
        if order not in (1, 2):
            raise ConfigurationError("order must be 1 or 2")
        self.state = state
        self.cfl = cfl
        self.boundary = boundary
        self.order = order
        self.time = 0.0
        self.steps_taken = 0

    # -- timestep -------------------------------------------------------------

    def stable_dt(self) -> float:
        rho, vx, vy, p = self.state.primitives()
        c = np.sqrt(GAMMA * np.maximum(p, 1e-12) / rho)
        smax = float(np.max(np.abs(vx) + c)) + float(np.max(np.abs(vy) + c))
        return self.cfl / max(smax, 1e-12)

    # -- boundaries ------------------------------------------------------------

    def _pad(self, u: np.ndarray, axis: int, width: int = 1) -> np.ndarray:
        if self.boundary == "periodic":
            lo = u.take(range(-width, 0), axis=axis)
            hi = u.take(range(width), axis=axis)
            return np.concatenate([lo, u, hi], axis=axis)
        # Reflective: mirror the first/last `width` cells (reversed) and
        # flip the normal momentum.  Callers always arrange the sweep's
        # normal momentum at component 1 before padding.
        lo = u.take(range(width - 1, -1, -1), axis=axis).copy()
        hi = u.take(range(-1, -width - 1, -1), axis=axis).copy()
        lo[1] *= -1.0
        hi[1] *= -1.0
        return np.concatenate([lo, u, hi], axis=axis)

    # -- sweeps --------------------------------------------------------------

    def _flux_divergence(self, u: np.ndarray, dt: float) -> np.ndarray:
        """dt * d(F)/dx along the last axis, for *u* already padded once
        (first order) or twice (MUSCL)."""
        if self.order == 1:
            f = _hll_flux(u[..., :-1], u[..., 1:])
            return dt * (f[..., 1:] - f[..., :-1])
        # MUSCL: minmod-limited linear reconstruction needs two ghosts.
        centre = u[..., 1:-1]
        slope = _minmod(
            centre - u[..., :-2], u[..., 2:] - centre
        )
        right_face = centre + 0.5 * slope  # each cell's right interface
        left_face = centre - 0.5 * slope  # each cell's left interface
        f = _hll_flux(right_face[..., :-1], left_face[..., 1:])
        return dt * (f[..., 1:] - f[..., :-1])

    def _sweep_x(self, dt: float) -> None:
        u = self._pad(self.state.u, axis=2, width=self.order)
        self.state.u -= self._flux_divergence(u, dt)

    def _sweep_y(self, dt: float) -> None:
        # Swap the roles of the x and y momenta so the HLL kernel (which
        # treats component 1 as the normal momentum) sweeps along y.
        u = self._pad(self.state.u[[0, 2, 1, 3]], axis=1, width=self.order)
        swapped = np.swapaxes(u, 1, 2)
        du = np.swapaxes(self._flux_divergence(swapped, dt), 1, 2)
        self.state.u -= du[[0, 2, 1, 3]]

    def step(self, dt: float | None = None) -> float:
        """One Strang-split step; returns the dt used."""
        if dt is None:
            dt = self.stable_dt()
        self._sweep_x(0.5 * dt)
        self._sweep_y(dt)
        self._sweep_x(0.5 * dt)
        self.time += dt
        self.steps_taken += 1
        return dt

    def run(self, steps: int) -> EulerState:
        for _ in range(steps):
            self.step()
        return self.state


def exchange_halos(
    comm: Communicator, u: np.ndarray, left: int | None, right: int | None
) -> Blocking:
    """Exchange one-column halos with strip-decomposition neighbours.

    A blocking exchange for a generator rank program: ``halo_l, halo_r =
    yield from exchange_halos(comm, u, left, right)`` gives (halo from
    left neighbour, halo from right neighbour); the payloads ride the
    simulated fabric, advancing virtual clocks.
    """
    reqs = []
    if right is not None:
        reqs.append(comm.Isend(np.ascontiguousarray(u[:, :, -1]), right, tag=11))
    if left is not None:
        reqs.append(comm.Isend(np.ascontiguousarray(u[:, :, 0]), left, tag=12))
    from_left = from_right = None
    if left is not None:
        from_left = yield from comm.Irecv(left, tag=11).wait()
    if right is not None:
        from_right = yield from comm.Irecv(right, tag=12).wait()
    yield from comm.Waitall(reqs)
    return from_left, from_right


def run_distributed(
    engine,
    n: int = 32,
    steps: int = 6,
    n_ranks: int = 4,
    initial: EulerState | None = None,
) -> tuple[EulerState, float]:
    """Weak-scaled CloverLeaf over the simulated MPI fabric.

    Strip-decomposes a periodic ``n x n`` problem along x across
    *n_ranks* ranks (one per stack), exchanging one-column halos through
    the fabric model each sweep.  Returns the reassembled global state
    and the slowest rank's virtual time (compute assumed overlapped; the
    time reflects communication).  Bit-identical to the serial solver —
    asserted by the integration tests.
    """
    from ..runtime.mpi import Communicator, SimMPI

    if n % n_ranks != 0:
        raise ConfigurationError("n must divide evenly across ranks")
    width = n // n_ranks
    base = initial if initial is not None else sod_state(n)
    # Pre-compute the serial timestep sequence so all ranks agree.
    probe = EulerSolver2D(EulerState(base.u.copy()), boundary="periodic")
    dts = [probe.step() for _ in range(steps)]

    def sweep_x(local: np.ndarray, halo_l, halo_r, dt: float) -> np.ndarray:
        padded = np.concatenate(
            [halo_l[:, :, None], local, halo_r[:, :, None]], axis=2
        )
        f = _hll_flux(padded[:, :, :-1], padded[:, :, 1:])
        return local - dt * (f[:, :, 1:] - f[:, :, :-1])

    def sweep_y(local: np.ndarray, dt: float) -> np.ndarray:
        swapped = local[[0, 2, 1, 3]]
        u_y = np.concatenate(
            [swapped[:, -1:, :], swapped, swapped[:, :1, :]], axis=1
        )
        f = _hll_flux(u_y[:, :-1, :], u_y[:, 1:, :])
        return local - (dt * (f[:, 1:, :] - f[:, :-1, :]))[[0, 2, 1, 3]]

    def program(comm: Communicator):
        lo = comm.rank * width
        local = np.ascontiguousarray(base.u[:, :, lo : lo + width])
        left = (comm.rank - 1) % comm.size
        right = (comm.rank + 1) % comm.size
        for dt in dts:
            halo_l, halo_r = yield from exchange_halos(comm, local, left, right)
            local = sweep_x(local, halo_l, halo_r, 0.5 * dt)
            local = sweep_y(local, dt)
            halo_l, halo_r = yield from exchange_halos(comm, local, left, right)
            local = sweep_x(local, halo_l, halo_r, 0.5 * dt)
        return local, comm.now

    results = SimMPI(engine, n_ranks).run(program)
    strips = [r[0] for r in results]
    vtime = max(r[1] for r in results)
    return EulerState(np.concatenate(strips, axis=2)), vtime


@register(
    name="cloverleaf",
    category="miniapp",
    programming_model="SYCL, HIP, CUDA",
    description="Lagrangian-Eulerian hydrodynamics (memory-BW bound)",
)
class CloverLeaf(MiniApp):
    """FOM = cells / time (Mcells/s), weak scaled (Table V)."""

    app_key = "cloverleaf"

    def __init__(self, grid: int = PAPER_GRID, steps: int = BENCH_STEPS) -> None:
        self.grid = grid
        self.steps = steps

    # -- functional ----------------------------------------------------------

    def run_functional(self, n: int = 64, steps: int = 20) -> EulerSolver2D:
        solver = EulerSolver2D(sod_state(n), boundary="reflective")
        solver.run(steps)
        return solver

    # -- FOM -------------------------------------------------------------------

    def fom(self, engine: PerfEngine, n_stacks: int = 1) -> float:
        """Mcells/s across *n_stacks* weak-scaled ranks."""
        self._check_stacks(engine, n_stacks)
        cal = get_app_calibration("cloverleaf", engine.system.calibration_key)
        assert isinstance(cal, CloverLeafCalibration)
        bw = engine.stream_bw(1) * cal.stream_fraction
        per_rank = bw / (self.steps * BYTES_PER_CELL_STEP) / 1e6
        return per_rank * n_stacks * cal.weak_scaling.efficiency(n_stacks)
