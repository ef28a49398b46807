"""OpenMC-style Monte Carlo neutral-particle transport (Section VI-A.1).

"OpenMC is a Monte Carlo neutral particle transport code ... We assess
the performance of OpenMC on a small modular reactor (SMR) benchmark
problem featuring depleted fuel ... The figure of merit is derived from
the rate of execution of the program when in the 'active' phase of the
simulation that involves highly complex tallying operations, and is
measured in units of thousands of particles per second."

Functional leg: a real multigroup Monte Carlo transport kernel,
vectorised over particles with **Woodcock delta-tracking** (the standard
GPU-friendly technique): sample flight distances against a majorant cross
section, accept real collisions with probability ``sigma_t(x)/sigma_maj``,
then absorb / scatter (with group transfer) / count fission production.
Tallies use the collision estimator on a spatial mesh with a per-nuclide
axis (the "depleted fuel" tally load).  Infinite-medium physics —
expected collisions per history ``sigma_t/sigma_a`` and
``k_inf = nu*sigma_f/sigma_a`` — gives sharp correctness oracles.

FOM leg: OpenMC is memory-latency/bandwidth bound (Table V); the paper
reports full-node FOMs only (Aurora 2039, H100 1191, MI250 720 kparticles/s;
Dawn was not measured — the model predicts it from the PVC rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from ..core.registry import register
from ..errors import ConfigurationError
from ..sim.calibration import OpenMcCalibration, get_app_calibration
from ..sim.engine import PerfEngine
from ..miniapps.base import MiniApp

__all__ = [
    "Material",
    "TransportProblem",
    "TransportResult",
    "KEffResult",
    "KEigenvalueSolver",
    "shannon_entropy",
    "run_distributed",
    "smr_materials",
    "OpenMc",
]


@dataclass(frozen=True)
class Material:
    """Multigroup macroscopic cross sections (per cm).

    ``scatter[g, g']`` is the group-transfer matrix; ``nu_fission`` is
    nu * sigma_f per group.  ``n_nuclides`` spreads the tally over a
    per-nuclide axis, modelling the depleted-fuel tally width.
    """

    name: str
    sigma_t: np.ndarray  # (G,)
    sigma_a: np.ndarray  # (G,)
    scatter: np.ndarray  # (G, G)
    nu_fission: np.ndarray  # (G,)
    n_nuclides: int = 1

    def __post_init__(self) -> None:
        g = self.sigma_t.shape[0]
        if self.sigma_a.shape != (g,) or self.scatter.shape != (g, g):
            raise ConfigurationError(f"{self.name}: inconsistent group data")
        if self.nu_fission.shape != (g,):
            raise ConfigurationError(f"{self.name}: bad nu_fission")
        total_out = self.sigma_a + self.scatter.sum(axis=1)
        if not np.allclose(total_out, self.sigma_t, rtol=1e-10):
            raise ConfigurationError(
                f"{self.name}: sigma_t must equal sigma_a + total scattering"
            )
        if np.any(self.sigma_t <= 0):
            raise ConfigurationError(f"{self.name}: sigma_t must be positive")

    @property
    def n_groups(self) -> int:
        return self.sigma_t.shape[0]


def smr_materials(n_nuclides: int = 16) -> tuple[Material, Material]:
    """Two-group depleted-fuel + moderator pair with SMR-like constants."""
    fuel = Material(
        name="depleted fuel",
        sigma_t=np.array([0.35, 0.60]),
        sigma_a=np.array([0.07, 0.22]),
        scatter=np.array([[0.26, 0.02], [0.00, 0.38]]),
        nu_fission=np.array([0.04, 0.30]),
        n_nuclides=n_nuclides,
    )
    moderator = Material(
        name="moderator",
        sigma_t=np.array([0.60, 1.80]),
        sigma_a=np.array([0.01, 0.03]),
        scatter=np.array([[0.54, 0.05], [0.00, 1.77]]),
        nu_fission=np.zeros(2),
    )
    return fuel, moderator


@dataclass
class TransportResult:
    """Tallies from one transport run."""

    flux: np.ndarray  # (mesh, mesh, mesh, groups, nuclides) collision tally
    collisions: int
    absorptions: int
    leaks: int
    fission_production: float
    histories: int
    #: Banked fission sites (S, 3) and their statistical weights (S,);
    #: populated when the run banks fission (k-eigenvalue mode).
    fission_sites: np.ndarray | None = None
    fission_weights: np.ndarray | None = None

    @property
    def k_estimate(self) -> float:
        """Collision-estimator k: fission neutrons produced per history."""
        return self.fission_production / self.histories

    @property
    def collisions_per_history(self) -> float:
        return self.collisions / self.histories

    @property
    def leakage_fraction(self) -> float:
        return self.leaks / self.histories


class TransportProblem:
    """A box of side ``size`` cm with a checkerboard fuel/moderator
    lattice on an ``nmesh^3`` mesh (``vacuum``) or an infinite medium
    (``reflective`` boundaries, single material)."""

    def __init__(
        self,
        materials: tuple[Material, ...],
        size: float = 40.0,
        nmesh: int = 4,
        boundary: str = "vacuum",
        checkerboard: bool = True,
    ) -> None:
        if boundary not in ("vacuum", "reflective"):
            raise ConfigurationError(f"bad boundary {boundary!r}")
        if not materials:
            raise ConfigurationError("need at least one material")
        groups = {m.n_groups for m in materials}
        if len(groups) != 1:
            raise ConfigurationError("materials disagree on group count")
        self.materials = materials
        self.size = float(size)
        self.nmesh = nmesh
        self.boundary = boundary
        self.checkerboard = checkerboard and len(materials) > 1
        self.n_groups = groups.pop()
        self.n_nuclides = max(m.n_nuclides for m in materials)
        # Majorant over materials and groups (delta tracking).
        self.sigma_maj = float(max(m.sigma_t.max() for m in materials))

    # -- geometry --------------------------------------------------------

    def mesh_index(self, pos: np.ndarray) -> np.ndarray:
        """Mesh cell indices (N, 3) for positions (N, 3)."""
        idx = np.floor(pos / self.size * self.nmesh).astype(np.int64)
        return np.clip(idx, 0, self.nmesh - 1)

    def material_id(self, pos: np.ndarray) -> np.ndarray:
        if not self.checkerboard:
            return np.zeros(pos.shape[0], dtype=np.int64)
        idx = self.mesh_index(pos)
        return (idx.sum(axis=1) % 2).astype(np.int64)

    # -- transport ----------------------------------------------------------

    def run(
        self,
        n_particles: int,
        seed: int = 0,
        source: np.ndarray | None = None,
        bank_fission: bool = False,
    ) -> TransportResult:
        """Transport *n_particles* histories with delta tracking.

        ``source`` overrides the default uniform birth positions (the
        k-eigenvalue solver feeds the previous generation's fission bank);
        ``bank_fission`` records fission sites + weights in the result.
        """
        if n_particles < 1:
            raise ConfigurationError("need at least one particle")
        rng = np.random.default_rng(seed)
        if source is not None:
            source = np.asarray(source, dtype=float)
            if source.shape != (n_particles, 3):
                raise ConfigurationError(
                    f"source must be ({n_particles}, 3), got {source.shape}"
                )
            pos = np.clip(source.copy(), 0.0, self.size)
        else:
            pos = rng.uniform(0.0, self.size, (n_particles, 3))
        mu = rng.uniform(-1.0, 1.0, n_particles)
        phi = rng.uniform(0.0, 2.0 * np.pi, n_particles)
        sin_t = np.sqrt(1.0 - mu * mu)
        direction = np.stack(
            [sin_t * np.cos(phi), sin_t * np.sin(phi), mu], axis=1
        )
        group = np.zeros(n_particles, dtype=np.int64)  # born fast
        alive = np.ones(n_particles, dtype=bool)

        flux = np.zeros(
            (self.nmesh, self.nmesh, self.nmesh, self.n_groups, self.n_nuclides)
        )
        collisions = absorptions = leaks = 0
        fission_production = 0.0
        site_positions: list[np.ndarray] = []
        site_weights: list[np.ndarray] = []

        sig_t = np.stack([m.sigma_t for m in self.materials])  # (M, G)
        sig_a = np.stack([m.sigma_a for m in self.materials])
        nu_f = np.stack([m.nu_fission for m in self.materials])
        # Scatter CDF per material/group over outgoing groups.
        scat = np.stack([m.scatter for m in self.materials])  # (M, G, G)
        scat_tot = scat.sum(axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            scat_cdf = np.cumsum(scat, axis=2) / scat_tot[:, :, None]
        scat_cdf = np.nan_to_num(scat_cdf, nan=1.0)

        max_events = 10_000
        for _ in range(max_events):
            if not alive.any():
                break
            n_live = int(np.count_nonzero(alive))
            dist = -np.log(rng.uniform(size=n_live)) / self.sigma_maj
            pos[alive] += direction[alive] * dist[:, None]

            # Boundary handling.
            out = np.any((pos < 0.0) | (pos > self.size), axis=1) & alive
            if self.boundary == "vacuum":
                leaks += int(np.count_nonzero(out))
                alive &= ~out
            else:
                low = pos < 0.0
                high = pos > self.size
                direction = np.where(low | high, -direction, direction)
                pos = np.where(low, -pos, pos)
                pos = np.where(high, 2.0 * self.size - pos, pos)
                pos = np.clip(pos, 0.0, self.size)

            live_idx = np.flatnonzero(alive)
            if live_idx.size == 0:
                break
            mat = self.material_id(pos[live_idx])
            grp = group[live_idx]
            sigma_here = sig_t[mat, grp]
            real = rng.uniform(size=live_idx.size) < sigma_here / self.sigma_maj
            hit = live_idx[real]
            if hit.size == 0:
                continue

            collisions += hit.size
            mat_h = mat[real]
            grp_h = grp[real]
            mesh = self.mesh_index(pos[hit])
            nuc = rng.integers(0, self.n_nuclides, size=hit.size)
            np.add.at(
                flux, (mesh[:, 0], mesh[:, 1], mesh[:, 2], grp_h, nuc), 1.0
            )
            site_w = nu_f[mat_h, grp_h] / sig_t[mat_h, grp_h]
            fission_production += float(np.sum(site_w))
            if bank_fission:
                fissile = site_w > 0.0
                if np.any(fissile):
                    site_positions.append(pos[hit[fissile]].copy())
                    site_weights.append(site_w[fissile].copy())

            absorbed = rng.uniform(size=hit.size) < (
                sig_a[mat_h, grp_h] / sig_t[mat_h, grp_h]
            )
            absorptions += int(np.count_nonzero(absorbed))
            alive[hit[absorbed]] = False

            # Scattering: new group + isotropic redirection.
            scat_idx = hit[~absorbed]
            if scat_idx.size:
                cdf = scat_cdf[mat_h[~absorbed], grp_h[~absorbed]]
                u = rng.uniform(size=scat_idx.size)
                group[scat_idx] = (cdf < u[:, None]).sum(axis=1)
                mu = rng.uniform(-1.0, 1.0, scat_idx.size)
                phi = rng.uniform(0.0, 2.0 * np.pi, scat_idx.size)
                sin_t = np.sqrt(1.0 - mu * mu)
                direction[scat_idx] = np.stack(
                    [sin_t * np.cos(phi), sin_t * np.sin(phi), mu], axis=1
                )
        else:  # pragma: no cover - bounded-event safeguard
            raise RuntimeError("transport did not terminate")

        sites = weights = None
        if bank_fission:
            if site_positions:
                sites = np.concatenate(site_positions)
                weights = np.concatenate(site_weights)
            else:
                sites = np.empty((0, 3))
                weights = np.empty(0)
        return TransportResult(
            flux=flux,
            collisions=collisions,
            absorptions=absorptions,
            leaks=leaks,
            fission_production=fission_production,
            histories=n_particles,
            fission_sites=sites,
            fission_weights=weights,
        )


def shannon_entropy(
    sites: np.ndarray, weights: np.ndarray, size: float, nmesh: int
) -> float:
    """Shannon entropy of a fission source over a mesh (bits).

    OpenMC's standard source-convergence diagnostic: the entropy of the
    binned source distribution plateaus once the power iteration has
    converged the spatial shape.
    """
    if len(sites) == 0:
        return 0.0
    idx = np.clip(
        np.floor(sites / size * nmesh).astype(np.int64), 0, nmesh - 1
    )
    flat = np.ravel_multi_index((idx[:, 0], idx[:, 1], idx[:, 2]), (nmesh,) * 3)
    hist = np.bincount(flat, weights=weights, minlength=nmesh**3)
    p = hist / hist.sum()
    nonzero = p[p > 0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


@dataclass
class KEffResult:
    """Outcome of a k-eigenvalue power iteration."""

    k_per_batch: np.ndarray
    inactive: int
    #: Shannon entropy of the fission source per batch (bits).
    entropy_per_batch: np.ndarray | None = None

    @property
    def active_batches(self) -> np.ndarray:
        return self.k_per_batch[self.inactive :]

    @property
    def k_eff(self) -> float:
        return float(self.active_batches.mean())

    @property
    def k_std_error(self) -> float:
        active = self.active_batches
        if active.size < 2:
            return float("inf")
        return float(active.std(ddof=1) / np.sqrt(active.size))

    def source_converged(self, window: int = 3, tol: float = 0.15) -> bool:
        """True when the entropy has plateaued over the last *window*
        batches (the standard inactive-batch sufficiency check)."""
        h = self.entropy_per_batch
        if h is None or len(h) < window + 1:
            return False
        tail = h[-window:]
        return float(tail.max() - tail.min()) < tol


class KEigenvalueSolver:
    """Monte Carlo k-eigenvalue power iteration.

    The mode OpenMC runs reactors in: transport a generation from the
    current fission source, bank the fission sites it produces, estimate
    ``k = production / histories``, then resample the next generation's
    source from the bank.  Inactive batches converge the source; active
    batches accumulate the k statistics (the "active phase" whose rate
    defines the paper's FOM).
    """

    def __init__(
        self,
        problem: TransportProblem,
        particles_per_batch: int = 5000,
        inactive_batches: int = 5,
        active_batches: int = 10,
        seed: int = 0,
    ) -> None:
        if particles_per_batch < 10:
            raise ConfigurationError("need at least 10 particles per batch")
        if inactive_batches < 0 or active_batches < 1:
            raise ConfigurationError("bad batch configuration")
        self.problem = problem
        self.particles_per_batch = particles_per_batch
        self.inactive_batches = inactive_batches
        self.active_batches = active_batches
        self.seed = seed

    def solve(self) -> KEffResult:
        rng = np.random.default_rng(self.seed)
        n = self.particles_per_batch
        source: np.ndarray | None = None
        ks = []
        entropies = []
        total = self.inactive_batches + self.active_batches
        for batch in range(total):
            result = self.problem.run(
                n, seed=self.seed + 1 + batch, source=source, bank_fission=True
            )
            ks.append(result.k_estimate)
            sites = result.fission_sites
            weights = result.fission_weights
            assert sites is not None and weights is not None
            if len(sites) == 0:
                raise ConfigurationError(
                    "fission source died out (subcritical problem with too "
                    "few particles)"
                )
            entropies.append(
                shannon_entropy(
                    sites, weights, self.problem.size, self.problem.nmesh
                )
            )
            # Resample n sites with probability proportional to weight.
            p = weights / weights.sum()
            idx = rng.choice(len(sites), size=n, p=p)
            source = sites[idx]
        return KEffResult(
            k_per_batch=np.array(ks),
            inactive=self.inactive_batches,
            entropy_per_batch=np.array(entropies),
        )


def run_distributed(
    comm, problem: TransportProblem, histories_per_rank: int, seed: int = 0
) -> Generator[object, None, TransportResult]:
    """Weak-scaled transport over the simulated MPI job (a generator rank
    program for :meth:`repro.runtime.mpi.SimMPI.run`).

    Each rank transports its own histories with an independent RNG
    stream, then the mesh tallies and scalar counters are reduced —
    exactly OpenMC's domain-replicated mode.  The reduced result equals
    the sum of the per-rank runs by construction (tested).
    """
    local = problem.run(histories_per_rank, seed=seed + 1000 * comm.rank)
    flux = yield from comm.Allreduce(local.flux)
    counters = yield from comm.Allreduce(
        np.array(
            [
                float(local.collisions),
                float(local.absorptions),
                float(local.leaks),
                local.fission_production,
            ]
        )
    )
    return TransportResult(
        flux=flux,
        collisions=int(counters[0]),
        absorptions=int(counters[1]),
        leaks=int(counters[2]),
        fission_production=float(counters[3]),
        histories=histories_per_rank * comm.size,
    )


@register(
    name="openmc",
    category="app",
    programming_model="OpenMP",
    description="Monte Carlo particle transport, SMR depleted-fuel tallies",
)
class OpenMc(MiniApp):
    """FOM = thousand particles / second (Table V), full node."""

    app_key = "openmc"

    def run_functional(
        self, n_particles: int = 2000, seed: int = 0
    ) -> TransportResult:
        problem = TransportProblem(smr_materials(), nmesh=4)
        return problem.run(n_particles, seed)

    def fom(self, engine: PerfEngine, n_stacks: int | None = None) -> float:
        """kparticles/s with *n_stacks* devices (default: full node)."""
        if n_stacks is None:
            n_stacks = engine.node.n_stacks
        self._check_stacks(engine, n_stacks)
        cal = get_app_calibration("openmc", engine.system.calibration_key)
        assert isinstance(cal, OpenMcCalibration)
        return cal.kparticles_per_device * n_stacks
