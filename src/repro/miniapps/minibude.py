"""miniBUDE: in-silico molecular docking (Section V-A.1).

"miniBUDE performs virtual screening on the NDM-1 protein by repeatedly
evaluating the energy of a single generation of poses for a number of
iterations, rendering it compute bound. ... an input deck of 2672
ligands, 2672 proteins and 983040 poses. ... The number of interactions
(in Billion Interactions/s) associated with this result is the FOM."

Functional leg: a real BUDE-style pairwise energy kernel — each pose is a
rigid-body transform (rotation + translation) of the ligand; the energy
sums a soft-sphere steric term and a distance-capped electrostatic term
over every ligand-atom x protein-atom pair, vectorised over poses.  All
arithmetic is FP32, like the real mini-app.

FOM leg: miniBUDE is FP32-flop-bound (Table V); the model charges
:data:`FLOPS_PER_INTERACTION` FP32 flops per pose-atom-atom interaction
and applies the system's achieved fraction of FP32 peak (Section V-B:
~45% on Aurora, ~49% on Dawn, ~30% on H100, ~26% on MI250).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registry import register
from ..core.units import GIGA
from ..dtypes import Precision
from ..errors import NotMeasuredError
from ..sim.calibration import MiniBudeCalibration, get_app_calibration
from ..sim.engine import PerfEngine
from ..sim.kernel import FLOPS_PER_INTERACTION
from .base import MiniApp

__all__ = [
    "Deck",
    "make_deck",
    "pose_transforms",
    "evaluate_poses",
    "MiniBude",
    "FLOPS_PER_INTERACTION",
    "PAPER_POSES",
    "PAPER_ATOMS",
]

#: Paper input deck: 2672 ligand atoms, 2672 protein atoms, 983040 poses.
PAPER_ATOMS = 2672
PAPER_POSES = 983_040


@dataclass(frozen=True)
class Deck:
    """A docking input deck."""

    ligand_pos: np.ndarray  # (L, 3) float32
    ligand_charge: np.ndarray  # (L,)
    ligand_radius: np.ndarray  # (L,)
    protein_pos: np.ndarray  # (P, 3)
    protein_charge: np.ndarray  # (P,)
    protein_radius: np.ndarray  # (P,)
    poses: np.ndarray  # (N, 6): three Euler angles + translation

    @property
    def n_interactions(self) -> int:
        return (
            self.poses.shape[0]
            * self.ligand_pos.shape[0]
            * self.protein_pos.shape[0]
        )


def make_deck(
    n_ligand: int = 64, n_protein: int = 64, n_poses: int = 128, seed: int = 0
) -> Deck:
    """A synthetic deck with NDM-1-like statistics (charges ~ +-0.5 e,
    van-der-Waals radii ~ 1.2-2.0 A, protein box ~ 30 A)."""
    rng = np.random.default_rng(seed)
    f32 = np.float32
    return Deck(
        ligand_pos=rng.uniform(-4, 4, (n_ligand, 3)).astype(f32),
        ligand_charge=rng.uniform(-0.5, 0.5, n_ligand).astype(f32),
        ligand_radius=rng.uniform(1.2, 2.0, n_ligand).astype(f32),
        protein_pos=rng.uniform(-15, 15, (n_protein, 3)).astype(f32),
        protein_charge=rng.uniform(-0.5, 0.5, n_protein).astype(f32),
        protein_radius=rng.uniform(1.2, 2.0, n_protein).astype(f32),
        poses=np.concatenate(
            [
                rng.uniform(-np.pi, np.pi, (n_poses, 3)),
                rng.uniform(-2, 2, (n_poses, 3)),
            ],
            axis=1,
        ).astype(f32),
    )


def pose_transforms(poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrices (N,3,3) and translations (N,3) from Euler poses."""
    poses = np.asarray(poses, dtype=np.float32)
    ax, ay, az = poses[:, 0], poses[:, 1], poses[:, 2]
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    n = poses.shape[0]
    rot = np.empty((n, 3, 3), dtype=np.float32)
    # R = Rz @ Ry @ Rx
    rot[:, 0, 0] = cz * cy
    rot[:, 0, 1] = cz * sy * sx - sz * cx
    rot[:, 0, 2] = cz * sy * cx + sz * sx
    rot[:, 1, 0] = sz * cy
    rot[:, 1, 1] = sz * sy * sx + cz * cx
    rot[:, 1, 2] = sz * sy * cx - cz * sx
    rot[:, 2, 0] = -sy
    rot[:, 2, 1] = cy * sx
    rot[:, 2, 2] = cy * cx
    return rot, poses[:, 3:6]


def evaluate_poses(
    deck: Deck, pose_block: slice | None = None
) -> np.ndarray:
    """BUDE-style energies for each pose (FP32).

    Energy per ligand-protein atom pair at distance r:

    * steric (soft sphere): ``k_s * max(0, (ra + rb) - r)^2``
    * electrostatic (capped Coulomb): ``k_e * qa*qb * max(0, 1 - r/rc)``
    """
    poses = deck.poses if pose_block is None else deck.poses[pose_block]
    rot, trans = pose_transforms(poses)
    # Transform ligand atoms per pose: (N, L, 3).
    lig = np.einsum("nij,lj->nli", rot, deck.ligand_pos) + trans[:, None, :]
    # Pairwise distances (N, L, P).
    diff = lig[:, :, None, :] - deck.protein_pos[None, None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1, dtype=np.float32))
    sigma = (
        deck.ligand_radius[None, :, None] + deck.protein_radius[None, None, :]
    )
    overlap = np.maximum(sigma - r, 0.0).astype(np.float32)
    steric = 100.0 * overlap * overlap
    qq = deck.ligand_charge[None, :, None] * deck.protein_charge[None, None, :]
    cutoff = np.float32(8.0)
    elec = 332.0 * qq * np.maximum(1.0 - r / cutoff, 0.0)
    return np.sum(steric + elec, axis=(1, 2), dtype=np.float32)


@register(
    name="minibude",
    category="miniapp",
    programming_model="SYCL, HIP, CUDA",
    description="BUDE virtual-screening energy evaluation (FP32 bound)",
)
class MiniBude(MiniApp):
    """FOM = Billion interactions / second (Table V)."""

    app_key = "minibude"

    def __init__(
        self, n_poses: int = PAPER_POSES, n_atoms: int = PAPER_ATOMS
    ) -> None:
        self.n_poses = n_poses
        self.n_atoms = n_atoms

    # -- functional ----------------------------------------------------------

    def run_functional(self, deck: Deck | None = None) -> np.ndarray:
        """Evaluate a (small) deck for real; returns pose energies."""
        return evaluate_poses(deck or make_deck())

    def best_pose(self, deck: Deck) -> int:
        """Index of the lowest-energy pose (the docking answer)."""
        return int(np.argmin(evaluate_poses(deck)))

    # -- FOM -------------------------------------------------------------------

    def interactions(self) -> float:
        """Total pose-atom-atom interactions per generation."""
        return float(self.n_poses) * self.n_atoms * self.n_atoms

    def fom(self, engine: PerfEngine, n_stacks: int = 1) -> float:
        """GInteractions/s.

        miniBUDE is not an MPI application: the paper measures one Stack
        (or one GPU/GCD) and, for Figure 3, doubles the single-Stack value
        to estimate a full PVC; requesting ``n_stacks > 1`` applies the
        same doubling rule rather than a measured multi-device run.
        """
        self._check_stacks(engine, n_stacks)
        cal = get_app_calibration("minibude", engine.system.calibration_key)
        assert isinstance(cal, MiniBudeCalibration)
        fp32_rate = engine.fma_rate(Precision.FP32, 1) * cal.fp32_fraction
        per_device = fp32_rate / FLOPS_PER_INTERACTION / GIGA
        return per_device * n_stacks

    def achieved_fp32_fraction(self, engine: PerfEngine) -> float:
        """Fraction of FP32 peak achieved (the Section V-B percentages)."""
        cal = get_app_calibration("minibude", engine.system.calibration_key)
        assert isinstance(cal, MiniBudeCalibration)
        return cal.fp32_fraction
