"""The four mini-apps of the paper's Table V.

Importing this package registers every mini-app in the global registry.
"""

# The registering modules load with the package; the names resolve lazily.
from . import cloverleaf, minibude, miniqmc, rimp2  # noqa: F401
from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "base": ("MiniApp",),
        "bude_tuning": ("BudeAutotuner", "TuneResult"),
        "cloverleaf": (
            "BENCH_STEPS",
            "BYTES_PER_CELL_STEP",
            "PAPER_GRID",
            "CloverLeaf",
            "EulerSolver2D",
            "EulerState",
            "exchange_halos",
            "run_distributed",
            "sod_state",
        ),
        "minibude": (
            "FLOPS_PER_INTERACTION",
            "PAPER_ATOMS",
            "PAPER_POSES",
            "Deck",
            "MiniBude",
            "evaluate_poses",
            "make_deck",
            "pose_transforms",
        ),
        "miniqmc": (
            "PAPER_ELECTRONS",
            "PAPER_WALKERS_PER_GPU",
            "CubicBspline3D",
            "DmcDriver",
            "HarmonicTrialWavefunction",
            "MiniQmc",
            "SplineOrbitalSet",
            "VmcDriver",
        ),
        "rimp2": (
            "TOTAL_FLOPS_W90",
            "Rimp2",
            "Rimp2Input",
            "make_input",
            "rimp2_energy",
            "rimp2_energy_reference",
        ),
    },
)
