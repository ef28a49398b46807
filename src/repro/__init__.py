"""repro: a reproduction of "Ponte Vecchio Across the Atlantic" (SC 2024).

Single-node benchmarking of Intel PVC systems (Aurora, Dawn) against
NVIDIA H100 and AMD MI250 nodes — rebuilt on a simulated hardware
substrate (see DESIGN.md for the substitution rationale).

Quick start::

    from repro import PerfEngine, get_system, Precision
    engine = PerfEngine(get_system("aurora"))
    engine.fma_rate(Precision.FP64)        # ~17e12, Table II
    engine.stream_bw()                     # ~1e12

    from repro.analysis import table_ii
    print(table_ii().render())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "dtypes": ("Precision",),
        "errors": (
            "BuildError",
            "CalibrationError",
            "ConfigurationError",
            "NotMeasuredError",
            "ReproError",
            "TopologyError",
            "UnknownBenchmarkError",
            "UnknownSystemError",
        ),
        "hw.ids": ("StackRef",),
        "hw.systems": ("SYSTEM_NAMES", "System", "all_systems", "get_system"),
        "sim.engine": ("PerfEngine",),
        "sim.noise": ("NoiseModel",),
    },
)
__all__.append("__version__")
