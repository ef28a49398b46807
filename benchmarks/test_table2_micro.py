"""Regenerate Table II: every microbenchmark row at every scope.

Each benchmark measures the wall-clock cost of one full
repeat-and-take-best microbenchmark run (functional kernel + performance
model); the *simulated* rate it reproduces is attached as extra_info next
to the paper's published value.
"""

import pytest

from repro.analysis.paper_values import TABLE_II
from repro.core.runner import RunPlan
from repro.dtypes import Precision
from repro.micro.fft import Fft
from repro.micro.gemm import Gemm
from repro.micro.pcie import PcieBandwidth
from repro.micro.peak_flops import PeakFlops
from repro.micro.triad import Triad

_PLAN = RunPlan(repetitions=3, warmup=1)

_ROWS = {
    "fp64_flops": lambda: PeakFlops(Precision.FP64),
    "fp32_flops": lambda: PeakFlops(Precision.FP32),
    "triad": Triad,
    "pcie_h2d": lambda: PcieBandwidth("h2d"),
    "pcie_d2h": lambda: PcieBandwidth("d2h"),
    "pcie_bidir": lambda: PcieBandwidth("bidir"),
    "dgemm": lambda: Gemm(Precision.FP64),
    "sgemm": lambda: Gemm(Precision.FP32),
    "hgemm": lambda: Gemm(Precision.FP16),
    "bf16gemm": lambda: Gemm(Precision.BF16),
    "tf32gemm": lambda: Gemm(Precision.TF32),
    "i8gemm": lambda: Gemm(Precision.I8),
    "fft_1d": lambda: Fft(1),
    "fft_2d": lambda: Fft(2),
}

_SCOPES = {"aurora": {"1stack": 1, "1pvc": 2, "node": 12},
           "dawn": {"1stack": 1, "1pvc": 2, "node": 8}}
_SCOPE_KEY = {"1stack": 1, "1pvc": 2, "node": "node"}


@pytest.mark.parametrize("system", ["aurora", "dawn"])
@pytest.mark.parametrize("scope", ["1stack", "1pvc", "node"])
@pytest.mark.parametrize("row", sorted(_ROWS))
def test_table2_row(benchmark, engines, system, scope, row):
    engine = engines[system]
    n = _SCOPES[system][scope]
    bench = _ROWS[row]()

    result = benchmark(lambda: bench.measure(engine, n, _PLAN))
    paper = TABLE_II[row][system][_SCOPE_KEY[scope]]
    benchmark.extra_info["simulated"] = str(result.quantity)
    benchmark.extra_info["paper"] = f"{paper:.3g}"
    # Shape check: within the fidelity tolerances asserted in tests/.
    assert result.value == pytest.approx(paper, rel=0.16)
