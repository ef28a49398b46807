"""Extension benches: autotuning, power, Frontier/A100.

These go beyond the paper's tables — each maps to a discussion point
(the ppwi/wgsize search, the TDP/power-cap narrative, the future-work
Frontier comparison, and the A100 data point).
"""

import pytest

from repro.dtypes import Precision
from repro.hw.extensions import frontier, jlse_a100
from repro.hw.ids import StackRef
from repro.miniapps import BudeAutotuner, MiniBude
from repro.sim.engine import PerfEngine
from repro.sim.kernel import gemm_kernel
from repro.sim.noise import QUIET
from repro.sim.power import PowerModel


class TestAutotuning:
    def test_bude_sweep(self, benchmark, aurora):
        tuner = BudeAutotuner(aurora)
        best = benchmark(tuner.best)
        benchmark.extra_info["best"] = str(best)
        assert best.ppwi == 16
        assert 0.42 <= tuner.tuned_fraction_of_peak() <= 0.52


class TestPower:
    @pytest.mark.parametrize("system", ["aurora", "dawn"])
    def test_dgemm_energy_to_solution(self, benchmark, engines, system):
        pm = PowerModel(engines[system])
        spec = gemm_kernel(Precision.FP64)
        report = benchmark(
            lambda: pm.energy_to_solution(spec, engines[system].node.n_stacks)
        )
        benchmark.extra_info["energy_j"] = f"{report.energy_j:.0f} J"
        assert report.energy_j > 0

    def test_aurora_beats_dawn_fp64_per_watt(self, benchmark, engines):
        def ratio():
            a = PowerModel(engines["aurora"]).flops_per_watt(Precision.FP64)
            d = PowerModel(engines["dawn"]).flops_per_watt(Precision.FP64)
            return a / d

        value = benchmark(ratio)
        assert value > 1.0


class TestExtensionSystems:
    def test_frontier_matches_table_iv_points(self, benchmark):
        engine = PerfEngine(frontier(), noise=QUIET)

        def measure():
            return (
                engine.gemm_rate(Precision.FP64, 1),
                engine.stream_bw(1),
                engine.transfers.p2p_bw(StackRef(0, 0), StackRef(0, 1)),
            )

        dgemm, stream, gcd = benchmark(measure)
        benchmark.extra_info["dgemm"] = f"{dgemm / 1e12:.1f} TFlop/s"
        assert dgemm == pytest.approx(24.1e12, rel=0.06)
        assert stream == pytest.approx(1.3e12, rel=0.02)
        assert gcd == pytest.approx(37e9, rel=0.02)

    def test_a100_minibude_62_percent(self, benchmark):
        engine = PerfEngine(jlse_a100(), noise=QUIET)
        app = MiniBude()
        fom = benchmark(lambda: app.fom(engine, 1))
        benchmark.extra_info["fom"] = f"{fom:.1f} GI/s"
        assert app.achieved_fp32_fraction(engine) == pytest.approx(0.62)
