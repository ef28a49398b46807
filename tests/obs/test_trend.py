"""Cross-run trend analytics over committed baseline snapshots."""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.trend import kernel_deltas, trend_report
from repro.obs.trend import _campaign_lines, _sweep_lines
from repro.profiler.baseline import build_snapshot, write_baseline


def _kernel_row(name, achieved_us, *, bound="compute", model_pct=95.0):
    return {
        "kernel": name,
        "bound": bound,
        "achieved_us": achieved_us,
        "model_pct": model_pct,
        "calls": 4,
    }


def _bench_entry(bench, system, device_us, *, kernels=()):
    entry = {
        "bench": bench,
        "system": system,
        "fom": 100.0,
        "device_us": device_us,
    }
    if kernels:
        entry["kernel_attribution"] = list(kernels)
        entry["kernels"] = len(kernels)
    return entry


def _campaign_entry(wall_s, hits, misses):
    evals = hits + misses
    return {
        "bench": "campaign-paper",
        "system": "jobs4",
        "wall_s": wall_s,
        "sim_cache_hits": hits,
        "sim_cache_misses": misses,
        "sim_cache_hit_rate": hits / evals if evals else 0.0,
    }


class TestKernelDeltas:
    def test_kernel_present_in_both_gets_a_ratio_line(self):
        base = {"kernel_attribution": [_kernel_row("gemm", 100.0)]}
        cur = {"kernel_attribution": [_kernel_row("gemm", 150.0)]}
        (line,) = kernel_deltas(base, cur)
        assert line == (
            "gemm [compute-bound] device 100.0us -> 150.0us (x1.5000)"
        )

    def test_new_kernel_reports_model_efficiency(self):
        cur = {
            "kernel_attribution": [
                _kernel_row("stream-triad", 42.0, bound="memory")
            ]
        }
        (line,) = kernel_deltas({}, cur)
        assert line == (
            "stream-triad [memory-bound] 42.0us achieved (95.0% of model)"
        )

    def test_dropped_kernel_is_called_out(self):
        base = {"kernel_attribution": [_kernel_row("gemm", 100.0)]}
        (line,) = kernel_deltas(base, {})
        assert "dropped" in line and line.startswith("gemm")

    def test_no_attribution_anywhere_yields_nothing(self):
        assert kernel_deltas({"device_us": 1.0}, {"device_us": 2.0}) == []


class TestCampaignLines:
    def test_both_snapshots_get_wall_and_cache_arrows(self):
        base = {"campaign-paper@jobs4": _campaign_entry(2.0, 900, 100)}
        cur = {"campaign-paper@jobs4": _campaign_entry(1.0, 950, 50)}
        (line,) = _campaign_lines(base, cur)
        assert "wall 2.00s -> 1.00s (x0.50, informational)" in line
        assert "sim-cache 90.0% -> 95.0%" in line

    def test_new_entry_is_flagged(self):
        cur = {"campaign-paper@jobs4": _campaign_entry(1.0, 950, 50)}
        (line,) = _campaign_lines({}, cur)
        assert line.endswith("[new entry]")
        assert "95.0% hit rate" in line

    def test_plain_bench_entries_are_ignored(self):
        entries = {"gemm@aurora": _bench_entry("gemm", "aurora", 5.0)}
        assert _campaign_lines(entries, entries) == []


class TestTrendReport:
    def _write(self, path, entries):
        write_baseline(path, build_snapshot(entries))
        return str(path)

    def test_needs_at_least_two_snapshots(self, tmp_path):
        path = self._write(tmp_path / "b0.json", [])
        with pytest.raises(ConfigurationError, match="at least two"):
            trend_report([path])

    def test_report_names_cache_and_kernel_movement(self, tmp_path):
        base = self._write(
            tmp_path / "b0.json",
            [
                _bench_entry(
                    "gemm",
                    "aurora",
                    100.0,
                    kernels=[_kernel_row("gemm-fp64", 100.0)],
                ),
                _campaign_entry(2.0, 900, 100),
            ],
        )
        cur = self._write(
            tmp_path / "b1.json",
            [
                _bench_entry(
                    "gemm",
                    "aurora",
                    150.0,
                    kernels=[_kernel_row("gemm-fp64", 150.0)],
                ),
                _campaign_entry(1.0, 950, 50),
            ],
        )
        report = trend_report([base, cur])
        assert "b0.json -> b1.json" in report
        assert "sim-cache 90.0% -> 95.0%" in report
        assert "kernel attribution:" in report
        assert (
            "gemm-fp64 [compute-bound] device 100.0us -> 150.0us (x1.5000)"
            in report
        )
        # device_us grew 50% — far past tolerance, so the gated
        # comparator must flag it in the same report.
        assert "regressed" in report

    def test_without_attribution_the_report_degrades_to_a_note(
        self, tmp_path
    ):
        base = self._write(
            tmp_path / "b0.json", [_bench_entry("gemm", "aurora", 100.0)]
        )
        cur = self._write(
            tmp_path / "b1.json", [_bench_entry("gemm", "aurora", 101.0)]
        )
        report = trend_report([base, cur])
        assert "not embedded in these snapshots" in report
        assert "profile full --write-baseline" in report

    def test_three_snapshots_yield_two_sections(self, tmp_path):
        paths = [
            self._write(
                tmp_path / f"b{i}.json",
                [_bench_entry("gemm", "aurora", 100.0 + i)],
            )
            for i in range(3)
        ]
        report = trend_report(paths)
        assert "b0.json -> b1.json" in report
        assert "b1.json -> b2.json" in report

    def test_trend_main_reads_every_positional(self, tmp_path, capsys):
        base = self._write(
            tmp_path / "b0.json", [_bench_entry("gemm", "aurora", 100.0)]
        )
        cur = self._write(
            tmp_path / "b1.json", [_bench_entry("gemm", "aurora", 100.0)]
        )
        assert main(["trend", base, cur]) == 0
        out = capsys.readouterr().out
        assert "perf trend across 2 snapshot(s)" in out

    def test_committed_baselines_are_trendable(self):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        report = trend_report(
            [
                os.path.join(root, "BENCH_0.json"),
                os.path.join(root, "BENCH_1.json"),
            ]
        )
        assert "sim-cache" in report
        assert "kernel attribution:" in report


def _sweep_entry(points_per_s, speedup, *, points=138240.0):
    return {
        "bench": "sweep",
        "system": "ci",
        "fom": 650000.0,
        "points": points,
        "points_per_s": points_per_s,
        "batch_speedup": speedup,
        "scalar_points_per_s": points_per_s / speedup,
        "verified_sample": 64.0,
        "wall_s": points / points_per_s,
    }


class TestSweepLines:
    def test_both_snapshots_get_throughput_arrows(self):
        (line,) = _sweep_lines(
            {"sweep@ci": _sweep_entry(4.0e6, 60.0)},
            {"sweep@ci": _sweep_entry(6.0e6, 75.0)},
        )
        assert line == (
            "sweep@ci: 138,240 points, 4.0 -> 6.0 M points/s (x1.50), "
            "batch speedup x60 -> x75"
        )

    def test_new_entry_is_flagged(self):
        (line,) = _sweep_lines({}, {"sweep@ci": _sweep_entry(5.0e6, 70.0)})
        assert line == (
            "sweep@ci: 138,240 points, 5.0 M points/s, "
            "batch speedup x70  [new entry]"
        )

    def test_dropped_entry_is_called_out(self):
        (line,) = _sweep_lines({"sweep@ci": _sweep_entry(5.0e6, 70.0)}, {})
        assert line == "sweep@ci: dropped from the newer snapshot"

    def test_plain_and_campaign_entries_are_ignored(self):
        entries = {
            "gemm@aurora": _bench_entry("gemm", "aurora", 100.0),
            "campaign-paper@jobs4": _campaign_entry(2.0, 9, 1),
        }
        assert _sweep_lines(entries, entries) == []


class TestSweepTrendReport:
    def _write(self, path, entries):
        write_baseline(path, build_snapshot(entries))
        return str(path)

    def test_report_carries_a_sweep_section(self, tmp_path):
        base = self._write(
            tmp_path / "b0.json", [_sweep_entry(4.0e6, 60.0)]
        )
        cur = self._write(
            tmp_path / "b1.json", [_sweep_entry(6.0e6, 75.0)]
        )
        report = trend_report([base, cur])
        assert "sweep throughput:" in report
        assert "4.0 -> 6.0 M points/s" in report

    def test_committed_bench3_is_trendable(self):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        report = trend_report(
            [
                os.path.join(root, "BENCH_2.json"),
                os.path.join(root, "BENCH_3.json"),
            ]
        )
        assert "sweep throughput:" in report
        assert "sweep@ci" in report
        assert "[new entry]" in report
