"""End-to-end design-space sweeps: the sweep command and the BENCH_3
throughput gate.

Acceptance contract (ISSUE 10): one ``pvc-bench sweep million``
invocation rooflines >= 10^6 points through the batch engine; the
``ci`` sweep beats the scalar golden reference by >= 50x points/s and
``pvc-bench profile sweep`` gates that figure against
``BENCH_3.json``-style baselines.
"""

import json

import pytest

from repro.cli import main
from repro.sweep.spec import get_sweep_spec


def _run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSweepCommand:
    def test_smoke_sweep_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc, out, err = _run(
            capsys,
            ["sweep", "smoke", "--dir", str(out_dir), "--ndjson",
             "--verify", "8"],
        )
        assert rc == 0
        assert "# sweep smoke: 72 points" in out
        assert "bit-for-bit OK" in out
        assert "artifacts written" in err
        summary = json.loads((out_dir / "sweep.json").read_text())
        assert summary["points"] == 72
        assert summary["scalar"]["verified"] is True
        assert len((out_dir / "topk.ndjson").read_text().splitlines()) == 16
        assert (
            len((out_dir / "results.ndjson").read_text().splitlines()) == 72
        )

    def test_report_is_deterministic(self, capsys):
        args = ["sweep", "smoke", "--verify", "0", "--top-k", "4"]
        rc1, out1, _ = _run(capsys, args)
        rc2, out2, _ = _run(capsys, args)
        assert rc1 == rc2 == 0
        # The header carries wall-clock; the ranking table must not.
        assert out1.splitlines()[1:] == out2.splitlines()[1:]

    def test_custom_spec_file(self, tmp_path, capsys):
        spec = get_sweep_spec("smoke").to_doc()
        spec["name"] = "mine"
        path = tmp_path / "space.json"
        path.write_text(json.dumps(spec))
        rc, out, _ = _run(
            capsys, ["sweep", str(path), "--verify", "4", "--top-k", "2"]
        )
        assert rc == 0
        assert "# sweep mine" in out

    def test_unknown_spec_fails_cleanly(self, capsys):
        rc = main(["sweep", "enormous"])
        assert rc == 2
        assert "no builtin sweep spec" in capsys.readouterr().err

    def test_malformed_spec_file_is_one_error_line(self, tmp_path, capsys):
        spec = get_sweep_spec("smoke").to_doc()
        spec["axes"] = [["tile_m"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        rc = main(["sweep", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "pvc-bench: ConfigurationError: malformed sweep spec: not enough "
            "values to unpack (expected 2, got 1)"
        ]

    def test_chunked_sharded_run_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial"
        forked = tmp_path / "forked"
        base = ["sweep", "smoke", "--ndjson", "--verify", "0",
                "--chunk", "16"]
        assert main(base + ["--dir", str(serial)]) == 0
        assert main(base + ["--dir", str(forked), "--jobs", "3"]) == 0
        capsys.readouterr()
        for name in ("topk.ndjson", "results.ndjson"):
            assert (serial / name).read_bytes() == (forked / name).read_bytes()


class TestProfileSweepGate:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("gate") / "BENCH_sweep.json"
        rc = main(["profile", "sweep", "--write-baseline", str(path)])
        assert rc == 0
        return str(path)

    def test_gate_reports_throughput_and_floor(self, capsys):
        rc, out, err = _run(capsys, ["profile", "sweep"])
        assert rc == 0, err
        assert "sweep@ci" in out
        assert "points" in out and "vs scalar" in out

    def test_self_comparison_passes(self, baseline, capsys):
        rc, out, _ = _run(capsys, ["profile", "sweep", "--baseline", baseline])
        assert rc == 0
        assert "regressed" not in out

    def test_committed_bench3_has_the_gate_entry(self):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        doc = json.loads(
            open(os.path.join(root, "BENCH_3.json")).read()
        )
        entry = doc["entries"]["sweep@ci"]
        assert entry["points"] == get_sweep_spec("ci").n_points()
        assert entry["batch_speedup"] >= 50.0
        assert entry["verified_sample"] == 64
