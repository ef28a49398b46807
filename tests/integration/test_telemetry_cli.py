"""End-to-end telemetry: trace/metrics CLI, manifests, golden schema.

The acceptance contract: ``pvc-bench trace gemm --inject device-loss
--seed 7 --out t.json`` run twice produces byte-identical
Perfetto-loadable output showing the injected fault as an instant event
on the dead stack's lane, retry spans on the run lane, and a per-queue
kernel timeline; ``pvc-bench metrics`` on the same run emits Prometheus
text with ``retry_count`` > 0.
"""

import json

import pytest

from repro.cli import main

_TRACE_ARGS = ["trace", "gemm", "--inject", "device-loss", "--seed", "7"]


def _thread_names(events: list[dict]) -> dict[int, str]:
    return {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }


class TestTraceCommand:
    @pytest.fixture(scope="class")
    def trace_doc(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "t.json"
        rc = main(_TRACE_ARGS + ["--out", str(out)])
        assert rc == 1  # device loss absorbed -> DEGRADED contract
        return json.loads(out.read_text())

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(_TRACE_ARGS + ["--out", str(a)]) == 1
        assert main(_TRACE_ARGS + ["--out", str(b)]) == 1
        assert a.read_bytes() == b.read_bytes()

    def test_schema_is_perfetto_loadable(self, trace_doc):
        assert trace_doc["displayTimeUnit"] == "ms"
        events = trace_doc["traceEvents"]
        assert events[0]["name"] == "process_name"
        for e in events:
            assert e["ph"] in ("M", "X", "i")
            assert e["pid"] == 0
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_injected_loss_on_the_dead_stacks_lane(self, trace_doc):
        events = trace_doc["traceEvents"]
        names = _thread_names(events)
        losses = [
            e
            for e in events
            if e["ph"] == "i" and e["args"].get("kind") == "device-loss"
        ]
        assert losses
        for loss in losses:
            # "device C.S lost" must sit on lane "gpu C.S".
            ref = loss["name"].split()[1]
            assert names[loss["tid"]] == f"gpu {ref}"

    def test_retry_spans_on_run_lane(self, trace_doc):
        events = trace_doc["traceEvents"]
        names = _thread_names(events)
        retries = [
            e for e in events if e["ph"] == "X" and e["cat"] == "retry"
        ]
        assert retries
        assert all(names[e["tid"]] == "run" for e in retries)

    def test_per_queue_kernel_timeline(self, trace_doc):
        events = trace_doc["traceEvents"]
        names = _thread_names(events)
        kernel_lanes = {
            names[e["tid"]]
            for e in events
            if e["ph"] == "X" and e["cat"] == "kernel"
        }
        # Every stack of the full-node scope contributes a timeline.
        assert len([l for l in kernel_lanes if l.startswith("gpu ")]) >= 11

    def test_stdout_mode_prints_json(self, capsys):
        rc = main(["trace", "triad", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["traceEvents"]

    def test_unknown_bench_rejected(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "nope" in capsys.readouterr().err


class TestMetricsCommand:
    def test_prometheus_text_with_retries(self, capsys):
        rc = main(["metrics", "gemm", "--inject", "device-loss", "--seed", "7"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "# TYPE retry_count counter" in out
        retry_total = sum(
            float(line.split()[-1])
            for line in out.splitlines()
            if line.startswith("retry_count")
        )
        assert retry_total > 0
        assert "# TYPE fault_count counter" in out
        assert "kernel_flops" in out
        assert "# TYPE kernel_time_us histogram" in out

    def test_clean_run_exposes_zero_counters(self, capsys):
        rc = main(["metrics", "triad", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "retry_count 0" in out
        assert "quarantine_count 0" in out
        assert "kernel_occupancy" in out
        assert "roofline_regime" in out

    def test_simcache_counters_always_exported(self, capsys):
        # Dashboards alert on missing series, so the sim-cache counters
        # must always appear, even in a run that never exercised them.
        rc = main(["metrics", "triad", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        for family in ("simcache_hit", "simcache_miss", "simcache_bypass"):
            assert f"# TYPE {family} counter" in out, f"missing: {family}"
        assert "simcache_bypass 0" in out
        # The cache itself was genuinely exercised by the run.
        hit_lines = [
            line for line in out.splitlines()
            if line.startswith("simcache_hit ")
        ]
        assert hit_lines and float(hit_lines[0].split()[-1]) > 0

    def test_metric_names_and_labels_are_sorted(self, capsys):
        # The scrape is byte-deterministic: metric families in sorted
        # order, and every label set sorted by key.
        rc = main(["metrics", "gemm", "--inject", "device-loss", "--seed", "7"])
        assert rc == 1
        out = capsys.readouterr().out
        families = [
            line.split()[2]
            for line in out.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert families == sorted(families)
        for line in out.splitlines():
            if line.startswith("#") or "{" not in line:
                continue
            labels = line[line.index("{") + 1 : line.rindex("}")]
            keys = [
                part.split("=", 1)[0]
                for part in labels.split(",")
                if part
            ]
            assert keys == sorted(keys), f"unsorted labels in: {line}"


class TestManifestFlag:
    def test_trace_with_manifest(self, tmp_path):
        out = tmp_path / "t.json"
        manifest = tmp_path / "run.json"
        rc = main(
            _TRACE_ARGS + ["--out", str(out), "--manifest", str(manifest)]
        )
        assert rc == 1
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "trace"
        assert doc["config"]["scenario"] == "device-loss"
        assert doc["config"]["seed"] == 7
        assert doc["status"]["exit_code"] == 1
        assert doc["trace_files"] == [str(out)]
        assert doc["metrics"]["retry.count"]["samples"]

    def test_table_command_with_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        rc = main(["table2", "--manifest", str(manifest)])
        assert rc == 0
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "table2"
        assert doc["config"]["scenario"] is None
        assert doc["telemetry"]["enabled"] is True


class TestHealthSummary:
    def test_health_prints_telemetry_line(self, capsys):
        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "span(s)" in out

    def test_health_under_injection_reports_faults(self, capsys):
        rc = main(["health", "--inject", "device-loss", "--seed", "7"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "telemetry:" in out

    def test_health_runs_no_scheduler_drill(self, capsys):
        # The worker-death drill is a tier-1 test
        # (tests/campaign/test_supervisor.py::TestWorkerDeath), not a
        # row of the node report.
        rc = main(["health"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheduler" not in out
