"""Chrome-trace export and the run-directory metrics registry."""

import json
import os

import pytest

from repro.campaign.orchestrator import Orchestrator
from repro.campaign.spec import get_spec
from repro.errors import CampaignError
from repro.obs.export import export_chrome, export_json, run_registry


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("export") / "run"
    Orchestrator(directory, spec=get_spec("smoke"), jobs=2).run()
    return directory


def _thread_names(doc):
    return [
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["name"] == "thread_name"
    ]


class TestChromeExport:
    def test_parallel_run_gets_worker_lanes(self, rundir):
        doc = export_chrome(rundir)
        assert _thread_names(doc) == ["worker-0", "worker-1"]
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in spans} == {
            u.id for u in get_spec("smoke").execution_order()
        }
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in spans)
        assert all(e["args"]["status"] == "ok" for e in spans)

    def test_worker_death_marks_the_pool_lane(self, tmp_path):
        from repro.faults.process import WorkerFaultPlan

        spec = get_spec("smoke")
        plan = WorkerFaultPlan("worker-kill", 0, kill="table3:aurora")
        directory = tmp_path / "run"
        Orchestrator(directory, spec=spec, jobs=2, worker_plan=plan).run()
        doc = export_chrome(directory)
        assert "pool" in _thread_names(doc)
        instants = [
            e["name"] for e in doc["traceEvents"] if e.get("ph") == "i"
        ]
        assert instants.count("pool-degraded") == 1
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in spans} == {
            u.id for u in spec.execution_order()
        }

    def test_export_json_is_loadable_and_deterministic(self, rundir):
        text = export_json(rundir)
        assert json.loads(text) == export_chrome(rundir)
        assert text == export_json(rundir)

    def test_deterministic_only_directory_degrades_to_commit_lane(
        self, rundir, tmp_path
    ):
        clone = tmp_path / "det-only"
        clone.mkdir()
        for name in os.listdir(rundir):
            if name == "events.ndjson":
                (clone / name).write_bytes((rundir / name).read_bytes())
        doc = export_chrome(clone)
        assert _thread_names(doc) == ["commit"]
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in spans} == {
            u.id for u in get_spec("smoke").execution_order()
        }
        # Spans sit on the simulated clock, ending at the stream total.
        ends = [e["ts"] + e["dur"] for e in spans]
        assert max(ends) == pytest.approx(1121252.44, abs=1.0)

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(CampaignError):
            export_chrome(tmp_path)


class TestRunRegistry:
    def test_counters_and_exposition(self, rundir):
        registry = run_registry(rundir)
        n_units = len(get_spec("smoke"))
        assert registry.value("campaign.units", status="OK") == n_units
        assert registry.value("campaign.complete") == 1.0
        text = registry.to_openmetrics()
        assert "# TYPE campaign_units counter" in text
        assert f'campaign_units_total{{status="OK"}} {n_units}' in text
        assert "# TYPE unit_simulated_us histogram" in text
        assert f"unit_simulated_us_count {n_units}" in text
        assert text.endswith("# EOF\n")

    def test_registry_reads_only_the_deterministic_stream(self, rundir):
        # Worker telemetry is wall-clock; the scrape must not depend on it.
        registry = run_registry(rundir)
        assert "worker.respawns" not in registry
        assert "unit.quarantined" not in registry


class TestServiceExport:
    @pytest.fixture(scope="class")
    def service_dir(self, tmp_path_factory):
        from tests.service.conftest import post_request

        from repro.service.daemon import BenchDaemon

        directory = tmp_path_factory.mktemp("svc") / "state"
        daemon = BenchDaemon(directory, workers=2)
        daemon.start()
        try:
            post_request(
                daemon.url,
                {"request_id": "e-1", "command": "table4",
                 "tenant": "alpha"},
            )
            post_request(
                daemon.url,
                {"request_id": "e-2", "kind": "campaign", "spec": "smoke",
                 "jobs": 2, "tenant": "beta"},
                timeout=300.0,
            )
        finally:
            daemon.stop(timeout_s=30.0)
        return directory

    def test_autodetects_service_directory(self, service_dir):
        from repro.obs.export import export_service_chrome

        assert export_chrome(service_dir) == export_service_chrome(
            service_dir
        )

    def test_merged_trace_has_request_and_worker_lanes(self, service_dir):
        doc = export_chrome(service_dir)
        names = _thread_names(doc)
        assert "service" in names
        assert "alpha" in names and "beta" in names
        assert any(n.endswith("/worker-0") for n in names)
        assert any(n.endswith("/worker-1") for n in names)

    def test_request_and_campaign_unit_share_trace_id(self, service_dir):
        """The acceptance drill: one trace id links the HTTP request
        span to the campaign worker's unit spans."""
        doc = export_chrome(service_dir)
        request_tids = {
            e["args"]["trace_id"]
            for e in doc["traceEvents"]
            if e.get("cat") == "request"
        }
        unit_tids = {
            e["args"]["trace_id"]
            for e in doc["traceEvents"]
            if e.get("cat") == "unit" and "trace_id" in e.get("args", {})
        }
        assert unit_tids, "campaign unit spans lost their trace ids"
        assert unit_tids <= request_tids

    def test_phase_spans_nest_inside_request_span(self, service_dir):
        doc = export_chrome(service_dir)
        requests = {
            e["name"]: e
            for e in doc["traceEvents"]
            if e.get("cat") == "request"
        }
        phases = [
            e for e in doc["traceEvents"] if e.get("cat") == "phase"
        ]
        assert phases
        for phase in phases:
            parent = requests[phase["args"]["request"]]
            assert phase["ts"] >= parent["ts"]
            # The serialize phase is timed after the whole-request
            # latency snapshot, so the tail may overshoot the parent
            # span by that sliver; everything else nests exactly.
            assert phase["ts"] + phase["dur"] <= (
                parent["ts"] + parent["dur"] + 50_000
            )

    def test_export_is_deterministic_for_same_bytes(self, service_dir):
        assert export_json(service_dir) == export_json(service_dir)


class TestSweepExport:
    @pytest.fixture(scope="class")
    def sweepdir(self, tmp_path_factory):
        from repro.sweep.runner import run_sweep
        from repro.sweep.spec import get_sweep_spec

        directory = tmp_path_factory.mktemp("export") / "sweep"
        run_sweep(
            get_sweep_spec("smoke"),
            out_dir=directory,
            chunk_points=32,
            verify=4,
        )
        return directory

    def test_sweep_dir_is_auto_detected(self, sweepdir):
        from repro.obs.export import export_sweep_chrome

        assert export_chrome(sweepdir) == export_sweep_chrome(sweepdir)

    def test_chunk_spans_tile_the_measured_walls(self, sweepdir):
        doc = export_chrome(sweepdir)
        assert _thread_names(doc) == ["sweep"]
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        # 72 points in 32-point chunks: 3 chunks, laid end to end.
        assert [e["name"] for e in spans] == [
            "chunk-0", "chunk-1", "chunk-2"
        ]
        assert [e["args"]["points"] for e in spans] == [32, 32, 8]
        assert all(e["args"]["system"] == "aurora" for e in spans)
        cursor = 0.0
        for span in spans:
            assert span["ts"] == pytest.approx(cursor)
            cursor += span["dur"]

    def test_best_point_and_summary_instants(self, sweepdir):
        doc = export_chrome(sweepdir)
        instants = {
            e["name"]: e["args"]
            for e in doc["traceEvents"]
            if e.get("ph") == "i"
        }
        best = instants["best-point"]
        assert best["system"] == "aurora"
        assert best["gflops"] > 0
        assert {"param_tile_m", "param_tile_n", "param_tile_k"} <= set(best)
        summary = instants["sweep-summary"]
        assert summary["spec"] == "smoke"
        assert summary["points"] == 72
        assert summary["verified_sample"] == 4
        assert summary["verified"] is True
        assert "batch_speedup" not in summary

    def test_unreadable_summary_is_an_error(self, tmp_path):
        from repro.obs.export import export_sweep_chrome

        (tmp_path / "sweep.json").write_text("{broken")
        with pytest.raises(CampaignError, match="no readable sweep summary"):
            export_sweep_chrome(tmp_path)
