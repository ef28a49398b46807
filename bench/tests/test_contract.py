import json
import os
import re

import pytest

import metrics
import spans
from conftest import BENCH_DIR
from workloads import WORKLOADS, Run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _traced_item() -> dict:
    """One traced op in which every wrapped entry point was called once."""
    rows = []
    for layer, targets in spans.LAYERS.items():
        for target in targets:
            rows.append({
                "name": target, "layer": layer, "start": 0, "end": 1000,
                "sid": len(rows) + 1, "parent": 0, "thread": 1,
                "op": "process", "digest": None,
            })
    return {
        "wall_s": 1.0,
        "fold": spans.fold(rows, {"process"}),
        "imports": {"repro": 0.2, "numpy": 0.1, "encodings": 0.01},
        "io_retries": 0,
        "installed": [t for targets in spans.LAYERS.values() for t in targets],
    }


def _run(workload) -> Run:
    run = Run(workload.slo_s)
    for i in range(12):
        run.ops.append({"latency_s": workload.slo_s * (0.5 + i / 100),
                        "ok": True, "error": "",
                        "traced": i % 2 == 1})
    run.setup_s = [0.4, 0.5, 0.45]
    run.rss_mb = [60.0]
    run.work_per_s = [20.0, 21.0]
    run.lag_s = [0.001, 0.002]
    run.traced = [_traced_item()]
    return run


def test_benchmark_json_lists_exactly_what_the_runner_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} == metrics.PER_LAYER
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]


def test_metric_and_workload_names_and_units_are_well_formed():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for workload in BENCHMARK["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_metric(name):
    workload = WORKLOADS[name]
    run = _run(workload)
    e2e = metrics.end_to_end(run)
    assert list(e2e) == list(metrics.END_TO_END)
    assert all(row["value"] > 0 for row in e2e.values())
    layer = metrics.per_layer(run, workload)
    assert list(layer) == list(metrics.PER_LAYER)
    assert all(isinstance(row["value"], (int, float)) for row in layer.values())


def test_guard_fails_when_a_ledger_entry_point_records_no_calls():
    workload = WORKLOADS["campaign-paper"]
    run = _run(workload)
    item = run.traced[0]
    del item["fold"]["entry"][workload.ledger[0]]
    with pytest.raises(RuntimeError, match="recorded no calls"):
        metrics.per_layer(run, workload)
    item["installed"].remove(workload.ledger[0])
    with pytest.raises(RuntimeError, match="was not installed"):
        metrics.guard(workload, run.traced)
