import json
import os
import subprocess
import sys
import threading

import pytest

import spans
from conftest import BENCH_DIR


def _span(sid, start, end, parent=0, layer="a", op=None, name=None, digest=None):
    return {"name": name or f"{layer}:{sid}", "layer": layer, "start": start,
            "end": end, "sid": sid, "parent": parent, "thread": 1, "op": op,
            "digest": digest}


def test_union_length_counts_overlap_once():
    assert spans.union_length([]) == 0
    assert spans.union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert spans.union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_nested_and_overlapping_children():
    tree = [
        _span(1, 0, 100),
        _span(2, 10, 30, parent=1),
        _span(3, 20, 50, parent=1),  # overlaps span 2
        _span(4, 60, 70, parent=1),
        _span(5, 12, 18, parent=2),  # grandchild: not subtracted from 1
        _span(6, 95, 120, parent=1),  # runs past its parent's end
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == 100 - (40 + 10 + 5)
    assert selfs[2] == 20 - 6
    assert selfs[3] == 30
    assert selfs[5] == 6


def test_fold_keeps_only_the_given_ops_and_counts_outermost_calls():
    tree = [
        _span(1, 0, 100, layer="main", op="req-1"),
        _span(2, 10, 40, parent=1, layer="micro", digest="x"),
        _span(3, 15, 25, parent=2, layer="micro"),  # recursion inside micro
        _span(4, 50, 60, parent=1, layer="micro", digest="x"),
        _span(5, 0, 500, layer="micro", op="setup", digest="y"),
    ]
    fold = spans.fold(tree, {"req-1"})
    micro = fold["layers"]["micro"]
    assert micro["calls"] == 2
    assert micro["digests"] == ["x", "x"]
    assert micro["self_s"] == pytest.approx((30 + 10) / 1e9)
    assert fold["layers"]["main"]["self_s"] == pytest.approx(60 / 1e9)
    assert sum(fold["entry"].values()) == 4


def test_recorder_nests_spans_per_thread_and_binds_ops():
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", "m:inner", lambda: None)
    outer = rec.wrap("outer", "m:outer", lambda: inner())

    def worker():
        rec.bind_op("t2")
        outer()

    rec.bind_op("t1")
    outer()
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    rows = [dict(zip(spans.FIELDS, row)) for row in rec.spans]
    roots = [r for r in rows if r["parent"] == 0]
    assert sorted(r["op"] for r in roots) == ["t1", "t2"]
    for child in (r for r in rows if r["parent"]):
        parent = next(r for r in rows if r["sid"] == child["parent"])
        assert child["thread"] == parent["thread"]
        assert child["op"] is None
        assert parent["start"] <= child["start"] <= child["end"] <= parent["end"]


def test_install_replaces_every_module_reference(tmp_path):
    # In a fresh interpreter, so the wrapped program does not leak into
    # other tests.
    script = """
import json, sys
import repro.campaign.store, repro.ioutils, repro.sweep.runner
import spans
original = repro.ioutils.atomic_write_json
rec = spans.SpanRecorder()
installed = spans.install(rec)
rec.bind_op("process")
holders = [m for m in (repro.ioutils, repro.campaign.store, repro.sweep.runner)
           if m.atomic_write_json is original]
repro.campaign.store.ResultStore(sys.argv[1]).put("u", {"k": 1})
rec.dump(sys.argv[1] + "/spans.json")
print(json.dumps({"installed": installed, "unwrapped": len(holders)}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["unwrapped"] == 0
    assert "repro.ioutils:atomic_write_json" in doc["installed"]
    fold = spans.fold(spans.load(str(tmp_path / "spans.json")), {"process"})
    assert fold["entry"]["repro.campaign.store:ResultStore.put"] == 1
    assert fold["entry"]["repro.ioutils:atomic_write_json"] == 1
    # atomic_write_json calls atomic_write_text: one call into ioutils.
    assert fold["layers"]["ioutils"]["calls"] == 1
