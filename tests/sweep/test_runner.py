"""The sweep runner: artifacts, determinism, NDJSON schema, the gate
entries, and agreement with an exhaustive scalar enumeration."""

import dataclasses
import filecmp
import gc
import json
import math
import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError, MeasurementError
from repro.exitcodes import ExitCode
from repro.hw.systems import SYSTEM_NAMES, get_system
from repro.sim.engine import PerfEngine
from repro.sim.noise import QUIET
from repro.sweep.runner import (
    SWEEP_FILE,
    SWEEP_SUMMARY_SCHEMA,
    _axis_values_at,
    _batch_engine,
    _chunk_arrays,
    _chunk_worker,
    _kernel_batch,
    _kernel_grid,
    _sample,
    _segments,
    run_sweep,
    render_summary,
    sweep_benchmark_entries,
)
from repro.sweep.spec import (
    SWEEP_SPEC_SCHEMA,
    SweepSpec,
    get_sweep_spec,
    load_sweep_spec,
)

SMOKE = get_sweep_spec("smoke")

NDJSON_KEYS = {
    "v", "spec", "system", "index", "n_stacks", "precision", "params",
    "gflops", "total_s", "bound",
}


def _one_point_batch(spec, sysname, local):
    """The KernelBatch of one local index, from the divmod gather."""
    return _kernel_batch(
        spec, _axis_values_at(spec, sysname, np.array([local]))
    )


def _enumerate_scalar(spec):
    """Brute-force every point through the scalar golden reference."""
    rows = []
    for sysname in spec.systems:
        engine = PerfEngine(get_system(sysname), noise=QUIET)
        points = spec.system_points(sysname)
        for local in range(points):
            batch = _one_point_batch(spec, sysname, local)
            kernel = batch.spec(0)
            n_stacks = int(batch.n_stacks[0])
            point = engine.roofline(kernel, n_stacks)
            fom = kernel.flops / point.total_s if point.total_s else 0.0
            rows.append((sysname, local, fom, point))
    return rows


class TestRunSweep:
    def test_summary_and_artifacts(self, tmp_path):
        out = tmp_path / "run"
        outcome = run_sweep(
            SMOKE, out_dir=out, top_k=8, ndjson=True, verify=16
        )
        summary = outcome.summary
        assert summary["schema"] == SWEEP_SUMMARY_SCHEMA
        assert summary["points"] == SMOKE.n_points() == 72
        assert summary["scalar"] == {"sample": 16, "verified": True}
        assert summary["best"] == outcome.topk[0] == outcome.best
        assert (out / SWEEP_FILE).exists()
        assert (out / "topk.ndjson").exists()
        assert (out / "results.ndjson").exists()
        on_disk = json.loads((out / SWEEP_FILE).read_text())
        assert on_disk["points"] == 72
        assert on_disk["results"] == "results.ndjson"

    def test_topk_matches_exhaustive_scalar_enumeration(self):
        outcome = run_sweep(SMOKE, top_k=8, verify=0)
        rows = _enumerate_scalar(SMOKE)
        rows.sort(key=lambda r: (-r[2], r[1]))
        for rank, row in enumerate(outcome.topk):
            sysname, local, fom, point = rows[rank]
            assert row["system"] == sysname
            assert row["index"] == local
            assert row["gflops"] == fom / 1e9
            assert row["total_s"] == point.total_s
            assert row["bound"] == point.bound

    def test_topk_is_sorted_and_bounded(self):
        outcome = run_sweep(SMOKE, top_k=5, verify=0)
        assert len(outcome.topk) == 5
        foms = [row["gflops"] for row in outcome.topk]
        assert foms == sorted(foms, reverse=True)

    def test_chunking_does_not_change_results(self, tmp_path):
        a = tmp_path / "one-chunk"
        b = tmp_path / "many-chunks"
        run_sweep(SMOKE, out_dir=a, ndjson=True, verify=0)
        run_sweep(SMOKE, out_dir=b, ndjson=True, verify=0, chunk_points=7)
        for name in ("topk.ndjson", "results.ndjson"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_fork_sharding_is_byte_identical(self, tmp_path):
        serial = tmp_path / "serial"
        forked = tmp_path / "forked"
        run_sweep(
            SMOKE, out_dir=serial, ndjson=True, verify=0, chunk_points=16
        )
        run_sweep(
            SMOKE, out_dir=forked, ndjson=True, verify=0, chunk_points=16,
            jobs=3,
        )
        for name in ("topk.ndjson", "results.ndjson"):
            assert filecmp.cmp(serial / name, forked / name, shallow=False)

    def test_results_ndjson_schema(self, tmp_path):
        out = tmp_path / "run"
        run_sweep(SMOKE, out_dir=out, ndjson=True, verify=0)
        lines = (out / "results.ndjson").read_text().splitlines()
        assert len(lines) == SMOKE.n_points()
        seen = set()
        for line in lines:
            row = json.loads(line)
            assert set(row) == NDJSON_KEYS
            assert row["v"] == 1
            assert row["spec"] == "smoke"
            assert row["system"] in SMOKE.systems
            assert set(row["params"]) == {"tile_m", "tile_n", "tile_k"}
            assert row["bound"] in ("latency", "memory", "compute")
            assert row["total_s"] > 0
            seen.add((row["system"], row["index"]))
        assert len(seen) == SMOKE.n_points()

    def test_ndjson_rows_match_topk_rows(self, tmp_path):
        out = tmp_path / "run"
        outcome = run_sweep(out_dir=out, spec=SMOKE, ndjson=True, verify=0)
        by_index = {}
        for line in (out / "results.ndjson").read_text().splitlines():
            row = json.loads(line)
            by_index[(row["system"], row["index"])] = row
        for row in outcome.topk:
            full = by_index[(row["system"], row["index"])]
            assert full["gflops"] == row["gflops"]
            assert full["total_s"] == row["total_s"]
            assert full["params"] == row["params"]
            assert full["bound"] == row["bound"]

    def test_verify_zero_skips_scalar_pass(self):
        outcome = run_sweep(SMOKE, verify=0)
        assert outcome.summary["scalar"] == {
            "sample": 0, "verified": False,
        }

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="top_k"):
            run_sweep(SMOKE, top_k=0)
        with pytest.raises(ConfigurationError, match="chunk_points"):
            run_sweep(SMOKE, chunk_points=0)
        with pytest.raises(ConfigurationError, match="jobs"):
            run_sweep(SMOKE, jobs=0)

    def test_render_summary_mentions_the_headline(self):
        outcome = run_sweep(SMOKE, top_k=3, verify=8)
        text = render_summary(outcome.summary, outcome.topk)
        assert "72 points" in text.replace(",", "")
        assert "# scalar reference: 8 sampled point(s), bit-for-bit OK" in (
            text.splitlines()
        )
        assert "speedup" not in text


#: A jobs=2 sweep whose pool worker SIGKILLs itself on chunk 1.  It runs
#: in a child interpreter so a pool that never notices the death fails
#: the test by timeout instead of hanging the suite.
_KILL_CHUNK_1 = """
import os, signal, sys
import repro.sweep.runner as runner
from repro.sweep.spec import get_sweep_spec

parent = os.getpid()
chunk_worker = runner._chunk_worker

def dying(task):
    if os.getpid() != parent and task[2] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return chunk_worker(task)

runner._chunk_worker = dying
runner.run_sweep(
    get_sweep_spec("smoke"), out_dir=sys.argv[1], jobs=2,
    chunk_points=16, ndjson=True, verify=0,
)
"""


def _without_wall_clock(summary: dict) -> dict:
    doc = {
        k: v for k, v in summary.items()
        if k not in ("eval_wall_s", "points_per_s", "jobs", "chunks")
    }
    doc["chunks"] = [
        {k: v for k, v in chunk.items() if k != "wall_s"}
        for chunk in summary["chunks"]
    ]
    return doc


class TestWorkerDeath:
    def test_killed_worker_chunks_run_in_process(self, tmp_path):
        import repro

        serial = tmp_path / "serial"
        killed = tmp_path / "killed"
        run_sweep(
            SMOKE, out_dir=serial, ndjson=True, verify=0, chunk_points=16
        )
        env = dict(
            os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_CHUNK_1, str(killed)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the sweep hung after a pool worker died")
        assert proc.returncode == 0, err
        assert "pool worker died" in err
        for name in ("topk.ndjson", "results.ndjson"):
            assert filecmp.cmp(serial / name, killed / name, shallow=False)
        docs = [
            json.loads((d / SWEEP_FILE).read_text()) for d in (serial, killed)
        ]
        assert docs[1]["jobs"] == 2
        assert _without_wall_clock(docs[1]) == _without_wall_clock(docs[0])


class TestGridExpansion:
    @pytest.mark.parametrize("name", ["smoke", "ci", "mix"])
    def test_axis_values_match_row_major_divmod(self, name):
        spec = get_sweep_spec(name)
        for sysname in spec.systems:
            axes = [
                ("n_stacks", spec.stack_values(sysname)),
                ("precision_code", spec.precision_codes()),
                *spec.axes,
            ]
            points = spec.system_points(sysname)
            for offset, count in ((0, points), (points // 3, points // 2)):
                cols = _axis_values_at(
                    spec, sysname, np.arange(offset, offset + count)
                )
                rem = np.arange(offset, offset + count)
                for axis, values in reversed(axes):
                    values = np.asarray(values, dtype=np.int64)
                    want = values[rem % values.shape[0]]
                    assert np.array_equal(cols[axis], want), axis
                    rem = rem // values.shape[0]


#: One small spec per workload family, each crossing many stack scopes
#: (``fma`` and ``stream`` have no builtin spec, so all five load from
#: JSON files, the way a user's own space does).
_FAMILY_SPECS = {
    "gemm-tile": {
        "systems": ["aurora", "dawn"],
        "precisions": ["fp64", "bf16"],
        "stacks": "all",
        "axes": [
            ["tile_m", [16, 64, 256]],
            ["tile_n", [32, 128]],
            ["tile_k", [16, 64]],
        ],
    },
    "fma": {
        "systems": ["aurora", "jlse-h100"],
        "precisions": ["fp64", "fp32", "fp16"],
        "stacks": "all",
        "axes": [["lanes", [64, 4096]], ["chain", [1, 8, 256]]],
    },
    "stream": {
        "systems": ["dawn", "jlse-mi250"],
        "precisions": ["none", "fp64"],
        "stacks": "all",
        "axes": [["array_mib", [1, 16, 256, 4096]]],
    },
    "bude": {
        "systems": ["aurora", "dawn"],
        "precisions": ["fp32"],
        "stacks": [1, 2, 4, 8],
        "axes": [["ppwi", [1, 4, 16, 64]], ["wgsize", [64, 256, 1024]]],
    },
    "mix": {
        "systems": list(SYSTEM_NAMES),
        "precisions": ["fp64", "fp32"],
        "stacks": "all",
        "axes": [["intensity_q", [1, 16, 256]], ["size_kib", [64, 16384]]],
    },
}

_TOP_K = 3


def _chunk_outputs(task):
    """A chunk's full result arrays and its worker result."""
    spec_doc, sysname, _, offset, count, _, _ = task
    out = [np.empty(count), np.empty(count), np.empty(count, np.int8)]
    _chunk_arrays(SweepSpec.from_doc(spec_doc), sysname, offset, out)
    return out, _chunk_worker(task)


class TestKernelGridSegments:
    """Every chunk, evaluated as kernel-grid segments at one stack count
    each, equals the per-point definition: the divmod gather of its
    indices, one KernelBatch with a per-point ``n_stacks`` column, and
    one ``evaluate`` call."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("workload", sorted(_FAMILY_SPECS))
    def test_chunks_match_the_per_point_definition(
        self, tmp_path, workload, jobs
    ):
        path = tmp_path / f"{workload}.json"
        path.write_text(json.dumps({
            "schema": SWEEP_SPEC_SCHEMA,
            "name": f"family-{workload}",
            "workload": workload,
            **_FAMILY_SPECS[workload],
        }))
        spec = load_sweep_spec(str(path))
        size = len(_kernel_grid(spec)[1])
        for sysname in spec.systems:
            points = spec.system_points(sysname)
            assert points >= 4 * size
            batch = _kernel_batch(
                spec, _axis_values_at(spec, sysname, np.arange(points))
            )
            result = _batch_engine(sysname).evaluate(batch)
            total_s = result.total_s
            with np.errstate(divide="ignore", invalid="ignore"):
                fom = np.where(total_s > 0, batch.flops / total_s, 0.0)
            want = (fom, total_s, result.bound_code)
            for chunk in sorted({1, 7, size - 1, size + 1, 7919}):
                tasks = [
                    (spec.to_doc(), sysname, i, offset,
                     min(chunk, points - offset), _TOP_K, False)
                    for i, offset in enumerate(range(0, points, chunk))
                ]
                if jobs == 1:
                    outputs = [_chunk_outputs(task) for task in tasks]
                else:
                    with ProcessPoolExecutor(
                        jobs, mp_context=get_context("fork")
                    ) as pool:
                        outputs = list(pool.map(_chunk_outputs, tasks))
                for task, (arrays, res) in zip(tasks, outputs):
                    offset, count = task[3], task[4]
                    span = slice(offset, offset + count)
                    where = (sysname, chunk, offset)
                    for got, ref in zip(arrays, want):
                        assert got.dtype == ref.dtype, where
                        assert got.tobytes() == ref[span].tobytes(), where
                    key = -fom[span]
                    k = min(_TOP_K, count)
                    cand = (
                        np.argpartition(key, k - 1)[:k] if k < count
                        else np.arange(count)
                    )
                    cand = cand[np.lexsort((cand, key[cand]))]
                    assert res["top_index"] == (offset + cand).tolist()
                    assert res["top_fom"] == fom[span][cand].tolist()
                    assert res["top_total_s"] == total_s[span][cand].tolist()
                    assert res["top_bound"] == (
                        want[2][span][cand].tolist()
                    ), where


class TestCollectorPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_sweep_restores_collector_state(self, enabled):
        was = gc.isenabled()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            run_sweep(SMOKE, verify=4)
            assert gc.isenabled() is enabled
        finally:
            if was:
                gc.enable()
            else:
                gc.disable()

    def test_collector_off_while_chunks_are_timed(self, monkeypatch):
        import repro.sweep.runner as runner

        seen = []
        worker = runner._chunk_worker

        def spy(task):
            seen.append(gc.isenabled())
            return worker(task)

        monkeypatch.setattr(runner, "_chunk_worker", spy)
        run_sweep(SMOKE, verify=0, chunk_points=16)
        assert seen and not any(seen)


class TestBenchmarkEntries:
    def test_entry_shape(self):
        entries = sweep_benchmark_entries("smoke", verify=16)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["bench"] == "sweep"
        assert entry["system"] == "smoke"
        assert entry["points"] == 72
        assert entry["verified_sample"] == 16
        assert entry["points_per_s"] > 0
        assert entry["batch_speedup"] > 0
        assert entry["fom"] > 0

    def test_each_path_keeps_its_best_run(self, monkeypatch):
        import repro.sweep.runner as runner

        real = run_sweep(SMOKE, verify=16)
        # Batch wall and scalar points/s per run: the best batch run and
        # the best scalar run are different runs.
        walls = iter([0.004, 0.002, 0.003])
        scalars = iter([1000.0, 500.0, 4000.0])

        def fake(spec, **kwargs):
            wall = next(walls)
            summary = {
                **real.summary,
                "eval_wall_s": wall,
                "points_per_s": 72 / wall,
            }
            return runner.SweepOutcome(summary=summary, topk=real.topk)

        monkeypatch.setattr(runner, "run_sweep", fake)
        monkeypatch.setattr(
            runner, "_scalar_points_per_s", lambda spec, sample: next(scalars)
        )
        (entry,) = sweep_benchmark_entries("smoke", verify=16)
        assert runner.GATE_REPEATS == 3
        assert entry["wall_s"] == 0.002
        assert entry["points_per_s"] == 72 / 0.002
        assert entry["scalar_points_per_s"] == 4000.0
        assert entry["batch_speedup"] == (72 / 0.002) / 4000.0


def one_ulp_off(monkeypatch, kernel_name: str) -> None:
    """Make the scalar engine answer one ulp off for *kernel_name*."""
    roofline = PerfEngine.roofline

    def perturbed(self, spec, n_stacks=1):
        point = roofline(self, spec, n_stacks)
        if spec.name == kernel_name:
            point = dataclasses.replace(
                point, compute_s=math.nextafter(point.compute_s, math.inf)
            )
        return point

    monkeypatch.setattr(PerfEngine, "roofline", perturbed)


class TestScalarReference:
    def test_index_gather_matches_the_chunk_expansion(self):
        values, _ = _kernel_grid(SMOKE)
        for sysname in SMOKE.systems:
            points = SMOKE.system_points(sysname)
            gathered = _axis_values_at(SMOKE, sysname, np.arange(points))
            assert set(values) | {"n_stacks"} == set(gathered)
            for offset in range(0, points, 7):
                count = min(7, points - offset)
                for at, kernels, n_stacks in _segments(
                    SMOKE, sysname, offset, count
                ):
                    index = np.arange(offset, offset + count)[at]
                    assert np.all(gathered["n_stacks"][index] == n_stacks)
                    for axis, column in values.items():
                        assert np.array_equal(
                            gathered[axis][index], column[kernels]
                        ), (offset, axis)

    def test_million_sample_matches_one_point_batches(self):
        spec = get_sweep_spec("million")
        total = spec.n_points()
        bounds = []
        start = 0
        for sysname in spec.systems:
            bounds.append((sysname, start, spec.system_points(sysname)))
            start += bounds[-1][2]
        want = []
        for g in sorted({(i * total) // 64 for i in range(64)}):
            sysname, start, _ = next(
                b for b in bounds if b[1] <= g < b[1] + b[2]
            )
            local = g - start
            batch = _one_point_batch(spec, sysname, local)
            want.append((
                sysname,
                local,
                batch.spec(0, name=f"million[{sysname}:{local}]"),
                _batch_engine(sysname).evaluate(batch).point(0),
            ))
        got = [
            (p.system, p.index, p.kernel, p.point) for p in _sample(spec, 64)
        ]
        assert len(got) == 64
        assert got == want

    def test_divergence_raises_naming_the_point(self, monkeypatch):
        one_ulp_off(monkeypatch, "smoke[aurora:9]")
        with pytest.raises(MeasurementError) as err:
            run_sweep(SMOKE, verify=8)
        assert str(err.value) == (
            "batch/scalar divergence on 1 of 8 sampled point(s); "
            "first: smoke[aurora:9] on aurora"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_divergence_fails_the_cli_sweep(self, monkeypatch, capsys, jobs):
        one_ulp_off(monkeypatch, "smoke[aurora:9]")
        rc = main(["sweep", "smoke", "--chunk", "16", "--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == ExitCode.MEASUREMENT
        assert "bit-for-bit OK" not in captured.out
        assert captured.err.strip() == (
            "pvc-bench: MeasurementError: batch/scalar divergence on 1 of "
            "64 sampled point(s); first: smoke[aurora:9] on aurora"
        )
