"""The profile driver: staged runs, entries, determinism."""

import pytest

from repro.errors import UnknownBenchmarkError
from repro.faults import ExecutionContext
from repro.profiler.core import (
    MPI_POINTS,
    SYCL_POINTS,
    ZE_DRIVER_POINTS,
    ZE_QUEUE_POINTS,
)
from repro.profiler.driver import (
    PROFILE_BENCHES,
    SMOKE_SYSTEMS,
    profile_bench,
    run_bench,
)
from repro.telemetry import Telemetry


def test_run_bench_rejects_unknown():
    ctx = ExecutionContext(None, 0, telemetry=Telemetry())
    with pytest.raises(UnknownBenchmarkError, match="unknown benchmark"):
        run_bench(ctx, "hpl", "aurora")


def test_smoke_set_definition():
    assert set(PROFILE_BENCHES) == {"gemm", "triad", "p2p"}
    assert set(SMOKE_SYSTEMS) == {"aurora", "dawn"}


#: Every interception point a runtime layer declares.
_LAYER_POINTS = {
    "ze": set(ZE_DRIVER_POINTS) | set(ZE_QUEUE_POINTS),
    "sycl": set(SYCL_POINTS),
    "mpi": set(MPI_POINTS),
}


@pytest.mark.parametrize("bench", PROFILE_BENCHES)
def test_profile_bench_records_all_layers(bench):
    run = profile_bench(bench, "aurora")
    p = run.profiler
    assert p.n_calls > 0
    assert p.clock_violations == []
    # Only p2p crosses MPI; between them the three benches reach every
    # layer, each of which registers all of its points and records calls.
    layers = {"ze", "sycl", "mpi"} if bench == "p2p" else {"ze", "sycl"}
    assert set(p.layers()) == layers
    host = p.host_table()
    for layer in layers:
        assert _LAYER_POINTS[layer] <= set(p.points(layer)), layer
        assert sum(s["calls"] for s in host[layer].values()) > 0, layer
    if bench == "p2p":
        assert "MPI_Isend" in p.points("mpi")
    # Every launched kernel joins the roofline (p2p launches none).
    rows = p.kernel_attribution()
    assert bool(rows) == (bench != "p2p")
    for row in rows:
        assert row["bound"] in ("compute", "memory", "latency")
        assert row["model_pct"] > 0.0
    assert p.digest() == p.digest()
    again = profile_bench(bench, "aurora")
    assert again.profiler.digest() == p.digest()
    assert again.report() == run.report()
    # The staging phase always moves some explicit traffic except p2p,
    # whose traffic flows through MPI messages instead.
    if bench != "p2p":
        assert p.traffic_total_bytes() > 0


def test_profile_bench_is_deterministic():
    a = profile_bench("triad", "dawn")
    b = profile_bench("triad", "dawn")
    assert a.profiler.digest() == b.profiler.digest()
    assert a.report() == b.report()
    assert a.entry() == b.entry()


def test_entry_carries_baseline_fields():
    run = profile_bench("gemm", "aurora")
    entry = run.entry()
    for key in (
        "bench", "system", "fom", "fom_unit", "api_calls",
        "host_us", "device_us", "traffic_bytes", "kernels",
        "profile_digest",
    ):
        assert key in entry, key
    assert entry["bench"] == "gemm"
    assert entry["system"] == "aurora"
    assert entry["fom"] > 0
    assert entry["kernels"] >= 1
    assert entry["profile_digest"] == run.profiler.digest()


def test_gemm_attribution_is_compute_bound():
    run = profile_bench("gemm", "aurora")
    rows = run.profiler.kernel_attribution()
    top = rows[0]
    assert top["bound"] == "compute"
    assert 50.0 < top["model_pct"] <= 101.0
    assert top["intensity"] > 100.0


def test_report_title_and_sections():
    run = profile_bench("p2p", "aurora")
    text = run.report()
    assert text.startswith("== p2p on aurora ")
    assert "BACKEND_MPI | Host profiling" in text
    assert "MPI_Wait" in text
