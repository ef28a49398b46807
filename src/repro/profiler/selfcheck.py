"""Profiler self-check: the profiler leg of ``pvc-bench health``.

Exercises the full interception surface on a small, quiet run —
driver bring-up, queue creation, USM allocation, a copy, a kernel, an
event-profiling query, a two-rank barrier — and asserts the structural
invariants the profile depends on: every layer registered its
instrumentation points, calls actually landed in each layer, the
per-stream simulated clock stayed monotonic, and the profile digest is
stable across recomputation.  Failures map to the DEGRADED tier of the
health exit-code taxonomy (a broken profiler cannot corrupt results,
only observability).
"""

from __future__ import annotations

from ..hw.selfcheck import CheckResult
from .core import (
    MPI_POINTS,
    SYCL_POINTS,
    ZE_DRIVER_POINTS,
    ZE_QUEUE_POINTS,
)

__all__ = ["profiler_selfcheck"]


def _check(name: str, condition: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(condition), detail)


def _exercise():
    """A tiny profiled run touching every instrumentation layer."""
    from ..hw.systems import get_system
    from ..runtime.mpi import SimMPI
    from ..sim.engine import PerfEngine
    from ..sim.kernel import KernelSpec
    from ..sim.noise import QUIET
    from ..telemetry import Telemetry

    telemetry = Telemetry(profile=True)
    engine = PerfEngine(get_system("aurora"), noise=QUIET, telemetry=telemetry)
    ref = engine.select_stacks(1)[0]
    queue = telemetry.sycl_queue(engine, ref)
    host = queue.malloc_host(4096)
    dev = queue.malloc_device(4096)
    queue.memcpy(dev, host, 4096)
    spec = KernelSpec(name="selfcheck.axpy", flops=2 * 512, bytes_read=4096,
                      bytes_written=4096)
    event = queue.submit(spec)
    event.profiling_info()
    queue.wait()
    queue.free(dev)
    queue.free(host)

    def barrier(comm):
        yield from comm.Barrier()

    SimMPI(engine, n_ranks=2).run(barrier)
    return telemetry.profiler


def profiler_selfcheck() -> list[CheckResult]:
    """Structural invariants of the interception layer."""
    profiler = _exercise()
    checks: list[CheckResult] = []

    layers = profiler.layers()
    checks.append(
        _check(
            "profiler layers registered",
            set(layers) == {"ze", "sycl", "mpi"},
            f"registered: {', '.join(layers) or '(none)'}",
        )
    )

    expected = {
        "ze": set(ZE_DRIVER_POINTS) | set(ZE_QUEUE_POINTS),
        "sycl": set(SYCL_POINTS),
        "mpi": set(MPI_POINTS),
    }
    for layer, points in sorted(expected.items()):
        have = set(profiler.points(layer))
        missing = sorted(points - have)
        checks.append(
            _check(
                f"{layer} interception points registered",
                not missing,
                "all present" if not missing else "missing: " + ", ".join(missing),
            )
        )

    host = profiler.host_table()
    for layer in ("ze", "sycl", "mpi"):
        n = sum(s["calls"] for s in host.get(layer, {}).values())
        checks.append(
            _check(
                f"{layer} calls recorded",
                n > 0,
                f"{n} call(s)",
            )
        )

    checks.append(
        _check(
            "stream clocks monotonic",
            not profiler.clock_violations,
            "no violations"
            if not profiler.clock_violations
            else "; ".join(profiler.clock_violations[:3]),
        )
    )

    rows = profiler.kernel_attribution()
    checks.append(
        _check(
            "kernel attribution joins the roofline",
            bool(rows)
            and all(
                r["bound"] in ("compute", "memory", "latency")
                and r["model_pct"] > 0.0
                for r in rows
            ),
            f"{len(rows)} kernel(s) attributed",
        )
    )

    d1, d2 = profiler.digest(), profiler.digest()
    checks.append(
        _check(
            "profile digest stable",
            d1 == d2,
            d1[:12],
        )
    )
    return checks
