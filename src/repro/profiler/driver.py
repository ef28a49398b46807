"""The ``pvc-bench profile`` runner: profiled benchmark executions.

Runs a benchmark with a profiling telemetry session attached, the same
plan the ``trace``/``metrics`` commands use, plus a small staging phase
(USM allocation + host-to-device copies at the benchmark's working-set
size) so the profile exercises the full API surface an iprof trace of
the real run shows — allocation, copy-in, kernel launches,
synchronisation — not just the kernel loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.result import BenchmarkResult
from ..core.runner import RunPlan
from ..errors import UnknownBenchmarkError
from ..faults import ExecutionContext
from ..telemetry import Telemetry
from .core import ApiProfiler

__all__ = [
    "CAMPAIGN_BENCH_MATRIX",
    "PROFILE_BENCHES",
    "SMOKE_SYSTEMS",
    "ProfiledRun",
    "bench_campaign",
    "profile_bench",
    "profile_campaign_set",
    "profile_smoke_set",
    "run_bench",
]

#: Benchmarks the profiler driver can run (same set as trace/metrics).
PROFILE_BENCHES = ("gemm", "triad", "p2p")

#: Systems the smoke profile set covers.
SMOKE_SYSTEMS = ("aurora", "dawn")

#: Repetition plan shared with the trace/metrics commands: long enough
#: that every fault scenario's trigger tick falls inside the run.
_PLAN = RunPlan(repetitions=30, warmup=2)


#: Functional payload carried by staging copies.  The *timed* (and
#: profiled) size is the paper-scale working set; the payload keeps the
#: simulation's host memory bounded, same idiom as the benchmarks.
_STAGE_PAYLOAD = 1 << 20


def _stage_gemm(engine, queue) -> None:
    """Allocate the GEMM operands and copy A and B to the device."""
    from ..sim.kernel import GEMM_N

    nbytes = GEMM_N * GEMM_N * 8  # FP64 matrices, paper scale
    host = queue.malloc_host(_STAGE_PAYLOAD)
    a = queue.malloc_device(_STAGE_PAYLOAD)
    b = queue.malloc_device(_STAGE_PAYLOAD)
    c = queue.malloc_device(_STAGE_PAYLOAD)
    queue.memcpy(a, host, _STAGE_PAYLOAD, timed_nbytes=nbytes)
    queue.memcpy(b, host, _STAGE_PAYLOAD, timed_nbytes=nbytes)
    queue.wait()
    for alloc in (c, b, a, host):
        queue.free(alloc)


def _stage_triad(engine, queue) -> None:
    """Allocate the three STREAM arrays and initialise one from host."""
    from ..micro.triad import triad_array_bytes

    nbytes = triad_array_bytes(engine)
    host = queue.malloc_host(_STAGE_PAYLOAD)
    arrays = [queue.malloc_device(_STAGE_PAYLOAD) for _ in range(3)]
    queue.memcpy(arrays[0], host, _STAGE_PAYLOAD, timed_nbytes=nbytes)
    queue.wait()
    for alloc in reversed(arrays):
        queue.free(alloc)
    queue.free(host)


def _stage_p2p(engine, queue) -> None:
    """Pin the message buffer the P2P exchange sends."""
    host = queue.malloc_host(_STAGE_PAYLOAD)
    queue.free(host)


_STAGING = {
    "gemm": _stage_gemm,
    "triad": _stage_triad,
    "p2p": _stage_p2p,
}


def run_bench(ctx: ExecutionContext, bench: str, system: str) -> BenchmarkResult:
    """Run one profiled/traced benchmark under *ctx*'s telemetry session.

    Shared by ``pvc-bench profile`` and the trace/metrics commands: same
    benchmark construction, same repetition plan, same scope.
    """
    from ..micro.gemm import Gemm
    from ..micro.p2p import P2PBandwidth
    from ..micro.triad import Triad
    from ..runtime.sycl import stack_queue

    if bench not in PROFILE_BENCHES:
        raise UnknownBenchmarkError(
            f"unknown benchmark {bench!r}; choose from: "
            + ", ".join(PROFILE_BENCHES)
        )
    engine = ctx.engine(system)
    if bench == "gemm":
        instance, n_stacks = Gemm(), engine.node.n_stacks
    elif bench == "triad":
        instance, n_stacks = Triad(), engine.node.n_stacks
    else:  # p2p: single pair, exercised through the simulated MPI layer
        instance, n_stacks = P2PBandwidth("remote"), 1
    if getattr(ctx.telemetry, "profiler", None) is not None:
        ref = engine.select_stacks(1)[0]
        queue = stack_queue(engine, ref)
        _STAGING[bench](engine, queue)
    result = instance.measure(engine, n_stacks=n_stacks, plan=_PLAN)
    if result.provenance is not None:
        ctx.record(result.provenance.status)
    return result


@dataclass
class ProfiledRun:
    """One profiled benchmark execution and its aggregates."""

    bench: str
    system: str
    ctx: ExecutionContext
    telemetry: Telemetry
    result: BenchmarkResult = field(repr=False)

    @property
    def profiler(self) -> ApiProfiler:
        assert self.telemetry.profiler is not None
        return self.telemetry.profiler

    @property
    def fom(self) -> float:
        best = self.result.best
        return best.work / best.elapsed_s

    @property
    def fom_unit(self) -> str:
        return self.result.best.unit

    def title(self) -> str:
        return f"{self.bench} on {self.system} [{self.result.scope.name}]"

    def entry(self) -> dict:
        """The baseline-snapshot entry for this run (see baseline.py)."""
        p = self.profiler
        attribution = p.kernel_attribution()
        return {
            "bench": self.bench,
            "system": self.system,
            "fom": self.fom,
            "fom_unit": self.fom_unit,
            "api_calls": p.n_calls,
            "host_us": p.host_total_us(),
            "device_us": p.device_total_us(),
            "traffic_bytes": p.traffic_total_bytes(),
            "kernels": len(attribution),
            # Ungated per-kernel rows: ``bench trend`` uses these to
            # attribute a device_us/FOM delta to the kernel (and the
            # roofline bound) that moved.  Older baselines without them
            # still compare — the gated fields above are unchanged.
            "kernel_attribution": attribution,
            "profile_digest": p.digest(),
        }

    def report(self) -> str:
        from .report import render_profile

        return render_profile(self.profiler, title=self.title())


def profile_bench(
    bench: str,
    system: str,
    *,
    scenario: str | None = None,
    seed: int = 0,
) -> ProfiledRun:
    """Run one benchmark under a fresh profiling telemetry session."""
    telemetry = Telemetry(profile=True)
    ctx = ExecutionContext(scenario, seed, telemetry=telemetry)
    result = run_bench(ctx, bench, system)
    return ProfiledRun(
        bench=bench, system=system, ctx=ctx, telemetry=telemetry, result=result
    )


def profile_smoke_set(
    *, scenario: str | None = None, seed: int = 0
) -> list[ProfiledRun]:
    """Profile every bench on every smoke system (the CI baseline set)."""
    return [
        profile_bench(bench, system, scenario=scenario, seed=seed)
        for system in SMOKE_SYSTEMS
        for bench in PROFILE_BENCHES
    ]


#: The (spec, jobs) grid ``pvc-bench profile full`` benchmarks.  The
#: smoke spec exercises the scheduler cheaply at both ends; the paper
#: spec is the run whose roofline evaluations give the sim memo cache a
#: meaningful hit rate.
CAMPAIGN_BENCH_MATRIX = (
    ("smoke", 1),
    ("smoke", 4),
    ("paper", 1),
    ("paper", 4),
)


def bench_campaign(spec: str = "smoke", jobs: int = 1) -> dict:
    """One campaign benchmark entry: wall-clock + sim-cache counters.

    Runs the named spec in a throwaway directory and distils the
    baseline entry from its manifest.  ``wall_s`` is informational —
    wall-clock depends on the machine, so it is *not* a gated baseline
    field — while ``sim_cache_hit_rate`` is a pure function of the spec
    and the model code, and gates regressions (a cache that stops
    hitting is a perf bug even when tests still pass).
    """
    import contextlib
    import io
    import json
    import shutil
    import tempfile
    import time

    from ..campaign.orchestrator import Orchestrator
    from ..campaign.spec import get_spec

    workdir = tempfile.mkdtemp(prefix="pvc-bench-campaign-")
    try:
        orch = Orchestrator(workdir, spec=get_spec(spec), jobs=jobs)
        quiet = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(quiet):
            code = orch.run()
        wall_s = time.perf_counter() - start
        with open(orch.manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = manifest["campaign"]["metrics"]

    def total(name: str) -> float:
        return sum(
            s["value"] for s in metrics.get(name, {}).get("samples", [])
        )

    hits, misses = total("simcache.hit"), total("simcache.miss")
    evals = hits + misses
    return {
        "bench": f"campaign-{spec}",
        "system": f"jobs{jobs}",
        "exit": int(code),
        "units": len(manifest["campaign"]["units"]),
        "wall_s": wall_s,
        "sim_cache_hits": hits,
        "sim_cache_misses": misses,
        "sim_cache_hit_rate": hits / evals if evals else 0.0,
    }


def profile_campaign_set() -> list[dict]:
    """Baseline entries for the campaign benchmark matrix."""
    return [bench_campaign(spec, jobs) for spec, jobs in CAMPAIGN_BENCH_MATRIX]
