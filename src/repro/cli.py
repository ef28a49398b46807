"""``pvc-bench`` command-line interface.

Mirrors the artifact's run scripts; ``pvc-bench <command> --help`` lists
the flags each command owns (any other flag is a usage error)::

    pvc-bench table2            # Tables II  (microbenchmarks)
    pvc-bench table3            # Table III  (P2P)
    pvc-bench table4            # Table IV   (reference GPUs)
    pvc-bench table6            # Table VI   (mini-app / app FOMs)
    pvc-bench fig1              # memory-latency curves
    pvc-bench fig2 | fig3 | fig4
    pvc-bench claims            # every checked prose claim
    pvc-bench systems           # node inventories

Chaos testing (deterministic fault injection)::

    pvc-bench table2 --inject device-loss --seed 0
    pvc-bench health --inject plane-outage --seed 3

Telemetry (span traces, metrics, run manifests)::

    pvc-bench trace gemm --out trace.json          # Perfetto timeline
    pvc-bench trace gemm --inject device-loss --seed 7 --out t.json
    pvc-bench metrics triad                        # Prometheus text
    pvc-bench table2 --manifest run.json           # run manifest rider

Profiling (iprof-style API summaries, roofline attribution, baselines)::

    pvc-bench profile gemm --system aurora         # iprof-style tables
    pvc-bench profile smoke --write-baseline BENCH_0.json
    pvc-bench profile smoke --baseline BENCH_0.json   # regression gate
    pvc-bench profile full --baseline BENCH_1.json    # + campaign/sim-cache
    pvc-bench profile triad --flamegraph out.collapsed
    pvc-bench table2 --profile --manifest run.json # profile digest rider

Crash-safe campaigns (write-ahead journal + checkpoint/resume)::

    pvc-bench campaign run    --dir out --spec paper
    pvc-bench campaign run    --dir out --spec smoke --inject crash-midrun
    pvc-bench campaign run    --dir out --spec smoke --jobs 4 \\
        --inject worker-kill                       # worker death heals
    pvc-bench campaign resume --dir out
    pvc-bench campaign status --dir out
    pvc-bench campaign verify --dir out

Live observability (event streams, watch board, exporters, trend); the
run directory is positional::

    pvc-bench campaign watch out                   # live status board
    pvc-bench obs export out --out trace.json      # Perfetto timeline
    pvc-bench obs serve out --port 9100            # OpenMetrics exporter
    pvc-bench trend BENCH_0.json BENCH_1.json      # cross-run analytics

Design-space sweeps (vectorized batch evaluation, million-point grids)::

    pvc-bench sweep million --dir out              # >= 10^6 points
    pvc-bench sweep ci --dir out --jobs 4 --ndjson # sharded, full dump
    pvc-bench sweep myspace.json --top-k 32        # custom JSON spec
    pvc-bench profile sweep --baseline BENCH_3.json   # points/s gate

Service observability (trace propagation, RED/SLO, live board)::

    pvc-bench serve-bench --dir state --port 8080 --slo-latency 2.0
    pvc-bench loadgen --port 8080 --requests 200 --tenants 4
    pvc-bench service watch --port 8080            # live service board
    pvc-bench service watch state --once           # offline fold
    pvc-bench profile service --baseline BENCH_2.json  # storm p99 gate

Exit codes (see ``repro.exitcodes``): 0 = clean, 1 = degraded cells or a
measurement failure, 2 = failed cells, a fatal error or a usage error,
3 = interrupted but resumable (``campaign resume`` finishes it), 4 =
corrupt journal or result store.  With ``--manifest`` the exit code is
always accompanied by a machine-readable manifest binding config,
metrics and incident provenance.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .analysis.artifacts import ARTIFACTS, render
from .errors import ReproError
from .exitcodes import ExitCode, classify_error

if TYPE_CHECKING:
    from .faults.context import ExecutionContext

__all__ = ["build_parser", "main"]

def _run_instrumented(ctx: ExecutionContext, args) -> None:
    """Run one benchmark with the full telemetry session attached."""
    from .profiler.driver import run_bench

    result = run_bench(ctx, args.bench, args.system)
    best = result.best
    print(
        f"# {args.bench} on {args.system} [{result.scope.name}]: "
        f"best {best.work / best.elapsed_s:.4g} {best.unit} "
        f"over {len(result.samples)} samples",
        file=sys.stderr,
    )


def _gate(args, entries: list[dict], code: int, **snapshot_kw) -> int:
    """Write (``--write-baseline``) and/or compare (``--baseline``) a
    perf-regression snapshot of *entries*; a regression raises *code*
    to the MEASUREMENT tier."""
    from .profiler.baseline import (
        build_snapshot,
        compare_snapshots,
        load_baseline,
        write_baseline,
    )

    snapshot = build_snapshot(entries, **snapshot_kw)
    if args.write_baseline:
        write_baseline(args.write_baseline, snapshot)
        print(f"baseline written to {args.write_baseline}", file=sys.stderr)
    if args.baseline:
        comparison = compare_snapshots(load_baseline(args.baseline), snapshot)
        print(comparison.render(), end="")
        if comparison.regressed:
            code = max(code, int(ExitCode.MEASUREMENT))
    return code


def _cmd_profile(args) -> int:
    """``pvc-bench profile <bench>|smoke`` — iprof-style summaries.

    Prints one iprof-style report per profiled run; optional riders
    export a collapsed-stack flamegraph, the raw profile documents, and
    write/compare perf-regression baselines (a regression raises the
    exit code to the MEASUREMENT tier).
    """
    from .ioutils import atomic_write_text
    from .profiler.driver import (
        profile_bench,
        profile_campaign_set,
        profile_smoke_set,
    )
    from .profiler.flamegraph import collapsed_stacks

    if args.bench == "service":
        return _cmd_profile_service(args)
    if args.bench == "sweep":
        return _cmd_profile_sweep(args)
    campaign_entries: list[dict] = []
    if args.bench in ("smoke", "full"):
        runs = profile_smoke_set(scenario=args.inject, seed=args.seed)
        if args.bench == "full":
            # The campaign benchmark matrix: wall-clock at jobs 1 and 4
            # plus the sim memo cache's hit rate (a gated field).
            campaign_entries = profile_campaign_set()
    else:
        runs = [
            profile_bench(
                args.bench, args.system, scenario=args.inject, seed=args.seed
            )
        ]
    for run in runs:
        print(run.report())
    code = max(int(run.ctx.exit_code()) for run in runs)
    if args.flamegraph:
        # Per-run collapsed stacks, each frame path prefixed with the
        # run's identity so the smoke set folds into one flamegraph.
        lines: list[str] = []
        for run in runs:
            lines.extend(
                f"{run.bench}@{run.system};{line}"
                for line in collapsed_stacks(run.telemetry.tracer)
            )
        atomic_write_text(args.flamegraph, "\n".join(sorted(lines)) + "\n")
        print(f"flamegraph written to {args.flamegraph}", file=sys.stderr)
    if args.out:
        import json

        doc = {
            "schema": "repro.profiler.profileset/v1",
            "profiles": {
                f"{run.bench}@{run.system}": run.profiler.to_doc()
                for run in runs
            },
        }
        atomic_write_text(
            args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"profile written to {args.out}", file=sys.stderr)
    for entry in campaign_entries:
        rate = entry["sim_cache_hit_rate"]
        print(
            f"{entry['bench']}@{entry['system']}: {entry['units']} unit(s) "
            f"in {entry['wall_s']:.2f}s wall, sim-cache hit rate "
            f"{rate:.1%}"
        )
    code = _gate(args, [run.entry() for run in runs] + campaign_entries, code)
    if args.manifest is not None:
        if len(runs) == 1:
            from .telemetry.manifest import write_manifest

            write_manifest(args.manifest, runs[0].ctx.manifest("profile"))
            print(f"manifest written to {args.manifest}", file=sys.stderr)
        else:
            print(
                "pvc-bench: note: --manifest applies to single-bench "
                "profiles only",
                file=sys.stderr,
            )
    return code


def _cmd_profile_service(args) -> int:
    """``pvc-bench profile service`` — the storm benchmark.

    Boots a throwaway daemon over a temp state directory, runs the
    standard warm-then-storm load, and gates the storm p99 latency and
    the service cache hit rate against ``BENCH_2.json``-style
    baselines.  Wall-clock latencies are machine-dependent, so the
    snapshot is written with a wide (50%) tolerance; the hit-rate gate
    is exact in practice because the warm pass makes 1.0 the expected
    value.
    """
    import shutil
    import tempfile

    from .service.loadgen import service_benchmark_entries

    root = tempfile.mkdtemp(prefix="repro-profile-service-")
    try:
        entries = service_benchmark_entries(root, seed=args.seed)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for entry in entries:
        print(
            f"{entry['bench']}@{entry['system']}: {entry['completed']}/"
            f"{entry['requests']} done in {entry['wall_s']:.2f}s wall, "
            f"storm p99 {entry['storm_p99_s'] * 1e3:.1f}ms, cache hit "
            f"rate {entry['service_cache_hit_rate']:.1%}"
        )
    return _gate(args, entries, 0, tolerance=0.5)


def _cmd_profile_sweep(args) -> int:
    """``pvc-bench profile sweep`` — the design-space throughput gate.

    Runs the ~138k-point ``ci`` sweep through the batch engine (which
    verifies its scalar golden-reference sample bit for bit), times the
    scalar path over that sample for the points-per-second speedup
    (best of three runs per path, see
    :func:`~repro.sweep.runner.sweep_benchmark_entries`; no plain
    ``sweep`` times it), and gates both throughput figures against
    ``BENCH_3.json``-style baselines.  Beyond the relative
    baseline gate there is a hard floor: the batch path must beat the
    scalar path by :data:`~repro.sweep.runner.SPEEDUP_FLOOR` (50x) or
    the profile fails outright — a slow batch path defeats the whole
    subsystem even on a machine with no baseline to compare against.
    """
    from .sweep.runner import SPEEDUP_FLOOR, sweep_benchmark_entries

    entries = sweep_benchmark_entries()
    code = 0
    for entry in entries:
        speedup = entry["batch_speedup"] or 0.0
        print(
            f"{entry['bench']}@{entry['system']}: {entry['points']:,} "
            f"points in {entry['wall_s']:.3f}s "
            f"({entry['points_per_s'] / 1e6:.1f} M points/s, "
            f"x{speedup:.0f} vs scalar over {entry['verified_sample']} "
            f"verified sample point(s))"
        )
        if speedup < SPEEDUP_FLOOR:
            print(
                f"pvc-bench: sweep speedup x{speedup:.1f} is below the "
                f"x{SPEEDUP_FLOOR:.0f} floor",
                file=sys.stderr,
            )
            code = max(code, int(ExitCode.MEASUREMENT))
    # Throughput figures are wall-clock; the snapshot uses the same
    # wide tolerance as the service storm gate.
    return _gate(args, entries, code, tolerance=0.5)


def _cmd_trace(ctx: ExecutionContext, args) -> None:
    _run_instrumented(ctx, args)
    doc = ctx.telemetry.tracer.export_json()
    if args.out:
        from .ioutils import atomic_write_text

        atomic_write_text(args.out, doc + "\n")
        ctx.trace_files.append(args.out)
        print(f"trace written to {args.out}", file=sys.stderr)
    else:
        print(doc)
    print(ctx.telemetry_summary(), file=sys.stderr)


#: Counters always present in the ``metrics`` scrape, even at zero:
#: dashboards alert on their absence, so a run that never touched the
#: sim cache still exports the series.
_DECLARED_COUNTERS = (
    ("simcache.hit", "sim memo cache hits"),
    ("simcache.miss", "sim memo cache misses"),
    ("simcache.bypass", "sim memo cache bypasses (uncacheable plans)"),
)


def _cmd_metrics(ctx: ExecutionContext, args) -> None:
    _run_instrumented(ctx, args)
    for name, help_text in _DECLARED_COUNTERS:
        ctx.telemetry.metrics.counter(name, help_text)
    print(ctx.telemetry.metrics.to_prometheus(), end="")
    # Percentile summary on stderr, so stdout stays a parseable scrape.
    summary = ctx.telemetry.metrics.percentile_summary()
    if summary:
        print("latency percentiles (from histogram buckets):", file=sys.stderr)
        for name, row in summary.items():
            print(
                f"  {name}: p50 {row['p50']:.4g}  p95 {row['p95']:.4g}  "
                f"p99 {row['p99']:.4g}  (n={row['count']:.0f})",
                file=sys.stderr,
            )


def _cmd_claims() -> None:
    from .analysis.compare import all_claims

    ok = 0
    claims = all_claims()
    for c in claims:
        mark = "PASS" if c.holds else "FAIL"
        ok += c.holds
        print(f"[{mark}] {c.name}: paper {c.paper}; simulated {c.simulated}")
    print(f"\n{ok}/{len(claims)} claims hold")


def _cmd_systems() -> None:
    from .hw.systems import all_systems

    for system in all_systems():
        print(system.node.describe())
        print(f"    software: {system.software}")


def _cmd_health(ctx: ExecutionContext, args) -> None:
    """The node report of the two paper systems (fault-aware under
    ``--inject``), then the hardware model's structural invariants."""
    from .core.result import CellStatus
    from .hw.extensions import frontier, jlse_a100
    from .hw.selfcheck import node_health, self_check
    from .hw.systems import all_systems, get_system

    for name in ("aurora", "dawn"):
        if ctx.active:
            engine = ctx.engine(name)
            injector = engine.faults
            injector.fast_forward()
            report = node_health(engine.system, injector)
            if not report.healthy:
                ctx.record(CellStatus.DEGRADED)
        else:
            report = node_health(get_system(name))
        print(report.render())
        print()
    ok = total = 0
    for system in all_systems() + [frontier(), jlse_a100()]:
        for check in self_check(system):
            total += 1
            ok += check.passed
            mark = "ok " if check.passed else "FAIL"
            print(f"[{mark}] {system.name:12s} {check.name}"
                  + (f"  ({check.detail})" if check.detail else ""))
    if ok < total:
        ctx.record(CellStatus.DEGRADED)
    print(f"\n{ok}/{total} checks pass\n")
    print(ctx.telemetry_summary())


def _cmd_scaling() -> None:
    from .analysis.scaling_study import app_scaling, micro_scaling
    from .hw.systems import get_system
    from .sim.engine import PerfEngine
    from .sim.noise import QUIET

    for name in ("aurora", "dawn"):
        engine = PerfEngine(get_system(name), noise=QUIET)
        print(f"# {name}")
        for study in micro_scaling(engine) + app_scaling(engine):
            knee = study.knee(0.9)
            print(
                f"  {study.name:12s} full-node eff {study.full_node_efficiency:6.1%}"
                + (f"  (drops below 90% at {knee} stacks)" if knee else "")
            )


def _cmd_roofline() -> None:
    from .analysis.roofline_data import paper_kernels, roofline_series
    from .dtypes import Precision
    from .hw.systems import get_system
    from .sim.engine import PerfEngine
    from .sim.noise import QUIET

    for name in ("aurora", "dawn", "jlse-h100", "jlse-mi250"):
        engine = PerfEngine(get_system(name), noise=QUIET)
        series = roofline_series(engine, Precision.FP64)
        print(
            f"{name:12s} roof {series.compute_roof / 1e12:6.1f} TFlop/s  "
            f"slope {series.memory_slope / 1e12:5.2f} TB/s  "
            f"ridge {series.ridge_intensity:5.1f} flop/B"
        )
        for point in paper_kernels(engine):
            print(
                f"    {point.name:22s} AI {point.intensity:8.2f}  "
                f"{point.achieved / 1e12:6.2f} TFlop/s  [{point.bound}]"
            )


def _cmd_top500() -> None:
    from .extras.hpcg import HpcgModel, HplModel
    from .hw.systems import get_system
    from .sim.engine import PerfEngine
    from .sim.noise import QUIET

    print(f"{'system':14s} {'HPL/node':>12s} {'HPCG/node':>12s} {'HPCG/HPL':>9s}")
    for name in ("aurora", "dawn", "jlse-h100", "jlse-mi250"):
        engine = PerfEngine(get_system(name), noise=QUIET)
        hpl = HplModel(engine).node_rate()
        hpcg = HpcgModel(engine).node_rate()
        print(
            f"{name:14s} {hpl / 1e12:9.1f} TF {hpcg / 1e12:9.2f} TF"
            f" {hpcg / hpl:8.1%}"
        )


# Report commands.  Those taking the fault flags get the execution
# context and the parsed args; the rest take no arguments and run clean.
# The paper's artifacts print what the campaign and the service render.
_FAULTED = {
    **{
        name: lambda ctx, args, name=name: print(render(name, ctx))
        for name, artifact in ARTIFACTS.items()
        if artifact.takes_ctx
    },
    "health": _cmd_health,
}

_CLEAN = {
    **{
        name: lambda name=name: print(render(name))
        for name, artifact in ARTIFACTS.items()
        if not artifact.takes_ctx
    },
    "claims": _cmd_claims,
    "systems": _cmd_systems,
    "roofline": _cmd_roofline,
    "top500": _cmd_top500,
    "scaling": _cmd_scaling,
}

#: Commands whose output is the telemetry session itself.
_TRACED = ("health", "metrics", "trace")


def _session(args, profile: bool = False):
    """The telemetry session a report needs, or None if nothing reads it."""
    if args.command in _TRACED or profile or args.manifest is not None:
        from .telemetry import Telemetry

        return Telemetry(profile=profile)
    return None


def _finish(ctx: ExecutionContext, args) -> int:
    """Write the ``--manifest`` rider; the run's exit code."""
    if args.manifest is not None:
        from .telemetry.manifest import write_manifest

        write_manifest(args.manifest, ctx.manifest(args.command))
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    return ctx.exit_code()


def _run_clean(args) -> int:
    from .faults.context import ExecutionContext

    ctx = ExecutionContext(telemetry=_session(args))
    args.body()
    return _finish(ctx, args)


def _run_faulted(args) -> int:
    from .faults.context import ExecutionContext

    ctx = ExecutionContext(
        args.inject, args.seed, telemetry=_session(args, args.profile)
    )
    args.body(ctx, args)
    return _finish(ctx, args)


def _lazy(module: str, name: str):
    """A handler that imports ``repro.<module>`` only when its command
    runs, so building the parser loads no service/sweep/profiler code."""

    def run(args) -> int:
        from importlib import import_module

        return getattr(import_module(f"{__package__}.{module}"), name)(args)

    return run


def _bounded(kind, below=None):
    """``type=`` for a *kind* value that must be > 0 (and < *below*)."""

    def parse(text: str):
        value = kind(text)
        if value <= 0 or (below is not None and value >= below):
            rule = "> 0" if below is None else f"in (0, {below})"
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def _add_fault_flags(sub, campaign: bool = False, profile: bool = True):
    inject = sub.add_argument("--inject", metavar="SCENARIO")

    def name_scenarios() -> None:
        from .faults.scenarios import CAMPAIGN_SCENARIO_NAMES, SCENARIO_NAMES

        names = SCENARIO_NAMES
        if campaign:
            from .faults.process import WORKER_SCENARIO_NAMES

            names += CAMPAIGN_SCENARIO_NAMES + WORKER_SCENARIO_NAMES
        inject.help = f"inject a deterministic fault scenario: {', '.join(names)}"

    sub.pending += (name_scenarios,)
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the fault schedule (default: %(default)s)",
    )
    if profile:
        sub.add_argument(
            "--profile",
            action="store_true",
            help="attach the API profiler; the manifest or campaign "
            "results gain a profile digest",
        )


def _add_manifest_flag(sub) -> None:
    sub.add_argument(
        "--manifest",
        metavar="PATH",
        help="also write a run manifest (config + metrics + provenance)",
    )


def _add_gate_flags(sub) -> None:
    sub.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare against this baseline snapshot; a regression "
        "beyond tolerance exits non-zero",
    )
    sub.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write the run's snapshot as a new baseline",
    )


def _add_bench_args(sub, help_text: str) -> None:
    sub.add_argument("bench", nargs="?", default="gemm", help=help_text)
    sub.add_argument(
        "--system", default="aurora", help="system to run on (default: "
        "%(default)s)"
    )


def _add_follow_flags(sub) -> None:
    sub.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit instead of following",
    )
    sub.add_argument(
        "--interval",
        type=_bounded(float),
        default=0.5,
        metavar="SECONDS",
        help="poll interval (default: %(default)s)",
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line and exit 2, like every other
    ``pvc-bench`` diagnosis.

    :attr:`narrowed` maps a ``bench`` value to a parser that re-reads
    the same arguments: a target that owns fewer flags than its command
    (``profile service|sweep``) rejects the others instead of ignoring
    them.

    :attr:`pending` holds callbacks that fill in flag help and choices
    naming a subsystem's contents (fault scenarios, campaign specs).
    They run when this parser first parses (``--help`` included), so
    building the whole parser imports none of those subsystems."""

    narrowed: dict = {}
    pending: tuple = ()

    def _fill(self) -> None:
        pending, self.pending = self.pending, ()
        for fill in pending:
            fill()

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message} (see --help)\n")

    def parse_known_args(self, args=None, namespace=None):
        self._fill()
        parsed, extras = super().parse_known_args(args, namespace)
        narrow = self.narrowed.get(getattr(parsed, "bench", None))
        if narrow is None:
            return parsed, extras
        return narrow.parse_known_args(args, namespace)


def _actions(commands, name: str, help_text: str):
    return commands.add_parser(name, help=help_text).add_subparsers(
        dest="action", required=True, metavar="ACTION"
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``pvc-bench`` parser: one subparser per command (and per
    campaign/obs/service action), each declaring only what it reads."""
    parser = _Parser(
        prog="pvc-bench",
        description="Regenerate the paper's tables and figures on the "
        "simulated substrate.  'pvc-bench <command> --help' lists a "
        "command's flags.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def report(name, body, faulted=True):
        sub = commands.add_parser(name)
        if faulted:
            _add_fault_flags(sub)
        _add_manifest_flag(sub)
        sub.set_defaults(run=_run_faulted if faulted else _run_clean, body=body)
        return sub

    for name, body in _CLEAN.items():
        report(name, body, faulted=False)
    for name, body in _FAULTED.items():
        report(name, body)
    # The structural checks ``selfcheck`` printed are rows of ``health``.
    commands.add_parser("selfcheck").set_defaults(
        run=lambda args: parser.error(
            "selfcheck is part of health: run 'pvc-bench health'"
        )
    )
    benches = "benchmark: gemm, triad or p2p (default: %(default)s)"
    trace = report("trace", _cmd_trace)
    _add_bench_args(trace, benches)
    trace.add_argument(
        "--out",
        metavar="PATH",
        help="write the Perfetto trace JSON here instead of stdout",
    )
    _add_bench_args(report("metrics", _cmd_metrics), benches)

    profile = commands.add_parser(
        "profile", help="iprof-style profiles and perf-regression gates"
    )
    _add_bench_args(
        profile,
        f"{benches}; or a set: smoke, full (smoke + the campaign "
        "wall-clock/sim-cache matrix), service (daemon storm) or sweep "
        "(design-space throughput); service and sweep take only the "
        "baseline flags (and service --seed)",
    )
    _add_fault_flags(profile, profile=False)
    _add_manifest_flag(profile)
    profile.add_argument(
        "--out", metavar="PATH", help="write the raw profile documents here"
    )
    _add_gate_flags(profile)
    profile.add_argument(
        "--flamegraph",
        metavar="PATH",
        help="export a deterministic collapsed-stack file "
        "(flamegraph.pl / speedscope input)",
    )
    profile.set_defaults(run=_cmd_profile)
    profile.narrowed = {}
    for target in ("service", "sweep"):
        narrow = _Parser(prog=profile.prog, add_help=False)
        narrow.add_argument("bench")
        if target == "service":
            narrow.add_argument("--seed", type=int, default=0)
        _add_gate_flags(narrow)
        narrow.set_defaults(run=_cmd_profile)
        profile.narrowed[target] = narrow

    campaign = _actions(
        commands, "campaign", "crash-safe journalled campaigns"
    )
    campaign_main = _lazy("campaign.orchestrator", "campaign_main")
    run = campaign.add_parser("run", help="start a campaign")
    resume = campaign.add_parser("resume", help="finish an interrupted run")
    status = campaign.add_parser("status", help="per-unit progress")
    verify = campaign.add_parser("verify", help="prove journal/store integrity")
    for sub in (run, resume, status, verify):
        sub.add_argument(
            "--dir",
            required=True,
            help="campaign directory (journal, result store, artifacts)",
        )
        sub.set_defaults(run=campaign_main)
    spec = run.add_argument(
        "--spec", default="paper", help="campaign spec (default: %(default)s)"
    )

    def name_specs() -> None:
        from .campaign.spec import SPEC_NAMES

        spec.choices = sorted(SPEC_NAMES)

    run.pending += (name_specs,)
    _add_fault_flags(run, campaign=True)
    for sub in (run, resume):
        sub.add_argument(
            "--unit-timeout",
            type=float,
            metavar="SECONDS",
            help="per-unit simulated-clock watchdog: units that consume "
            "more simulated seconds are demoted to FAILED",
        )
        sub.add_argument(
            "--deadline",
            type=float,
            metavar="SECONDS",
            help="campaign deadline on the simulated clock: scheduling "
            "stops once exceeded and the run exits resumable (code 3)",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            metavar="N",
            help="execute independent units on N worker processes "
            "(artifacts stay byte-identical to a serial run; a worker "
            "death runs the rest in-process); defaults to $CAMPAIGN_JOBS, "
            "else 1 (serial)",
        )
    watch = campaign.add_parser("watch", help="live status board")
    watch.add_argument("rundir", help="campaign run directory")
    _add_follow_flags(watch)
    watch.set_defaults(run=_lazy("obs.watch", "watch_main"))

    obs = _actions(commands, "obs", "exporters over a run directory")
    export = obs.add_parser("export", help="Perfetto/Chrome trace JSON")
    export.add_argument("rundir", help="campaign, service or sweep directory")
    export.add_argument(
        "--out", metavar="PATH", help="write the trace here instead of stdout"
    )
    export.set_defaults(run=_lazy("obs.export", "export_main"))
    serve = obs.add_parser("serve", help="OpenMetrics scrape endpoint")
    serve.add_argument("rundir", help="campaign run directory")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (default: %(default)s, ephemeral)",
    )
    serve.set_defaults(run=_lazy("obs.serve", "serve_main"))

    service = _actions(commands, "service", "benchmark-service boards")
    board = service.add_parser("watch", help="live or offline service board")
    source = board.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "state", nargs="?", help="fold this state directory offline"
    )
    source.add_argument(
        "--port",
        type=_bounded(int),
        help="scrape the live daemon's /board on this port",
    )
    board.add_argument(
        "--host", default="127.0.0.1", help="daemon host (default: "
        "%(default)s)"
    )
    _add_follow_flags(board)
    board.set_defaults(run=_lazy("obs.watch", "service_watch_main"))

    daemon = commands.add_parser(
        "serve-bench", help="the benchmark service daemon (SIGTERM drains)"
    )
    daemon.add_argument(
        "--dir", required=True, help="state directory (journal, results)"
    )
    daemon.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (default: %(default)s, ephemeral)",
    )
    daemon.add_argument(
        "--workers",
        type=_bounded(int),
        default=4,
        metavar="N",
        help="executor threads pulling from the admission queue "
        "(default: %(default)s)",
    )
    daemon.add_argument(
        "--slo-latency",
        type=_bounded(float),
        default=5.0,
        metavar="SECONDS",
        help="SLO latency objective: a request slower than this counts "
        "against availability (default: %(default)s)",
    )
    daemon.add_argument(
        "--slo-availability",
        type=_bounded(float, below=1),
        default=0.99,
        metavar="FRACTION",
        help="SLO availability objective in (0, 1) (default: %(default)s)",
    )
    daemon.set_defaults(run=_lazy("service.daemon", "serve_bench_main"))

    loadgen = commands.add_parser(
        "loadgen", help="fire a request population at a running daemon"
    )
    loadgen.add_argument(
        "--port", type=_bounded(int), required=True, help="daemon port"
    )
    loadgen.add_argument(
        "--host", default="127.0.0.1", help="daemon host (default: "
        "%(default)s)"
    )
    for flag, default, help_text in (
        ("--requests", 200, "total requests to fire"),
        ("--concurrency", 16, "concurrent client connections"),
        ("--distinct", 1, "distinct request bodies (1 = maximal cache "
         "pressure)"),
        ("--tenants", 4, "tenants to spread the population over"),
    ):
        loadgen.add_argument(
            flag,
            type=_bounded(int),
            default=default,
            metavar="N",
            help=f"{help_text} (default: %(default)s)",
        )
    loadgen.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the request population (default: %(default)s)",
    )
    loadgen.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="per-request deadline_s: the daemon expires a request still "
        "queued after this long (default: none)",
    )
    loadgen.set_defaults(run=_lazy("service.loadgen", "loadgen_main"))

    sweep = commands.add_parser(
        "sweep", help="design-space sweep through the batch engine"
    )
    sweep.add_argument(
        "spec", help="builtin sweep spec name (e.g. smoke, ci, million) "
        "or a JSON spec file"
    )
    sweep.add_argument(
        "--dir", help="write sweep.json and topk.ndjson (+ results.ndjson)"
    )
    sweep.add_argument(
        "--top-k",
        type=int,
        default=16,
        metavar="N",
        help="result rows to keep and rank (default: %(default)s)",
    )
    sweep.add_argument(
        "--chunk",
        type=int,
        default=262_144,
        metavar="POINTS",
        help="points per evaluation chunk: bounds memory and sets the "
        "sharding granularity (default: %(default)s)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard evaluation chunks across N fork workers (default: "
        "%(default)s)",
    )
    sweep.add_argument(
        "--ndjson",
        action="store_true",
        help="also write every evaluated point to results.ndjson",
    )
    sweep.add_argument(
        "--verify",
        type=int,
        default=64,
        metavar="N",
        help="sampled points re-evaluated through the scalar golden "
        "reference, which must agree bit for bit (default: %(default)s; "
        "0 disables)",
    )
    sweep.set_defaults(run=_lazy("sweep.runner", "sweep_main"))

    trend = commands.add_parser(
        "trend", help="cross-run analytics over baseline snapshots"
    )
    trend.add_argument(
        "paths", nargs="+", metavar="BASELINE", help="oldest first"
    )
    trend.set_defaults(run=_lazy("obs.trend", "trend_main"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KeyboardInterrupt:
        print("pvc-bench: interrupted (resumable state flushed)", file=sys.stderr)
        return int(ExitCode.INTERRUPTED)
    except ReproError as exc:
        print(f"pvc-bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return int(classify_error(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
