"""Benchmark of the paper campaign, the benchmark service and the sweep.

Run from the repository root::

    python3 bench/run.py --workload campaign-paper --seed 0 --seconds 20 --trace 0

``--workload`` is one of ``campaign-paper``, ``service-warm``,
``service-cold`` and ``sweep-million`` (see ``bench/README.md`` for why
each exists).  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it measures the per-layer
ledger from spans recorded around the program's entry points.  Every
output is checked against ``bench/expected.json``.

A report goes to standard error.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--out PATH`` also writes the raw per-op samples, their quartiles and
the run's provenance.  The exit code is 0 only when no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _report(name: str, trace: bool, values: dict, bounds: dict) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"# {name}: {kind} metrics", file=sys.stderr)
    for metric, row in values.items():
        line = f"  {metric:38s} {row['value']:>14.6g} {row['unit']:9s}"
        if "n" in row:
            line += f" n={row['n']:<5d}"
        if metric in bounds:
            line += f" bound {bounds[metric]:.0%}"
        print(line, file=sys.stderr)


def _results(args, run, values: dict) -> dict:
    from stats import summary

    ops = run.ops
    series = {
        "latency_s": [op["latency_s"] for op in ops if op["ok"] and not op["traced"]],
        "setup_s": run.setup_s,
        "work_per_s": run.work_per_s,
        "peak_rss_mb": run.rss_mb,
        "lag_s": run.lag_s,
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_rev": _git_rev(),
        "metrics": values,
        "samples": series,
        "quartiles": {k: summary(v) for k, v in series.items() if v},
        "failures": [op["error"] for op in ops if not op["ok"]],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write raw samples here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import metrics
    from procs import Scratch
    from workloads import WORKLOADS, load_expected

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from: "
                     + ", ".join(WORKLOADS))
    trace = bool(args.trace)
    with Scratch() as scratch:
        try:
            run = workload.run(scratch, load_expected(), args.seconds, trace,
                               args.seed)
            values = (metrics.per_layer(run, workload) if trace
                      else metrics.end_to_end(run))
        except RuntimeError as exc:
            print(f"bench: {args.workload}: {exc}", file=sys.stderr)
            return 1
    failed = sum(1 for op in run.ops if not op["ok"])
    bounds = {name: spec[2] for name, spec in metrics.END_TO_END.items()}
    _report(args.workload, trace, values, bounds)
    if not trace:
        from stats import TAIL_MIN_BEYOND, summary

        tail = summary([op["latency_s"] for op in run.ops if op["ok"]])
        note = "" if tail["p90_supported"] else (
            f"; fewer than {TAIL_MIN_BEYOND} samples beyond it")
        print(f"  latency p90 {tail['p90']:.6g} s over {tail['n']} ops "
              f"(not gated{note})", file=sys.stderr)
    for op in run.ops:
        if not op["ok"]:
            print(f"  failed: {op['error']}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_results(args, run, values), fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
