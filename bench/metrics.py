"""End-to-end and per-layer metrics, computed from one workload run.

``BENCHMARK.json`` lists exactly :data:`END_TO_END` and
:data:`PER_LAYER`; a harness test keeps the two in step.
"""

from __future__ import annotations

import statistics

from spans import LAYERS
from stats import percentile

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer"]

#: name -> (unit, better, bound as a share of the parent's median).
#: On the shared 2-core box this was built on, bursts of load from other
#: tenants slow whole runs by up to 40%, so the latency and throughput
#: bounds are wide, just below set-up time's, which is the largest so
#: that work moved into set-up shows.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_s": ("s", "lower", 0.24),
    "work_per_s": ("1/s", "higher", 0.24),
    "slo_attainment": ("fraction", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: Request phases the daemon records per request (repro.obs.requests).
PHASES = ("parse", "admission", "queue", "cache", "execute", "serialize")

#: Packages whose import time is reported on its own.
IMPORT_PACKAGES = ("repro", "numpy", "networkx")

#: name -> (unit, better).  Per-op counts are ``1/op``; time shares
#: are of the ops' end-to-end latency, so every figure reads the same
#: way on any workload, including zero on one that never enters the
#: layer.
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("1/op", "lower")
    PER_LAYER[f"{_layer}.self_frac"] = ("fraction", "lower")
PER_LAYER.update({
    "micro.functional.distinct_frac": ("fraction", "higher"),
    "sim.memo.hit_frac": ("fraction", "higher"),
    "ioutils.retries": ("1/op", "lower"),
    **{f"service.phase.{p}.frac": ("fraction", "lower") for p in PHASES},
    "service.http.frac": ("fraction", "lower"),
    "service.result_cache.hit_frac": ("fraction", "higher"),
    "service.executor.busy_frac": ("fraction", "lower"),
    "sweep.chunks": ("1/op", "lower"),
    "sweep.chunk_frac": ("fraction", "lower"),
    **{f"import.{p}_s": ("s", "lower") for p in (*IMPORT_PACKAGES, "other")},
    "unattributed_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "loadgen.lag_p50_s": ("s", "lower"),
    "loadgen.lag_max_s": ("s", "lower"),
})


def end_to_end(run) -> dict[str, dict]:
    """Every :data:`END_TO_END` metric of an untraced run, with its
    sample count.  The latency median is taken per group of ops (one
    group per measured daemon) and the median across groups reported."""
    ops = run.untraced()
    groups: dict[int, list[float]] = {}
    for op in ops:
        if op["ok"]:
            groups.setdefault(op.get("group", 0), []).append(op["latency_s"])
    good = [x for latencies in groups.values() for x in latencies]
    if not good:
        raise RuntimeError("no op succeeded")
    met = sum(1 for op in ops if op["ok"] and op["latency_s"] <= run.slo_s)

    values = {
        "setup_s": (statistics.median(run.setup_s), len(run.setup_s)),
        "latency_p50_s": (
            statistics.median(percentile(g, 50) for g in groups.values()),
            len(good),
        ),
        "work_per_s": (statistics.median(run.work_per_s), len(run.work_per_s)),
        "slo_attainment": (met / len(ops), len(ops)),
        "peak_rss_mb": (statistics.median(run.rss_mb), len(run.rss_mb)),
    }
    return {
        name: {"value": value, "unit": END_TO_END[name][0], "n": n}
        for name, (value, n) in values.items()
    }


def _merge_folds(traced: list[dict]) -> tuple[dict, dict]:
    layers: dict[str, dict] = {}
    entry: dict[str, int] = {}
    for item in traced:
        for name, row in item["fold"]["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "distinct": 0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
            acc["distinct"] += len(set(row["digests"]))
        for name, calls in item["fold"]["entry"].items():
            entry[name] = entry.get(name, 0) + calls
    return layers, entry


def guard(workload, traced: list[dict]) -> None:
    """Fail loudly if an entry point the workload's ledger names was not
    wrapped or recorded no call: a rename in the program would
    otherwise read as a layer that costs nothing."""
    _, entry = _merge_folds(traced)
    installed = set().union(*(item["installed"] for item in traced))
    for target in workload.ledger:
        if target not in installed:
            raise RuntimeError(f"wrapper guard: {target} was not installed")
        if not entry.get(target):
            raise RuntimeError(f"wrapper guard: {target} recorded no calls")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _overhead(ops: list[dict], paired: bool) -> float:
    """Traced over untraced latency, minus 1.

    Process workloads alternate untraced and traced ops, so each traced
    op is compared with the untraced op just before it and the median
    ratio taken: a burst of load from elsewhere then slows both sides of
    a pair.  A service run has one untraced and one traced half.
    """
    if paired:
        ratios = [b["latency_s"] / a["latency_s"]
                  for a, b in zip(ops[::2], ops[1::2])
                  if a["ok"] and b["ok"] and b["traced"] and not a["traced"]]
        return statistics.median(ratios) - 1.0
    plain = [op["latency_s"] for op in ops if op["ok"] and not op["traced"]]
    traced = [op["latency_s"] for op in ops if op["ok"] and op["traced"]]
    return statistics.median(traced) / statistics.median(plain) - 1.0


def per_layer(run, workload) -> dict[str, dict]:
    """Every :data:`PER_LAYER` metric of a traced run."""
    traced = run.traced
    guard(workload, traced)
    layers, _ = _merge_folds(traced)
    requests = [r for item in traced for r in item.get("requests", ())]
    if requests:
        n_ops = len(requests)
        wall = sum(r["latency_s"] for r in requests)
    else:
        n_ops = len(traced)
        wall = sum(item["wall_s"] for item in traced)
    values: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        row = layers.get(layer, {"calls": 0, "self_s": 0.0, "distinct": 0})
        values[f"{layer}.calls"] = _ratio(row["calls"], n_ops)
        values[f"{layer}.self_frac"] = _ratio(row["self_s"], wall)
        attributed += row["self_s"]
    functional = layers.get("micro.functional", {"calls": 0, "distinct": 0})
    values["micro.functional.distinct_frac"] = _ratio(
        functional["distinct"], functional["calls"])
    hits = sum(item.get("simcache_hit", 0.0) for item in traced)
    misses = sum(item.get("simcache_miss", 0.0) for item in traced)
    values["sim.memo.hit_frac"] = _ratio(hits, hits + misses)
    values["ioutils.retries"] = _ratio(
        sum(item["io_retries"] for item in traced), n_ops)

    servers = [r["server"] for r in requests if r["server"]]
    for phase in PHASES:
        values[f"service.phase.{phase}.frac"] = _ratio(
            sum(s["phases"].get(phase, 0.0) for s in servers), wall)
    # The daemon's latency_s runs from accept to the terminal record;
    # the rest of the client's latency, less parse and serialize, is
    # connection, HTTP framing and the client itself.
    values["service.http.frac"] = _ratio(
        sum(r["latency_s"] - r["server"]["latency_s"]
            - r["server"]["phases"].get("parse", 0.0)
            - r["server"]["phases"].get("serialize", 0.0)
            for r in requests if r["server"]), wall)
    values["service.result_cache.hit_frac"] = _ratio(
        sum(1 for s in servers if s["cached"]), len(servers))
    from repro.service.daemon import DEFAULT_WORKERS

    busy = sum(s["phases"].get(p, 0.0) for s in servers
               for p in ("cache", "execute", "serialize"))
    capacity = sum(item.get("window_s", 0.0) for item in traced) * DEFAULT_WORKERS
    values["service.executor.busy_frac"] = _ratio(busy, capacity)

    values["sweep.chunks"] = _ratio(
        sum(item.get("chunks", 0) for item in traced), n_ops)
    values["sweep.chunk_frac"] = _ratio(
        sum(item.get("chunk_s", 0.0) for item in traced), wall)

    for package in IMPORT_PACKAGES:
        values[f"import.{package}_s"] = statistics.median(
            item["imports"].get(package, 0.0) for item in traced)
    values["import.other_s"] = statistics.median(
        sum(v for k, v in item["imports"].items() if k not in IMPORT_PACKAGES)
        for item in traced)
    values["unattributed_frac"] = 1.0 - _ratio(attributed, wall)

    values["trace.overhead_frac"] = _overhead(run.ops, paired=not requests)
    values["loadgen.lag_p50_s"] = percentile(run.lag_s, 50)
    values["loadgen.lag_max_s"] = max(run.lag_s)
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }
