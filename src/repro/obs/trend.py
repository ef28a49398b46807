"""``pvc-bench trend``: cross-run analytics over ``BENCH_*.json``.

The profiler's baseline machinery (:mod:`repro.profiler.baseline`)
answers "did this run regress against one pinned snapshot?".  Trend
answers the longitudinal question: given the *sequence* of committed
baselines, where did the figures of merit, wall-clock and sim-cache
behaviour move, and which kernels (and roofline bounds) account for
the device-time deltas?

For every consecutive snapshot pair the report covers:

* the gated fields (``fom`` / ``device_us`` / ``sim_cache_hit_rate``)
  through the same tolerance comparator CI gates on;
* wall-clock and sim-cache numbers for campaign entries —
  informational (wall-clock never gates) but exactly what an operator
  scanning for scheduler drift wants on one line;
* sweep throughput for entries carrying ``points_per_s`` (BENCH_3
  onward): points evaluated, batch points/s movement, and the
  batch-vs-scalar speedup the 50x floor rides on;
* per-kernel attribution: entries that embed ``kernel_attribution``
  rows (PR 7 baselines onward) get kernel-by-kernel ``achieved_us``
  deltas tagged with each kernel's roofline bound, so a device-time
  regression names the kernel that moved instead of a bare aggregate.
  Older snapshots without the rows degrade to a note, keeping
  ``trend BENCH_0.json BENCH_1.json`` useful across the boundary.
"""

from __future__ import annotations

import os

from ..errors import ConfigurationError
from ..profiler.baseline import compare_snapshots, load_baseline

__all__ = ["kernel_deltas", "trend_main", "trend_report"]


def _fmt_rate(hits: float, misses: float) -> str:
    evals = hits + misses
    rate = hits / evals if evals else 0.0
    return f"{rate:.1%} hit rate ({hits:.0f} hit(s) / {misses:.0f} miss(es))"


def kernel_deltas(base_entry: dict, cur_entry: dict) -> list[str]:
    """Per-kernel attribution lines for one ``bench@system`` pair."""
    base_rows = {
        r["kernel"]: r for r in base_entry.get("kernel_attribution", [])
    }
    cur_rows = {
        r["kernel"]: r for r in cur_entry.get("kernel_attribution", [])
    }
    if not cur_rows and not base_rows:
        return []
    lines: list[str] = []
    for name in sorted(set(base_rows) | set(cur_rows)):
        cur = cur_rows.get(name)
        base = base_rows.get(name)
        if cur is None:
            lines.append(f"{name}: dropped (was in the older snapshot)")
            continue
        bound = cur.get("bound", "?")
        achieved = float(cur.get("achieved_us", 0.0))
        if base is None:
            lines.append(
                f"{name} [{bound}-bound] {achieved:.1f}us achieved "
                f"({float(cur.get('model_pct', 0.0)):.1f}% of model)"
            )
            continue
        before = float(base.get("achieved_us", 0.0))
        ratio = achieved / before if before else float("inf")
        lines.append(
            f"{name} [{bound}-bound] device {before:.1f}us -> "
            f"{achieved:.1f}us (x{ratio:.4f})"
        )
    return lines


def _campaign_lines(base_entries: dict, cur_entries: dict) -> list[str]:
    """Wall-clock + sim-cache lines for every campaign entry seen."""
    lines: list[str] = []
    for key in sorted(set(base_entries) | set(cur_entries)):
        cur = cur_entries.get(key)
        base = base_entries.get(key)
        probe = cur if cur is not None else base
        if probe is None or "sim_cache_hit_rate" not in probe:
            continue
        if cur is None:
            lines.append(f"{key}: dropped from the newer snapshot")
            continue
        cache = _fmt_rate(
            float(cur.get("sim_cache_hits", 0.0)),
            float(cur.get("sim_cache_misses", 0.0)),
        )
        if base is None:
            lines.append(
                f"{key}: wall {float(cur.get('wall_s', 0.0)):.2f}s, "
                f"sim-cache {cache}  [new entry]"
            )
            continue
        wall_b = float(base.get("wall_s", 0.0))
        wall_c = float(cur.get("wall_s", 0.0))
        wall_ratio = wall_c / wall_b if wall_b else float("inf")
        rate_b = float(base.get("sim_cache_hit_rate", 0.0))
        rate_c = float(cur.get("sim_cache_hit_rate", 0.0))
        lines.append(
            f"{key}: wall {wall_b:.2f}s -> {wall_c:.2f}s "
            f"(x{wall_ratio:.2f}, informational), "
            f"sim-cache {rate_b:.1%} -> {rate_c:.1%}"
        )
    return lines


def _sweep_lines(base_entries: dict, cur_entries: dict) -> list[str]:
    """Throughput lines for every sweep entry seen (BENCH_3 onward)."""
    lines: list[str] = []
    for key in sorted(set(base_entries) | set(cur_entries)):
        cur = cur_entries.get(key)
        base = base_entries.get(key)
        probe = cur if cur is not None else base
        if probe is None or "points_per_s" not in probe:
            continue
        if cur is None:
            lines.append(f"{key}: dropped from the newer snapshot")
            continue
        points = float(cur.get("points", 0.0))
        rate_c = float(cur.get("points_per_s") or 0.0)
        speed_c = float(cur.get("batch_speedup") or 0.0)
        if base is None:
            lines.append(
                f"{key}: {points:,.0f} points, "
                f"{rate_c / 1e6:.1f} M points/s, batch speedup "
                f"x{speed_c:.0f}  [new entry]"
            )
            continue
        rate_b = float(base.get("points_per_s") or 0.0)
        speed_b = float(base.get("batch_speedup") or 0.0)
        ratio = rate_c / rate_b if rate_b else float("inf")
        lines.append(
            f"{key}: {points:,.0f} points, "
            f"{rate_b / 1e6:.1f} -> {rate_c / 1e6:.1f} M points/s "
            f"(x{ratio:.2f}), batch speedup x{speed_b:.0f} -> "
            f"x{speed_c:.0f}"
        )
    return lines


def trend_report(paths: list[str]) -> str:
    """The full longitudinal report over ≥2 baseline snapshots."""
    if len(paths) < 2:
        raise ConfigurationError(
            "trend needs at least two baseline files (oldest first), "
            "e.g. 'trend BENCH_0.json BENCH_1.json'"
        )
    docs = [(path, load_baseline(path)) for path in paths]
    labels = [os.path.basename(p) for p, _ in docs]
    lines = [
        f"perf trend across {len(docs)} snapshot(s): "
        + " -> ".join(labels)
    ]
    for (_, base), (_, cur), label_b, label_c in zip(
        docs, docs[1:], labels, labels[1:]
    ):
        lines.append("")
        lines.append(f"{label_b} -> {label_c}")
        comparison = compare_snapshots(base, cur)
        moved = [
            d for d in comparison.deltas if d.verdict not in ("ok",)
        ]
        lines.append(
            f"  gated fields (tolerance {comparison.tolerance:.1%}): "
            f"{len(comparison.deltas)} compared, "
            f"{sum(1 for d in comparison.deltas if d.verdict == 'regressed')}"
            " regressed"
        )
        for d in moved:
            if d.verdict in ("new", "missing"):
                lines.append(f"    {d.verdict:>9}  {d.key}")
            else:
                lines.append(
                    f"    {d.verdict:>9}  {d.key} {d.metric}: "
                    f"{d.base:.6g} -> {d.current:.6g} (x{d.ratio:.4f})"
                )
        base_entries = base.get("entries", {})
        cur_entries = cur.get("entries", {})
        campaign = _campaign_lines(base_entries, cur_entries)
        if campaign:
            lines.append("  campaign wall-clock / sim-cache:")
            lines.extend(f"    {line}" for line in campaign)
        sweep = _sweep_lines(base_entries, cur_entries)
        if sweep:
            lines.append("  sweep throughput:")
            lines.extend(f"    {line}" for line in sweep)
        attributed = False
        for key in sorted(set(base_entries) & set(cur_entries)):
            rows = kernel_deltas(base_entries[key], cur_entries[key])
            if not rows:
                continue
            if not attributed:
                lines.append("  kernel attribution:")
                attributed = True
            lines.append(f"    {key}:")
            lines.extend(f"      {row}" for row in rows)
        for key in sorted(set(cur_entries) - set(base_entries)):
            rows = kernel_deltas({}, cur_entries[key])
            if not rows:
                continue
            if not attributed:
                lines.append("  kernel attribution:")
                attributed = True
            lines.append(f"    {key} (new entry):")
            lines.extend(f"      {row}" for row in rows)
        if not attributed:
            lines.append(
                "  kernel attribution: not embedded in these snapshots "
                "(refresh with 'profile full --write-baseline')"
            )
    return "\n".join(lines) + "\n"


def trend_main(args) -> int:
    """Dispatch ``pvc-bench trend BENCH_0.json BENCH_1.json [...]``."""
    print(trend_report(args.paths), end="")
    return 0
