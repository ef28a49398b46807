"""Order statistics for the benchmark report.

Percentiles use linear interpolation between order statistics, as
``statistics.quantiles(method="inclusive")`` does, so they stay inside
the range of the samples however few there are.
"""

from __future__ import annotations

import statistics

__all__ = ["TAIL_MIN_BEYOND", "percentile", "quartiles", "summary", "tail_supported"]

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer make it an estimate of the maximum.
TAIL_MIN_BEYOND = 10


def percentile(samples: list[float], pct: float) -> float:
    """The *pct*-th percentile (0 < pct < 100) of *samples*."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    # "inclusive" interpolation: position pct/100 * (n - 1).
    pos = pct / 100.0 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_supported(samples: list[float], pct: float) -> bool:
    """Whether at least :data:`TAIL_MIN_BEYOND` samples exceed the percentile."""
    if not samples:
        return False
    cut = percentile(samples, pct)
    return sum(1 for x in samples if x > cut) >= TAIL_MIN_BEYOND


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(samples) == 1:
        return (samples[0],) * 3
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def summary(samples: list[float]) -> dict:
    """Count, quartiles and p90 (with its support flag) of *samples*."""
    q1, q2, q3 = quartiles(samples)
    return {
        "n": len(samples),
        "q1": q1,
        "median": q2,
        "q3": q3,
        "p90": percentile(samples, 90),
        "p90_supported": tail_supported(samples, 90),
    }
