"""Million-point design-space sweep campaigns.

The batch roofline engine (:mod:`repro.sim.batch`) evaluates whole
parameter grids as NumPy array ops; this package turns that capability
into a workload: declarative sweep specs (tile-size × ppwi × wgsize ×
precision × stack-count × system grids), chunked evaluation with
bounded memory, fork-worker sharding, top-K selection, NDJSON result
streams through the atomic io helpers, and a ``sweep.json`` summary
that the observability surfaces (``obs export``, ``trend``) and the
``BENCH_3.json`` perf gate consume.
"""

__all__: list[str] = []
