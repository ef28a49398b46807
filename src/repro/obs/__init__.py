"""Live observability for campaigns and benchmarks.

Four pieces layered over the telemetry/campaign/profiler stack:

* :mod:`repro.obs.events` — the structured event bus: every layer
  (orchestrator commits, pool dispatches and degradation, memo-cache
  accounting, fault injections, profiler attribution) publishes typed
  NDJSON records into the run directory.  The deterministic stream
  (``events.ndjson``) is stamped with the simulated clock and is
  byte-identical across serial and parallel runs; the live stream
  (``live.ndjson``) carries wall-clock worker telemetry for watching.
* :mod:`repro.obs.watch` — ``pvc-bench campaign watch <rundir>``: a
  status board tailing the journal + event streams from another
  process, with per-worker lanes, cache hit rate, faults and ETA.
* :mod:`repro.obs.export` — Chrome-trace-event/Perfetto export of a
  run's unit spans with worker lanes, and the OpenMetrics snapshot the
  ``obs serve`` stdlib HTTP exporter publishes.
* :mod:`repro.obs.trend` — cross-run analytics over ``BENCH_*.json``
  baselines: attributes FOM / wall-clock / sim-cache deltas to the
  kernels and roofline bounds that moved.
* :mod:`repro.obs.requests` — service-side request observability:
  deterministic W3C-style trace contexts, the ``requests.ndjson``
  lifecycle stream, per-tenant RED metrics and the SLO burn tracker
  behind ``pvc-bench service watch`` and the daemon's ``/metrics``.
"""

__all__: list[str] = []
