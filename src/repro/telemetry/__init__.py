"""End-to-end telemetry for the simulated stack.

Three pieces, all deterministic under a fixed seed + scenario:

* :mod:`repro.telemetry.trace` — span tracing on the simulated clock,
  exported as Perfetto-loadable chrome://tracing JSON;
* :mod:`repro.telemetry.metrics` — counters/gauges/histograms with
  Prometheus-text and JSON exporters;
* :mod:`repro.telemetry.manifest` — per-run manifests binding config,
  metrics and trace files into one auditable document.

:class:`Telemetry` (in :mod:`repro.telemetry.session`) bundles a tracer
and a metrics registry into the per-run handle every layer carries.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "manifest": (
            "SCHEMA",
            "build_manifest",
            "render_manifest",
            "write_manifest",
        ),
        "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        "session": (
            "FAULT_LANE",
            "RUN_LANE",
            "Telemetry",
            "gpu_lane",
            "rank_lane",
        ),
        "trace": ("COMPLETE", "INSTANT", "Lane", "TraceEvent", "Tracer"),
    },
)
