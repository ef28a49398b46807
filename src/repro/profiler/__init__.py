"""iprof/THAPI-style API profiling over the simulated runtime.

The paper's measurement methodology leans on API-level tracing of the
Level Zero / SYCL runtime (THAPI/iprof on Aurora).  This package gives
the simulated runs the same observability:

* :mod:`repro.profiler.core` — the interception layer: explicit
  instrumentation points in ``runtime.ze`` / ``runtime.sycl`` /
  ``runtime.mpi`` record per-API host time, device time and bytes moved
  over the simulated clock into an :class:`ApiProfiler`;
* :mod:`repro.profiler.report` — iprof-style summary tables (host /
  device / traffic sections plus per-kernel roofline attribution);
* :mod:`repro.profiler.flamegraph` — a deterministic collapsed-stack
  exporter fed from the telemetry span tracer;
* :mod:`repro.profiler.baseline` — ``BENCH_<n>.json`` perf-regression
  snapshots with a tolerance-based comparator;
* :mod:`repro.profiler.driver` — the ``pvc-bench profile`` runner.

The package root re-exports nothing: ``driver`` pulls in the benchmark
stack, and :class:`~repro.telemetry.session.Telemetry` imports
:mod:`.core` alone to construct an :class:`ApiProfiler`.
"""

__all__: list[str] = []
