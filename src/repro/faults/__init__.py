"""Deterministic fault injection for the simulated benchmark suite.

The subsystem has three layers:

* :mod:`repro.faults.plan` — seeded, immutable fault schedules
  (:class:`FaultPlan`) and the clocks that trigger them;
* :mod:`repro.faults.scenarios` — named scenarios
  (``pvc-bench --inject <name> --seed N``) built from those schedules;
* :mod:`repro.faults.injectors` — the :class:`FaultInjector` that applies
  a plan to a node as the suite's clocks advance, consulted by the
  performance engine, the SYCL/Level-Zero runtimes and the MPI layer;
* :mod:`repro.faults.process` — process-level campaign chaos
  (:class:`WorkerFaultPlan`): a SIGKILLed pool worker and transient
  ``ENOSPC`` on journal/store writes, consumed by the campaign scheduler
  and orchestrator rather than the in-process engine;
* :mod:`repro.faults.service` — service-level chaos
  (:class:`ServiceFaultPlan`): request storms, slow-loris clients,
  cache corruption and daemon SIGKILLs, consumed by the benchmark
  daemon's loadgen drills (:mod:`repro.service.loadgen`).

:class:`ExecutionContext` ties one injector-equipped engine per system to
the CLI's exit-code contract (0 clean / 1 degraded / 2 failed).
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "context": ("ExecutionContext",),
        "injectors": ("FaultInjector",),
        "plan": (
            "FaultClock",
            "FaultEvent",
            "FaultKind",
            "FaultPlan",
            "SeededDraw",
        ),
        "scenarios": (
            "SCENARIO_NAMES",
            "CAMPAIGN_SCENARIO_NAMES",
            "CampaignFaultPlan",
            "build_campaign_plan",
            "build_plan",
        ),
        "process": (
            "WORKER_SCENARIO_NAMES",
            "WorkerFaultPlan",
            "build_worker_plan",
        ),
        "service": (
            "SERVICE_SCENARIO_NAMES",
            "ServiceFaultPlan",
            "build_service_plan",
            "corrupt_store_objects",
        ),
    },
)
