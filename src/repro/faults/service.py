"""Service-level fault plans: attacking the benchmark daemon itself.

The third chaos tier.  PR 1 perturbs the simulated hardware, PR 6 the
campaign worker processes; the plans here attack the *service* layer
(:mod:`repro.service`) the way production traffic does:

* ``request-storm`` — a burst far above the admission budget, from few
  tenants, all at once: admission must shed with honest ``Retry-After``
  hints while every admitted request still completes.
* ``slow-loris`` — clients that dribble request bytes to pin handler
  threads: the per-socket timeout must disconnect them while normal
  traffic proceeds.
* ``cache-corruption`` — sealed objects in the request-result cache are
  deterministically mangled on disk: reads must quarantine and
  recompute, never crash or serve garbage.
* ``service-kill`` — SIGKILL the daemon mid-flight after a drawn number
  of completions: a restart must replay the journalled queue and a
  client retry must get byte-identical results with no lost or
  duplicated work.

Like every other plan in this package, a :class:`ServiceFaultPlan` is a
pure function of ``(scenario, seed)`` via :class:`~repro.faults.plan.SeededDraw`
— the loadgen drill and the chaos tests replay identical attacks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ScenarioError
from .plan import SeededDraw

__all__ = [
    "SERVICE_SCENARIO_NAMES",
    "ServiceFaultPlan",
    "build_service_plan",
    "corrupt_store_objects",
]

#: ``--inject`` scenarios understood by the service drills.
SERVICE_SCENARIO_NAMES = (
    "request-storm",
    "slow-loris",
    "cache-corruption",
    "service-kill",
)

#: How a ``cache-corruption`` event mangles an object file.
_CORRUPTION_MODES = ("truncate", "garbage", "flip")


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A deterministic schedule of service-level attacks.

    Only the fields relevant to ``scenario`` are meaningful; the rest
    keep their neutral defaults so one plan object drives any drill.
    """

    scenario: str
    seed: int
    #: request-storm: total requests, client concurrency, tenant count.
    storm_requests: int = 0
    storm_concurrency: int = 0
    storm_tenants: int = 1
    #: slow-loris: concurrent dribbling sockets and the stall seconds
    #: (sized to exceed the server's per-socket timeout in the drill).
    loris_connections: int = 0
    loris_stall_s: float = 0.0
    #: cache-corruption: how many stored objects to mangle, and how.
    corrupt_count: int = 0
    corrupt_mode: str = "garbage"
    #: service-kill: SIGKILL after this many completed requests.
    kill_after_completions: int = 0

    def describe(self) -> str:
        head = f"service scenario {self.scenario!r} seed {self.seed}"
        if self.scenario == "request-storm":
            return (
                f"{head}: {self.storm_requests} requests from "
                f"{self.storm_tenants} tenant(s) at concurrency "
                f"{self.storm_concurrency}"
            )
        if self.scenario == "slow-loris":
            return (
                f"{head}: {self.loris_connections} socket(s) stalling "
                f"{self.loris_stall_s:g}s mid-body"
            )
        if self.scenario == "cache-corruption":
            return (
                f"{head}: mangle {self.corrupt_count} object(s) "
                f"({self.corrupt_mode})"
            )
        return (
            f"{head}: SIGKILL after {self.kill_after_completions} "
            f"completion(s)"
        )


def build_service_plan(scenario: str, seed: int) -> ServiceFaultPlan:
    """The service-fault schedule for ``(scenario, seed)`` — pure."""
    key = scenario.strip().lower()
    if key not in SERVICE_SCENARIO_NAMES:
        raise ScenarioError(
            f"unknown service fault scenario {scenario!r}; "
            f"known: {', '.join(SERVICE_SCENARIO_NAMES)}"
        )
    draw = SeededDraw(seed, f"service:{key}")
    if key == "request-storm":
        return ServiceFaultPlan(
            key,
            seed,
            storm_requests=draw.randint(200, 400, "requests"),
            storm_concurrency=draw.randint(32, 64, "concurrency"),
            storm_tenants=draw.randint(2, 4, "tenants"),
        )
    if key == "slow-loris":
        return ServiceFaultPlan(
            key,
            seed,
            loris_connections=draw.randint(2, 6, "connections"),
            loris_stall_s=float(draw.randint(2, 5, "stall")),
        )
    if key == "cache-corruption":
        return ServiceFaultPlan(
            key,
            seed,
            corrupt_count=draw.randint(1, 3, "count"),
            corrupt_mode=draw.choice(_CORRUPTION_MODES, "mode"),
        )
    return ServiceFaultPlan(
        key,
        seed,
        kill_after_completions=draw.randint(1, 8, "after"),
    )


def corrupt_store_objects(store, plan: ServiceFaultPlan) -> list[str]:
    """Apply a ``cache-corruption`` plan to a live :class:`MemoStore`.

    Targets are drawn deterministically from the store's current keys
    (coldest-first order, which is itself deterministic given the
    request history).  Returns the corrupted keys so the drill can
    assert each was quarantined and recomputed.
    """
    if plan.scenario != "cache-corruption":
        raise ScenarioError(
            f"plan is {plan.scenario!r}, not 'cache-corruption'"
        )
    keys = store.keys()
    if not keys:
        return []
    draw = SeededDraw(plan.seed, "service:cache-corruption:targets")
    count = min(plan.corrupt_count, len(keys))
    indices = (
        draw.distinct_ints(count, 0, len(keys) - 1, "index")
        if len(keys) > 1
        else [0]
    )
    victims = [keys[i] for i in indices[:count]]
    for key in victims:
        path = store.object_path(key)
        try:
            if plan.corrupt_mode == "truncate":
                with open(path, "r+b") as fh:
                    size = os.fstat(fh.fileno()).st_size
                    fh.truncate(max(size // 2, 1))
            elif plan.corrupt_mode == "flip":
                with open(path, "r+b") as fh:
                    data = fh.read()
                    if data:
                        middle = len(data) // 2
                        fh.seek(middle)
                        fh.write(bytes([data[middle] ^ 0xFF]))
            else:  # garbage
                with open(path, "r+", encoding="utf-8") as fh:
                    fh.seek(0)
                    fh.write('{"key": "not even close"')
        except OSError:
            continue
    return victims
