"""Worker supervision: respawn, quarantine, hang kills, degradation.

These are the unit-level contracts of the self-healing scheduler; the
byte-identity property under random kills lives in
``tests/properties/test_prop_chaos.py``.
"""

import multiprocessing

import pytest

import repro.campaign.scheduler as sched_mod
from repro.campaign.scheduler import DagScheduler, scheduler_selfcheck
from repro.campaign.spec import get_spec
from repro.campaign.supervisor import (
    DEFAULT_MAX_RESPAWNS,
    SupervisionStats,
    WorkerSupervisor,
    _Worker,
)
from repro.errors import CampaignError, ReproError, WorkerCrashError
from repro.faults.process import WorkerFaultPlan


def _campaign_children():
    return [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("campaign-worker-")
    ]


def _scheduler(plan=None, **kwargs):
    defaults = dict(
        scenario=None, seed=0, profile=False, jobs=2, log=lambda _m: None
    )
    defaults.update(kwargs)
    return DagScheduler(get_spec("smoke"), worker_faults=plan, **defaults)


def _unit_ids(spec_name="smoke"):
    return [u.id for u in get_spec(spec_name).execution_order()]


class TestSupervisorConstruction:
    def test_rejects_empty_pool(self):
        with pytest.raises(WorkerCrashError, match=">= 1 worker"):
            WorkerSupervisor(0, worker_body=lambda *a: None)

    def test_rejects_negative_budget(self):
        with pytest.raises(WorkerCrashError, match="max-respawns"):
            WorkerSupervisor(1, worker_body=lambda *a: None, max_respawns=-1)

    def test_rejects_nonpositive_poison_threshold(self):
        with pytest.raises(WorkerCrashError, match="poison"):
            WorkerSupervisor(1, worker_body=lambda *a: None, poison_crashes=0)

    def test_default_budget(self):
        sup = WorkerSupervisor(1, worker_body=lambda *a: None)
        assert sup.max_respawns == DEFAULT_MAX_RESPAWNS


class TestRespawn:
    def test_killed_worker_is_respawned_and_unit_reexecuted(self):
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-kill", 0, kills={uids[0]: (1, "start")})
        scheduler = _scheduler(plan)
        outcomes = list(scheduler.outcomes())
        assert [o.unit.id for o in outcomes] == uids
        assert all(o.error is None for o in outcomes)
        assert scheduler.stats.respawns == 1
        assert scheduler.stats.crashes == 1
        # The victim needed two dispatches, everyone else one.
        assert scheduler.stats.attempts[uids[0]] == 2
        assert all(
            scheduler.stats.attempts[u] == 1 for u in uids[1:]
        )
        assert not scheduler.stats.quarantined
        assert not scheduler.stats.degraded

    def test_all_dead_workers_are_reported_not_just_the_first(self):
        # Two victims on independent units: both deaths must be recorded
        # (the old scheduler reported only dead[0] and aborted).
        uids = _unit_ids()
        plan = WorkerFaultPlan(
            "worker-kill",
            0,
            kills={uids[0]: (1, "start"), uids[1]: (1, "start")},
        )
        scheduler = _scheduler(plan)
        outcomes = list(scheduler.outcomes())
        assert len(outcomes) == len(uids)
        assert scheduler.stats.respawns == 2
        assert len(scheduler.stats.worker_exits) == 2
        assert all(code == -9 for _, code in scheduler.stats.worker_exits)

    def test_queued_result_of_a_dead_worker_is_committed_not_rerun(self):
        # Kill *after* the result is flushed: the supervisor must drain
        # and commit the queued outcome instead of re-executing (the
        # swallowed-result bug).
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-kill", 0, kills={uids[0]: (1, "done")})
        scheduler = _scheduler(plan)
        outcomes = list(scheduler.outcomes())
        assert [o.unit.id for o in outcomes] == uids
        assert all(o.error is None for o in outcomes)
        # One dispatch only: the flushed result survived the kill.  (A
        # *different* unit may show a second attempt — the parent can
        # dispatch it to the dying worker before noticing the SIGKILL —
        # but that heals transparently and is not asserted on.)
        assert scheduler.stats.attempts[uids[0]] == 1
        assert not scheduler.stats.quarantined


class TestQuarantine:
    def test_poison_unit_quarantined_after_k_crashes(self):
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-poison", 0, kills={uids[0]: (3, "start")})
        scheduler = _scheduler(plan)
        outcomes = {o.unit.id: o for o in scheduler.outcomes()}
        assert len(outcomes) == len(uids)  # the DAG still completed
        poisoned = outcomes[uids[0]]
        assert poisoned.quarantined == (-9, -9, -9)
        assert poisoned.payload["status"] == "FAILED"
        assert poisoned.payload["quarantined"] == [-9, -9, -9]
        assert "quarantined after crashing 3 worker" in poisoned.error
        assert scheduler.stats.quarantined == {uids[0]: [-9, -9, -9]}

    def test_custom_poison_threshold(self):
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-poison", 0, kills={uids[0]: (2, "start")})
        scheduler = _scheduler(plan, poison_crashes=2)
        outcomes = {o.unit.id: o for o in scheduler.outcomes()}
        assert outcomes[uids[0]].quarantined == (-9, -9)

    def test_transient_crash_below_threshold_recovers_cleanly(self):
        # Two crashes against a threshold of three: healed, not poisoned.
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-poison", 0, kills={uids[0]: (2, "start")})
        scheduler = _scheduler(plan)
        outcomes = {o.unit.id: o for o in scheduler.outcomes()}
        assert outcomes[uids[0]].error is None
        assert not scheduler.stats.quarantined
        assert scheduler.stats.attempts[uids[0]] == 3


class TestHangDetection:
    def test_hung_worker_is_killed_and_unit_retried(self):
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-hang", 0, hangs={uids[0]: 1})
        scheduler = _scheduler(plan, hang_timeout_s=1.0)
        outcomes = list(scheduler.outcomes())
        assert [o.unit.id for o in outcomes] == uids
        assert all(o.error is None for o in outcomes)
        assert scheduler.stats.hang_kills == 1
        assert scheduler.stats.respawns == 1
        assert scheduler.stats.attempts[uids[0]] == 2

    def test_no_hang_detection_without_deadline(self):
        # hang_timeout_s=None (the default) never kills slow workers.
        scheduler = _scheduler()
        outcomes = list(scheduler.outcomes())
        assert scheduler.stats.hang_kills == 0
        assert len(outcomes) == len(_unit_ids())


class TestDegradedMode:
    def test_exhausted_budget_drains_serially(self):
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-poison", 0, kills={uids[0]: (2, "start")})
        scheduler = _scheduler(plan, max_respawns=0)
        outcomes = {o.unit.id: o for o in scheduler.outcomes()}
        # Both workers died, no respawns allowed: the drain still
        # completes every unit (faults do not fire in-process).
        assert len(outcomes) == len(uids)
        assert all(o.error is None for o in outcomes.values())
        assert scheduler.stats.degraded
        assert scheduler.stats.respawns == 0

    def test_unreaped_death_does_not_degrade_yet(self):
        # A worker can die between a pass's reap and its degradation
        # check; its exit must be reaped (and journalled live) first.
        sup = WorkerSupervisor(
            1, worker_body=lambda *a: None, max_respawns=0, log=lambda _m: None
        )
        proc = sup._ctx.Process(target=lambda: None)
        proc.start()
        proc.join(timeout=30)
        assert not proc.is_alive()
        sup._workers.append(_Worker(0, proc, sup._ctx.Queue()))
        sup._pending.append(("unit", {}))
        assert not sup._degraded()
        sup._reap_dead()
        assert sup.stats.worker_exits == [(proc.name, 0)]
        assert sup._degraded()

    def test_degraded_drain_propagates_unit_failures_normally(self, monkeypatch):
        def boom(unit, scenario, seed, deps, profile=False):
            raise ReproError(f"no result for {unit.id}")

        monkeypatch.setattr(sched_mod, "execute_unit", boom)
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-kill", 0, kills={uids[0]: (1, "start")})
        scheduler = _scheduler(plan, max_respawns=0)
        outcomes = list(scheduler.outcomes())
        assert len(outcomes) == len(uids)
        assert all(o.error is not None for o in outcomes)


class TestWorkerCrashStillFatal:
    def test_unexpected_exception_in_worker_raises(self, monkeypatch):
        def boom(unit, scenario, seed, deps, profile=False):
            raise RuntimeError("programming error")

        monkeypatch.setattr(sched_mod, "execute_unit", boom)
        scheduler = _scheduler()
        with pytest.raises(CampaignError, match="crashed in a worker"):
            list(scheduler.outcomes())

    def test_worker_crash_error_is_a_campaign_error(self):
        assert issubclass(WorkerCrashError, CampaignError)


class TestNoLeakedChildren:
    def test_clean_run_leaves_no_children(self):
        scheduler = _scheduler()
        list(scheduler.outcomes())
        assert _campaign_children() == []

    def test_crashed_run_leaves_no_children(self, monkeypatch):
        def boom(unit, scenario, seed, deps, profile=False):
            raise RuntimeError("programming error")

        monkeypatch.setattr(sched_mod, "execute_unit", boom)
        scheduler = _scheduler(jobs=4)
        with pytest.raises(CampaignError):
            list(scheduler.outcomes())
        assert _campaign_children() == []

    def test_chaotic_run_leaves_no_children(self):
        uids = _unit_ids()
        plan = WorkerFaultPlan("worker-poison", 0, kills={uids[0]: (3, "start")})
        scheduler = _scheduler(plan)
        list(scheduler.outcomes())
        assert _campaign_children() == []


class TestSupervisionStats:
    def test_to_doc_is_deterministic_fields_only(self):
        stats = SupervisionStats(
            respawns=2,
            crashes=3,
            hang_kills=1,
            degraded=True,
            worker_exits=[("campaign-worker-0", -9)],
            quarantined={"u": [-9, -9]},
        )
        doc = stats.to_doc()
        assert doc == {
            "respawns": 2,
            "hang_kills": 1,
            "degraded": True,
            "quarantined": {"u": [-9, -9]},
        }

    def test_eventful_only_for_visible_outcomes(self):
        assert not SupervisionStats(respawns=5, crashes=5).eventful()
        assert SupervisionStats(degraded=True).eventful()
        assert SupervisionStats(quarantined={"u": [-9]}).eventful()


class TestSchedulerSelfcheck:
    def test_selfcheck_passes(self):
        checks = scheduler_selfcheck()
        assert checks, "selfcheck produced no results"
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.detail}" for c in failed]
        names = {c.name for c in checks}
        assert "scheduler.survives-worker-death" in names
        assert "scheduler.no-leaked-children" in names
