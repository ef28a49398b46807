"""Pool supervision: what the scheduler does when a worker dies.

A dead worker breaks the standard-library process pool; the scheduler
keeps the results it already received and runs every unsettled unit
through its in-process step.  These are the unit-level contracts; the
byte-identity property at every kill point lives in
``tests/properties/test_prop_chaos.py``.
"""

import multiprocessing
import os
import signal

import pytest

import repro.campaign.scheduler as sched_mod
from repro.campaign.orchestrator import Orchestrator
from repro.campaign.scheduler import DagScheduler
from repro.campaign.spec import get_spec
from repro.errors import CampaignError, ReproError, WorkerCrashError
from repro.exitcodes import ExitCode
from repro.faults.process import WorkerFaultPlan, build_worker_plan
from repro.obs.events import EventBus


def _scheduler(plan=None, **kwargs):
    defaults = dict(
        scenario=None, seed=0, profile=False, jobs=2, log=lambda _m: None
    )
    defaults.update(kwargs)
    return DagScheduler(get_spec("smoke"), worker_faults=plan, **defaults)


def _unit_ids(spec_name="smoke"):
    return [u.id for u in get_spec(spec_name).execution_order()]


def _kill(unit_id):
    return WorkerFaultPlan("worker-kill", 0, kill=unit_id)


class TestDegradedMode:
    def test_worker_death_runs_the_rest_in_process(self):
        uids = _unit_ids()
        scheduler = _scheduler(_kill(uids[0]))
        outcomes = list(scheduler.outcomes())
        assert [o.unit.id for o in outcomes] == uids
        assert all(o.error is None for o in outcomes)
        assert scheduler.degraded

    def test_clean_pool_run_is_not_degraded(self):
        scheduler = _scheduler()
        assert len(list(scheduler.outcomes())) == len(_unit_ids())
        assert not scheduler.degraded

    def test_results_received_before_the_death_are_kept(self, monkeypatch):
        # The summary unit waits on every other unit, so the pool has
        # returned all of them before the worker that picks it up dies:
        # only the summary may run in-process.
        uids = _unit_ids()
        in_process = []
        real = DagScheduler._run_in_process

        def recording(self, unit, payloads):
            in_process.append(unit.id)
            return real(self, unit, payloads)

        monkeypatch.setattr(DagScheduler, "_run_in_process", recording)
        scheduler = _scheduler(_kill("campaign:summary"))
        assert [o.unit.id for o in scheduler.outcomes()] == uids
        assert scheduler.degraded
        assert in_process == ["campaign:summary"]

    def test_degradation_is_reported_once(self, tmp_path):
        messages = []
        bus = EventBus(tmp_path)
        scheduler = _scheduler(
            _kill(_unit_ids()[0]), log=messages.append, events=bus
        )
        list(scheduler.outcomes())
        assert len(messages) == 1 and "in-process" in messages[0]
        kinds = [rec["type"] for rec in bus.live_records()]
        assert kinds.count("pool-degraded") == 1

    def test_degraded_drain_propagates_unit_failures_normally(self, monkeypatch):
        def boom(unit, scenario, seed, deps, profile=False):
            raise ReproError(f"no result for {unit.id}")

        monkeypatch.setattr(sched_mod, "execute_unit", boom)
        uids = _unit_ids()
        scheduler = _scheduler(_kill(uids[0]))
        outcomes = list(scheduler.outcomes())
        assert len(outcomes) == len(uids)
        assert all(o.error is not None for o in outcomes)


class TestWorkerProcess:
    def test_workers_are_indexed_and_carry_the_trace_context(
        self, tmp_path, monkeypatch
    ):
        # Workers take indices 0..N-1, ignore SIGINT and export the
        # originating request's traceparent; the parent writes one
        # dispatch record per unit carrying the worker's index.
        from repro.obs.requests import TRACEPARENT_ENV

        parent = os.getpid()
        real = sched_mod.execute_unit
        traceparent = "00-" + "a" * 32 + "-" + "b" * 16 + "-01"

        def probing(unit, scenario, seed, deps, profile=False):
            payload = real(unit, scenario, seed, deps, profile)
            payload["probe"] = [
                os.getpid() != parent,
                signal.getsignal(signal.SIGINT) == signal.SIG_IGN,
                os.environ.get(TRACEPARENT_ENV),
            ]
            return payload

        monkeypatch.setattr(sched_mod, "execute_unit", probing)
        bus = EventBus(tmp_path)
        scheduler = _scheduler(events=bus, traceparent=traceparent)
        for outcome in scheduler.outcomes():
            assert outcome.payload["probe"] == [True, True, traceparent]
        live = bus.live_records()
        spawned = [r["index"] for r in live if r["type"] == "worker-spawn"]
        assert spawned == [0, 1]
        dispatched = [r for r in live if r["type"] == "unit-dispatched"]
        assert sorted(r["unit"] for r in dispatched) == sorted(_unit_ids())
        assert {r["index"] for r in dispatched} <= {0, 1}


class TestWorkerDeath:
    def test_worker_kill_jobs2_matches_serial_and_reaps_workers(
        self, tmp_path
    ):
        spec = get_spec("smoke")
        assert Orchestrator(tmp_path / "s", spec=spec).run() == ExitCode.OK
        plan = build_worker_plan("worker-kill", 0, _unit_ids())
        killed = Orchestrator(
            tmp_path / "k", spec=spec, jobs=2, worker_plan=plan
        )
        assert killed.run() == ExitCode.OK
        for name in ("journal.jsonl", "manifest.json", "events.ndjson"):
            assert (tmp_path / "k" / name).read_bytes() == (
                tmp_path / "s" / name
            ).read_bytes(), name
        for sub in ("store", "tables"):
            serial = sorted(os.listdir(tmp_path / "s" / sub))
            assert sorted(os.listdir(tmp_path / "k" / sub)) == serial
            for name in serial:
                assert (tmp_path / "k" / sub / name).read_bytes() == (
                    tmp_path / "s" / sub / name
                ).read_bytes(), name
        live = EventBus(tmp_path / "k").live_records()
        assert [r["type"] for r in live].count("pool-degraded") == 1
        assert multiprocessing.active_children() == []


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
        assert multiprocessing.active_children() == []

    def test_crashed_run_leaves_no_children(self, monkeypatch):
        def boom(unit, scenario, seed, deps, profile=False):
            raise RuntimeError("programming error")

        monkeypatch.setattr(sched_mod, "execute_unit", boom)
        scheduler = _scheduler(jobs=4)
        with pytest.raises(CampaignError):
            list(scheduler.outcomes())
        assert multiprocessing.active_children() == []

    def test_chaotic_run_leaves_no_children(self):
        scheduler = _scheduler(_kill(_unit_ids()[0]))
        list(scheduler.outcomes())
        assert multiprocessing.active_children() == []
