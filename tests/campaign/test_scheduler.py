"""Parallel campaign execution: the serial/parallel determinism contract.

The property under test: for any worker count N and any crash point,
``--jobs N`` produces journal, store, manifest, and table artifacts
**byte-identical** to a serial run — and a campaign interrupted under
parallel execution resumes (serially or in parallel) to the same bytes.
"""

import multiprocessing
import os

import pytest

import repro.campaign.scheduler as sched_mod
from repro.campaign.journal import Journal
from repro.campaign.orchestrator import Orchestrator
from repro.campaign.scheduler import JOBS_ENV, DagScheduler, resolve_jobs
from repro.campaign.spec import get_spec
from repro.errors import CampaignError, ReproError
from repro.exitcodes import ExitCode
from repro.faults.process import WorkerFaultPlan
from repro.faults.scenarios import CampaignFaultPlan


def _tree_bytes(directory, exclude=()):
    """Every artifact byte under *directory*, keyed by relative path.

    ``live.ndjson`` is always skipped: the live telemetry stream is
    wall-clock by contract (docs/observability.md) and never part of
    the byte-identity story.
    """
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, directory)
            if rel in exclude or name == "live.ndjson":
                continue
            with open(full, "rb") as fh:
                out[rel] = fh.read()
    return out


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(2) == 2

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(CampaignError, match="integer"):
            resolve_jobs(None)

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(CampaignError, match=">= 1"):
            resolve_jobs(0)

    def test_env_reaches_the_orchestrator(self, tmp_path, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        orch = Orchestrator(tmp_path / "c", spec=get_spec("smoke"))
        assert orch.jobs == 2


class TestWaves:
    def test_waves_partition_respects_dependencies(self):
        spec = get_spec("paper")
        waves = spec.waves()
        depth = {u.id: i for i, wave in enumerate(waves) for u in wave}
        assert len(depth) == len(spec.execution_order())
        for unit in spec.execution_order():
            for dep in unit.deps:
                assert depth[dep] < depth[unit.id]

    def test_smoke_measuring_units_share_the_first_wave(self):
        waves = get_spec("smoke").waves()
        assert {u.id for u in waves[0]} == {"table3:aurora", "table3:dawn"}
        assert [u.id for u in waves[1]] == ["table3:render"]
        assert [u.id for u in waves[2]] == ["campaign:summary"]


class TestParallelByteIdentity:
    @pytest.mark.parametrize("scenario,seed", [(None, 0), ("plane-outage", 7)])
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_n_matches_serial(self, tmp_path, jobs, scenario, seed):
        serial = Orchestrator(
            tmp_path / "s", spec=get_spec("smoke"), scenario=scenario, seed=seed
        )
        code = serial.run()
        parallel = Orchestrator(
            tmp_path / "p",
            spec=get_spec("smoke"),
            scenario=scenario,
            seed=seed,
            jobs=jobs,
        )
        assert parallel.run() == code
        assert _tree_bytes(tmp_path / "p") == _tree_bytes(tmp_path / "s")

    def test_watchdog_demotions_match_serial(self, tmp_path):
        serial = Orchestrator(
            tmp_path / "s", spec=get_spec("smoke"), unit_timeout_s=1e-12
        )
        code = serial.run()
        assert code == ExitCode.UNHEALTHY
        parallel = Orchestrator(
            tmp_path / "p", spec=get_spec("smoke"), unit_timeout_s=1e-12, jobs=4
        )
        assert parallel.run() == code
        assert _tree_bytes(tmp_path / "p") == _tree_bytes(tmp_path / "s")

    def test_failed_unit_propagation_matches_serial(self, tmp_path, monkeypatch):
        real = sched_mod.execute_unit

        def flaky(unit, scenario, seed, deps, profile=False):
            if unit.id == "table3:dawn":
                raise ReproError("injected benchmark failure")
            return real(unit, scenario, seed, deps, profile)

        monkeypatch.setattr(sched_mod, "execute_unit", flaky)
        serial = Orchestrator(tmp_path / "s", spec=get_spec("smoke"))
        code = serial.run()
        assert code == ExitCode.UNHEALTHY
        parallel = Orchestrator(tmp_path / "p", spec=get_spec("smoke"), jobs=2)
        assert parallel.run() == code
        assert _tree_bytes(tmp_path / "p") == _tree_bytes(tmp_path / "s")


class TestCrashResumeUnderParallel:
    def _clean_serial(self, directory):
        orch = Orchestrator(directory, spec=get_spec("smoke"))
        return orch.run(), orch

    @pytest.mark.parametrize("crash_after", [0, 2])
    @pytest.mark.parametrize("resume_jobs", [1, 4])
    def test_crash_under_jobs4_then_resume(
        self, tmp_path, crash_after, resume_jobs
    ):
        clean_code, clean = self._clean_serial(tmp_path / "s")
        plan = CampaignFaultPlan(
            scenario="crash-midrun", seed=0, crash_after_unit=crash_after
        )
        orch = Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), campaign_plan=plan, jobs=4
        )
        assert orch.run() == ExitCode.INTERRUPTED
        # Crashing at unit k under --jobs 4 leaves the exact journal a
        # serial run crashing at unit k would: commit order is
        # execution-order regardless of which workers had already
        # finished later units.
        serial_crash = Orchestrator(
            tmp_path / "sc", spec=get_spec("smoke"), campaign_plan=plan
        )
        assert serial_crash.run() == ExitCode.INTERRUPTED
        with open(orch.journal_path, "rb") as fh:
            parallel_journal = fh.read()
        with open(serial_crash.journal_path, "rb") as fh:
            serial_journal = fh.read()
        assert parallel_journal == serial_journal
        resumed = Orchestrator(tmp_path / "c", jobs=resume_jobs)
        assert resumed.resume() == clean_code
        # Everything except the journal and event stream (which record
        # the interruption + resume as history) is byte-identical to
        # the uninterrupted serial run.
        exclude = ("journal.jsonl", "events.ndjson")
        assert _tree_bytes(tmp_path / "c", exclude) == _tree_bytes(
            tmp_path / "s", exclude
        )

    def test_torn_journal_under_parallel_heals_on_resume(self, tmp_path):
        clean_code, clean = self._clean_serial(tmp_path / "s")
        plan = CampaignFaultPlan(
            scenario="journal-truncate",
            seed=0,
            crash_after_unit=1,
            truncate_journal=True,
        )
        orch = Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), campaign_plan=plan, jobs=2
        )
        assert orch.run() == ExitCode.INTERRUPTED
        resumed = Orchestrator(tmp_path / "c", jobs=2)
        assert resumed.resume() == clean_code
        Journal.load(resumed.journal_path, strict=True)
        exclude = ("journal.jsonl", "events.ndjson")
        assert _tree_bytes(tmp_path / "c", exclude) == _tree_bytes(
            tmp_path / "s", exclude
        )

    def test_deadline_under_parallel_is_resumable(self, tmp_path):
        orch = Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), deadline_s=1e-9, jobs=4
        )
        assert orch.run() == ExitCode.INTERRUPTED
        assert Journal.load(orch.journal_path).of_type("deadline")
        resumed = Orchestrator(tmp_path / "c")
        assert resumed.resume() == ExitCode.OK


class TestWorkerFailureContainment:
    def test_unexpected_worker_exception_is_a_campaign_error(
        self, monkeypatch
    ):
        def boom(unit, scenario, seed, deps, profile=False):
            raise RuntimeError("simulated worker bug")

        monkeypatch.setattr(sched_mod, "execute_unit", boom)
        scheduler = DagScheduler(
            get_spec("smoke"), scenario=None, seed=0, profile=False, jobs=2
        )
        with pytest.raises(CampaignError, match="crashed in a worker"):
            list(scheduler.outcomes())

    def test_preloaded_units_are_not_reexecuted(self, tmp_path):
        """Resume under --jobs only forks work for the incomplete units."""
        plan = CampaignFaultPlan(
            scenario="crash-midrun", seed=0, crash_after_unit=2
        )
        orch = Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), campaign_plan=plan
        )
        assert orch.run() == ExitCode.INTERRUPTED
        resumed = Orchestrator(tmp_path / "c", jobs=4)
        spec = get_spec("smoke")
        preloaded = {
            rec["unit"]: resumed.store.get(rec["unit"])
            for rec in Journal.load(resumed.journal_path).of_type("unit-done")
        }
        scheduler = DagScheduler(
            spec,
            scenario=None,
            seed=0,
            profile=False,
            jobs=4,
            preloaded=preloaded,
        )
        assert [u.id for u in scheduler.pending] == ["campaign:summary"]
        outcomes = list(scheduler.outcomes())
        assert [o.unit.id for o in outcomes] == ["campaign:summary"]


def _interrupt_pull_of(monkeypatch, victim):
    """Deliver a SIGINT while the commit loop waits for *victim*."""
    real = DagScheduler.outcomes

    def outcomes(self):
        stream = real(self)
        try:
            for outcome in stream:
                if outcome.unit.id == victim:
                    raise KeyboardInterrupt
                yield outcome
        finally:
            stream.close()

    monkeypatch.setattr(DagScheduler, "outcomes", outcomes)


def _interrupt_in_parent(monkeypatch):
    """Make in-process unit execution raise KeyboardInterrupt (as the
    orchestrator's SIGINT handler does); forked workers run normally."""
    parent = os.getpid()
    real = sched_mod.execute_unit

    def interrupting(unit, scenario, seed, deps, profile=False):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(unit, scenario, seed, deps, profile)

    monkeypatch.setattr(sched_mod, "execute_unit", interrupting)


class TestOneCommitLoop:
    def test_serial_run_starts_no_worker(self, tmp_path, monkeypatch):
        started = []

        def no_pool(self):
            raise AssertionError("a serial run built a process pool")

        monkeypatch.setattr(DagScheduler, "_start_pool", no_pool)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess,
            "start",
            lambda proc: started.append(proc.name),
        )
        orch = Orchestrator(tmp_path / "c", spec=get_spec("smoke"), jobs=1)
        assert orch.run() == ExitCode.OK
        assert started == []

    def test_serial_run_reraises_unexpected_errors_unchanged(
        self, tmp_path, monkeypatch
    ):
        class Bug(Exception):
            pass

        def boom(unit, scenario, seed, deps, profile=False):
            raise Bug("programming error")

        monkeypatch.setattr(sched_mod, "execute_unit", boom)
        orch = Orchestrator(tmp_path / "c", spec=get_spec("smoke"))
        with pytest.raises(Bug, match="programming error"):
            orch.run()

    def test_interrupt_under_jobs2_journals_like_serial(
        self, tmp_path, monkeypatch
    ):
        Orchestrator(tmp_path / "clean", spec=get_spec("smoke")).run()
        victim = "table3:dawn"
        real = sched_mod.execute_unit

        def interrupting(unit, scenario, seed, deps, profile=False):
            if unit.id == victim:
                raise KeyboardInterrupt
            return real(unit, scenario, seed, deps, profile)

        with monkeypatch.context() as patch:
            patch.setattr(sched_mod, "execute_unit", interrupting)
            serial = Orchestrator(tmp_path / "s", spec=get_spec("smoke"))
            assert serial.run() == ExitCode.INTERRUPTED
        with monkeypatch.context() as patch:
            _interrupt_pull_of(patch, victim)
            parallel = Orchestrator(
                tmp_path / "p", spec=get_spec("smoke"), jobs=2
            )
            assert parallel.run() == ExitCode.INTERRUPTED
        journal = Journal.load(parallel.journal_path)
        assert journal.records[-2]["type"] == "unit-start"
        assert journal.records[-1]["during"] == victim
        for name in ("journal.jsonl", "events.ndjson"):
            assert (tmp_path / "p" / name).read_bytes() == (
                tmp_path / "s" / name
            ).read_bytes(), name
        assert Orchestrator(tmp_path / "s").resume() == ExitCode.OK
        assert Orchestrator(tmp_path / "p", jobs=2).resume() == ExitCode.OK
        assert _tree_bytes(tmp_path / "p") == _tree_bytes(tmp_path / "s")
        exclude = ("journal.jsonl", "events.ndjson")
        assert _tree_bytes(tmp_path / "p", exclude) == _tree_bytes(
            tmp_path / "clean", exclude
        )

    def test_interrupt_in_the_degraded_drain_propagates(self, monkeypatch):
        _interrupt_in_parent(monkeypatch)
        spec = get_spec("smoke")
        victim = spec.execution_order()[0].id
        scheduler = DagScheduler(
            spec,
            scenario=None,
            seed=0,
            profile=False,
            jobs=2,
            worker_faults=WorkerFaultPlan("worker-kill", 0, kill=victim),
            log=lambda _msg: None,
        )
        with pytest.raises(KeyboardInterrupt):
            list(scheduler.outcomes())
        assert scheduler.degraded
        assert not multiprocessing.active_children()

    def test_interrupt_in_the_degraded_drain_is_resumable(
        self, tmp_path, monkeypatch
    ):
        clean_code = Orchestrator(tmp_path / "clean", spec=get_spec("smoke")).run()
        victim = get_spec("smoke").execution_order()[0].id
        plan = WorkerFaultPlan("worker-kill", 0, kill=victim)
        with monkeypatch.context() as patch:
            _interrupt_in_parent(patch)
            orch = Orchestrator(
                tmp_path / "c",
                spec=get_spec("smoke"),
                jobs=2,
                worker_plan=plan,
            )
            assert orch.run() == ExitCode.INTERRUPTED
        live = [rec["type"] for rec in orch.events.live_records()]
        assert "pool-degraded" in live
        interrupted = Journal.load(orch.journal_path).of_type("interrupted")
        assert [r["during"] for r in interrupted] == [victim]
        assert Orchestrator(tmp_path / "c").resume() == clean_code
        exclude = ("journal.jsonl", "events.ndjson")
        assert _tree_bytes(tmp_path / "c", exclude) == _tree_bytes(
            tmp_path / "clean", exclude
        )
