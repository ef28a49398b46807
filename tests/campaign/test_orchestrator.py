"""Orchestrator: crash/resume byte-identity, supervision, verification.

The central property (the reason the journal exists): a campaign killed
after unit *k* and resumed produces artifacts **byte-identical** to an
uninterrupted run under the same scenario and seed — for every k and
several seeds.
"""

import pytest

from repro.campaign.journal import Journal
from repro.campaign.orchestrator import Orchestrator, aggregate_metrics
from repro.campaign.spec import get_spec
from repro.errors import CampaignError
from repro.exitcodes import ExitCode
from repro.faults.scenarios import CampaignFaultPlan
from repro.telemetry.trace import Tracer


def _run_clean(directory, scenario, seed):
    orch = Orchestrator(
        directory, spec=get_spec("smoke"), scenario=scenario, seed=seed
    )
    return orch.run(), orch


def _artifact_bytes(orch):
    out = {}
    import os

    for name in sorted(os.listdir(orch.tables_dir)):
        with open(os.path.join(orch.tables_dir, name), "rb") as fh:
            out[name] = fh.read()
    with open(orch.manifest_path, "rb") as fh:
        out["manifest.json"] = fh.read()
    return out


# Uninterrupted reference runs, one per (scenario, seed), shared below.
@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    cache = {}

    def get(scenario, seed):
        key = (scenario, seed)
        if key not in cache:
            directory = tmp_path_factory.mktemp("clean") / "campaign"
            code, orch = _run_clean(directory, scenario, seed)
            cache[key] = (code, _artifact_bytes(orch))
        return cache[key]

    return get


class TestCrashResumeByteIdentity:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("crash_after", [0, 1, 2, 3])
    def test_kill_after_unit_k_then_resume_matches_clean(
        self, tmp_path, clean_runs, crash_after, seed
    ):
        scenario = "plane-outage"
        clean_code, clean_bytes = clean_runs(scenario, seed)
        plan = CampaignFaultPlan(
            scenario="crash-midrun", seed=seed, crash_after_unit=crash_after
        )
        orch = Orchestrator(
            tmp_path / "c",
            spec=get_spec("smoke"),
            scenario=scenario,
            seed=seed,
            campaign_plan=plan,
        )
        assert orch.run() == ExitCode.INTERRUPTED
        resumed = Orchestrator(tmp_path / "c")
        assert resumed.resume() == clean_code
        assert _artifact_bytes(resumed) == clean_bytes

    @pytest.mark.parametrize("seed", [0, 3])
    def test_journal_truncate_then_resume_matches_clean(
        self, tmp_path, clean_runs, seed
    ):
        scenario = "plane-outage"
        clean_code, clean_bytes = clean_runs(scenario, seed)
        plan = CampaignFaultPlan(
            scenario="journal-truncate",
            seed=seed,
            crash_after_unit=1,
            truncate_journal=True,
        )
        orch = Orchestrator(
            tmp_path / "c",
            spec=get_spec("smoke"),
            scenario=scenario,
            seed=seed,
            campaign_plan=plan,
        )
        assert orch.run() == ExitCode.INTERRUPTED
        resumed = Orchestrator(tmp_path / "c")
        assert resumed.resume() == clean_code
        assert _artifact_bytes(resumed) == clean_bytes

    def test_interrupt_mid_unit_then_resume_matches_clean(
        self, tmp_path, clean_runs, monkeypatch
    ):
        scenario, seed = "plane-outage", 0
        clean_code, clean_bytes = clean_runs(scenario, seed)
        import repro.campaign.scheduler as mod

        real = mod.execute_unit
        calls = []

        def interrupting(unit, scn, sd, deps, profile=False):
            calls.append(unit.id)
            if unit.id == "table3:dawn":
                raise KeyboardInterrupt
            return real(unit, scn, sd, deps, profile)

        monkeypatch.setattr(mod, "execute_unit", interrupting)
        orch = Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), scenario=scenario, seed=seed
        )
        assert orch.run() == ExitCode.INTERRUPTED
        journal = Journal.load(orch.journal_path)
        assert journal.of_type("interrupted")[0]["during"] == "table3:dawn"
        monkeypatch.setattr(mod, "execute_unit", real)
        resumed = Orchestrator(tmp_path / "c")
        assert resumed.resume() == clean_code
        assert _artifact_bytes(resumed) == clean_bytes


class TestResumeSelectivity:
    def test_truncated_journal_reruns_only_the_torn_unit_onward(self, tmp_path):
        plan = CampaignFaultPlan(
            scenario="journal-truncate",
            seed=0,
            crash_after_unit=1,
            truncate_journal=True,
        )
        orch = Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), campaign_plan=plan
        )
        orch.run()
        # The torn record was table3:dawn's unit-done: its completion is
        # lost, but table3:aurora's intact record must be honoured.
        resumed = Orchestrator(tmp_path / "c")
        resumed.resume()
        resume_rec = Journal.load(orch.journal_path).of_type("resume")[0]
        assert resume_rec["skipped"] == ["table3:aurora"]
        assert resume_rec["rerun"] == [
            "table3:dawn",
            "table3:render",
            "campaign:summary",
        ]
        assert resume_rec["dropped_records"] == 1

    def test_corrupt_store_payload_reruns_only_that_unit(self, tmp_path):
        code, orch = _run_clean(tmp_path / "c", None, 0)
        assert code == ExitCode.OK
        before = _artifact_bytes(orch)
        # Tamper with one completed payload on disk.
        with open(orch.store.path("table3:aurora"), "a") as fh:
            fh.write("\n")
        resumed = Orchestrator(tmp_path / "c")
        assert resumed.resume() == ExitCode.OK
        resume_rec = Journal.load(orch.journal_path).of_type("resume")[-1]
        assert resume_rec["corrupt_store"] == ["table3:aurora"]
        assert resume_rec["rerun"] == ["table3:aurora"]
        assert _artifact_bytes(resumed) == before

    def test_resume_of_complete_campaign_is_a_noop(self, tmp_path):
        code, orch = _run_clean(tmp_path / "c", None, 0)
        n_records = len(Journal.load(orch.journal_path))
        resumed = Orchestrator(tmp_path / "c")
        assert resumed.resume() == code
        assert len(Journal.load(orch.journal_path)) == n_records


class TestSupervision:
    def test_watchdog_demotes_overbudget_units(self, tmp_path):
        orch = Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), unit_timeout_s=1e-12
        )
        assert orch.run() == ExitCode.UNHEALTHY
        journal = Journal.load(orch.journal_path)
        done = {r["unit"]: r for r in journal.of_type("unit-done")}
        # Measuring units consume simulated time and trip the watchdog;
        # render units are instantaneous and stay healthy.
        assert done["table3:aurora"]["status"] == "FAILED"
        assert "watchdog" in done["table3:aurora"]
        assert done["table3:render"]["status"] == "FAILED"  # dep status

    def test_deadline_stops_scheduling_resumably(self, tmp_path):
        orch = Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), deadline_s=1e-9
        )
        assert orch.run() == ExitCode.INTERRUPTED
        journal = Journal.load(orch.journal_path)
        assert journal.of_type("deadline")
        # Without the deadline, resume completes the campaign.
        resumed = Orchestrator(tmp_path / "c")
        assert resumed.resume() == ExitCode.OK

    def test_second_run_in_same_directory_refused(self, tmp_path):
        _run_clean(tmp_path / "c", None, 0)
        orch = Orchestrator(tmp_path / "c", spec=get_spec("smoke"))
        with pytest.raises(CampaignError, match="resume"):
            orch.run()

    def test_resume_without_journal_refused(self, tmp_path):
        with pytest.raises(CampaignError):
            Orchestrator(tmp_path / "empty").resume()

    def test_resume_refuses_changed_spec(self, tmp_path):
        directory = tmp_path / "c"
        directory.mkdir()
        journal = Journal(directory / "journal.jsonl")
        journal.append(
            "campaign-start",
            spec="smoke",
            spec_digest="0" * 64,
            scenario=None,
            campaign_scenario=None,
            seed=0,
            units=[],
        )
        with pytest.raises(CampaignError, match="digest"):
            Orchestrator(directory).resume()


class TestVerify:
    def test_complete_campaign_verifies_clean(self, tmp_path):
        _, orch = _run_clean(tmp_path / "c", None, 0)
        assert Orchestrator(tmp_path / "c").verify() == ExitCode.OK

    def test_incomplete_campaign_is_resumable(self, tmp_path):
        plan = CampaignFaultPlan(
            scenario="crash-midrun", seed=0, crash_after_unit=0
        )
        Orchestrator(
            tmp_path / "c", spec=get_spec("smoke"), campaign_plan=plan
        ).run()
        assert Orchestrator(tmp_path / "c").verify() == ExitCode.INTERRUPTED

    def test_torn_journal_is_corrupt(self, tmp_path):
        _, orch = _run_clean(tmp_path / "c", None, 0)
        Journal.load(orch.journal_path)  # sanity: loads
        with open(orch.journal_path) as fh:
            text = fh.read()
        with open(orch.journal_path, "w") as fh:
            fh.write(text[:-25])
        assert Orchestrator(tmp_path / "c").verify() == ExitCode.CORRUPT

    def test_tampered_store_is_corrupt(self, tmp_path):
        _, orch = _run_clean(tmp_path / "c", None, 0)
        with open(orch.store.path("table3:dawn"), "a") as fh:
            fh.write(" ")
        assert Orchestrator(tmp_path / "c").verify() == ExitCode.CORRUPT


class TestUnitsRecordNoSpans:
    """A unit's telemetry session feeds metrics only: nothing in a
    campaign reads a span timeline, so no unit builds a tracer."""

    @pytest.mark.parametrize("scenario", [None, "plane-outage"])
    def test_campaign_builds_no_tracer(
        self, tmp_path, clean_runs, monkeypatch, scenario
    ):
        code, reference = clean_runs(scenario, 7)

        def refuse(self):
            raise AssertionError("a campaign unit built a Tracer")

        monkeypatch.setattr(Tracer, "__init__", refuse)
        again, orch = _run_clean(tmp_path / "c", scenario, 7)
        assert again == code
        assert _artifact_bytes(orch) == reference
        if scenario is not None:
            merged = aggregate_metrics(
                [orch.store.get(u.id) for u in orch.spec.execution_order()]
            )
            assert merged.counter("fault.count").total() > 0


class TestIdempotentMetricAttribution:
    PAYLOAD = {
        "unit": "table3:aurora",
        "metrics": {
            "retry.count": {
                "kind": "counter",
                "samples": [
                    {"labels": {"unit": "table3:aurora"}, "value": 3.0}
                ],
            },
            "rep.time_us": {"kind": "histogram", "samples": []},
        },
    }

    def test_same_unit_merged_twice_counts_once(self):
        merged = aggregate_metrics([self.PAYLOAD, self.PAYLOAD])
        assert merged.value("retry.count", unit="table3:aurora") == 3.0

    def test_distinct_units_accumulate(self):
        other = {
            "unit": "table3:dawn",
            "metrics": {
                "retry.count": {
                    "kind": "counter",
                    "samples": [
                        {"labels": {"unit": "table3:dawn"}, "value": 2.0}
                    ],
                }
            },
        }
        merged = aggregate_metrics([self.PAYLOAD, other])
        assert merged.counter("retry.count").total() == 5.0

    def test_campaign_metrics_attribute_by_unit(self, tmp_path):
        """A faulty campaign's counters carry unit labels exactly once."""
        _, orch = _run_clean(tmp_path / "c", "device-loss", 0)
        payloads = [
            orch.store.get(u.id) for u in orch.spec.execution_order()
        ]
        merged = aggregate_metrics(payloads)
        faults = merged.counter("fault.count").samples()
        assert faults, "device-loss must record injected faults"
        measuring = {"table3:aurora", "table3:dawn"}
        for labels, _ in faults:
            assert dict(labels)["unit"] in measuring
        # Re-aggregating after a duplicate merge changes nothing: the
        # duplicated unit's earlier samples are dropped first.
        again = aggregate_metrics(payloads + payloads[:1])
        for name in merged.names():
            assert (
                again.counter(name).total() == merged.counter(name).total()
            ), name

    def test_drop_label_after_resumed_unit_reprofiles(self):
        """Re-executing a profiled unit (the resume path) must neither
        double-count its metrics nor change its profile digest."""
        from repro.campaign.spec import get_spec
        from repro.campaign.units import execute_unit

        unit = get_spec("smoke").unit("table3:aurora")
        first = execute_unit(unit, "device-loss", 0, {}, profile=True)
        second = execute_unit(unit, "device-loss", 0, {}, profile=True)
        assert first["profile"]["digest"] == second["profile"]["digest"]
        assert first == second
        merged = aggregate_metrics([first])
        remerged = aggregate_metrics([first, second])
        for name in merged.names():
            assert (
                remerged.counter(name).total()
                == merged.counter(name).total()
            ), name


def legacy_quarantine_run(directory, monkeypatch, victim="table3:dawn"):
    """A campaign directory whose journal ends in a ``unit-quarantined``
    record for *victim*, as the pool wrote before a worker death
    degraded to the in-process step.  Returns the finished run's exit
    code and its tables, for comparison after a resume."""
    import os

    import repro.campaign.scheduler as sched_mod
    from repro.errors import ReproError

    real = sched_mod.execute_unit

    def failing(unit, scenario, seed, deps, profile=False):
        if unit.id == victim:
            raise ReproError("worker exit codes -9, -9, -9")
        return real(unit, scenario, seed, deps, profile)

    with monkeypatch.context() as patch:
        patch.setattr(sched_mod, "execute_unit", failing)
        orch = Orchestrator(directory, spec=get_spec("smoke"))
        code = orch.run()
    tables = _artifact_bytes(orch)
    records = Journal.load(orch.journal_path).records
    os.remove(orch.journal_path)
    journal = Journal(orch.journal_path)
    for rec in records:
        fields = {
            k: v for k, v in rec.items() if k not in ("v", "type", "sha256")
        }
        if rec["type"] == "unit-failed" and rec["unit"] == victim:
            journal.append(
                "unit-quarantined", exit_codes=[-9, -9, -9], **fields
            )
            break
        journal.append(rec["type"], **fields)
    return code, tables


class TestLegacyQuarantineRecord:
    """Journals from before the degrade step may hold ``unit-quarantined``;
    status, resume and verify read it as ``unit-failed``."""

    def test_status_resume_and_verify_read_it_as_failed(
        self, tmp_path, monkeypatch, capsys
    ):
        directory = tmp_path / "c"
        code, tables = legacy_quarantine_run(directory, monkeypatch)
        assert code == ExitCode.UNHEALTHY
        orch = Orchestrator(directory)
        assert orch.verify() == ExitCode.INTERRUPTED
        capsys.readouterr()
        assert orch.status() == ExitCode.OK
        out = capsys.readouterr().out
        assert "table3:dawn" in out and "FAILED" in out
        # Resume skips the quarantined unit (its FAILED payload stands)
        # and renders the same tables as the original run.
        assert Orchestrator(directory).resume() == code
        resumed = Journal.load(directory / "journal.jsonl").of_type("resume")
        assert "table3:dawn" in resumed[0]["skipped"]
        assert _artifact_bytes(Orchestrator(directory)) == tables
        assert Orchestrator(directory).verify() == ExitCode.OK
