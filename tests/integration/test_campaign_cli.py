"""``pvc-bench campaign`` end-to-end: exit-code taxonomy and artifacts."""

import json

import pytest

from repro.cli import main


def _run(*argv):
    return main(list(argv))


class TestCampaignRun:
    def test_clean_smoke_campaign(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        assert _run("campaign", "run", "--dir", d, "--spec", "smoke") == 0
        assert (tmp_path / "c" / "tables" / "table3.txt").exists()
        assert (tmp_path / "c" / "tables" / "summary.txt").exists()
        assert (tmp_path / "c" / "journal.jsonl").exists()

    def test_campaign_table_matches_cli_table(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        _run("campaign", "run", "--dir", d, "--spec", "smoke")
        capsys.readouterr()
        assert _run("table3") == 0
        stdout = capsys.readouterr().out
        artifact = (tmp_path / "c" / "tables" / "table3.txt").read_text()
        assert artifact == stdout

    def test_manifest_has_campaign_section(self, tmp_path):
        d = str(tmp_path / "c")
        _run("campaign", "run", "--dir", d, "--spec", "smoke")
        doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
        campaign = doc["campaign"]
        assert campaign["spec"] == "smoke"
        assert [u["id"] for u in campaign["units"]] == [
            "table3:aurora",
            "table3:dawn",
            "table3:render",
            "campaign:summary",
        ]
        assert all(len(u["digest"]) == 64 for u in campaign["units"])
        assert doc["config"]["systems"] == ["aurora", "dawn"]

    def test_run_without_dir_fails_unhealthy(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run("campaign", "run")
        assert exc.value.code == 2
        assert "--dir" in capsys.readouterr().err

    def test_unknown_action_fails_unhealthy(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _run("campaign", "dance", "--dir", str(tmp_path))
        assert exc.value.code == 2
        assert "dance" in capsys.readouterr().err

    def test_unknown_scenario_fails_unhealthy(self, tmp_path, capsys):
        rc = _run(
            "campaign", "run", "--dir", str(tmp_path / "c"),
            "--spec", "smoke", "--inject", "nope",
        )
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_rerun_in_same_dir_suggests_resume(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        _run("campaign", "run", "--dir", d, "--spec", "smoke")
        assert _run("campaign", "run", "--dir", d, "--spec", "smoke") == 2
        assert "resume" in capsys.readouterr().err


class TestCrashResume:
    def test_crash_midrun_exits_3_then_resume_completes(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        rc = _run(
            "campaign", "run", "--dir", d, "--spec", "smoke",
            "--inject", "crash-midrun",
        )
        assert rc == 3
        assert not (tmp_path / "c" / "manifest.json").exists()
        assert _run("campaign", "resume", "--dir", d) == 0
        assert (tmp_path / "c" / "manifest.json").exists()

    def test_resumed_artifacts_match_uninterrupted_run(self, tmp_path):
        clean, crash = str(tmp_path / "clean"), str(tmp_path / "crash")
        assert _run("campaign", "run", "--dir", clean, "--spec", "smoke") == 0
        _run(
            "campaign", "run", "--dir", crash, "--spec", "smoke",
            "--inject", "crash-midrun",
        )
        assert _run("campaign", "resume", "--dir", crash) == 0
        for name in ("tables/table3.txt", "tables/summary.txt", "manifest.json"):
            assert (tmp_path / "clean" / name).read_bytes() == (
                tmp_path / "crash" / name
            ).read_bytes(), name

    def test_journal_truncate_verify_exits_4_then_resume_heals(
        self, tmp_path, capsys
    ):
        d = str(tmp_path / "c")
        rc = _run(
            "campaign", "run", "--dir", d, "--spec", "smoke",
            "--inject", "journal-truncate",
        )
        assert rc == 3
        assert _run("campaign", "verify", "--dir", d) == 4
        assert "corrupt" in capsys.readouterr().out
        assert _run("campaign", "resume", "--dir", d) == 0
        assert _run("campaign", "verify", "--dir", d) == 0

    def test_undecodable_journal_tail_is_a_corrupt_tail(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        assert _run("campaign", "run", "--dir", d, "--spec", "smoke") == 0
        with open(tmp_path / "c" / "journal.jsonl", "ab") as fh:
            fh.write(b'{"v":2,"type":"unit-start","unit":"x\xe2\x82')
        capsys.readouterr()
        assert _run("campaign", "status", "--dir", d) == 0
        assert "1 corrupt record(s) in the tail" in capsys.readouterr().out
        assert _run("campaign", "verify", "--dir", d) == 4
        assert "journal.jsonl:11: record is not valid JSON" in (
            capsys.readouterr().out
        )
        assert _run("campaign", "resume", "--dir", d) == 0
        assert _run("campaign", "verify", "--dir", d) == 0

    def test_resume_without_campaign_fails_unhealthy(self, tmp_path, capsys):
        assert _run("campaign", "resume", "--dir", str(tmp_path / "x")) == 2


class TestStatusAndVerify:
    def test_status_reports_pending_units(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        _run(
            "campaign", "run", "--dir", d, "--spec", "smoke",
            "--inject", "crash-midrun",
        )
        capsys.readouterr()
        assert _run("campaign", "status", "--dir", d) == 0
        out = capsys.readouterr().out
        assert "pending" in out
        assert "campaign incomplete" in out

    def test_verify_incomplete_exits_3(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        _run(
            "campaign", "run", "--dir", d, "--spec", "smoke",
            "--inject", "crash-midrun",
        )
        assert _run("campaign", "verify", "--dir", d) == 3

    def test_verify_complete_exits_0(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        _run("campaign", "run", "--dir", d, "--spec", "smoke")
        assert _run("campaign", "verify", "--dir", d) == 0
        assert "complete and verified" in capsys.readouterr().out


class TestSupervisionFlags:
    def test_deadline_exits_resumable(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        rc = _run(
            "campaign", "run", "--dir", d, "--spec", "smoke",
            "--deadline", "1e-9",
        )
        assert rc == 3
        assert _run("campaign", "resume", "--dir", d) == 0

    def test_unit_timeout_demotes_units(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        rc = _run(
            "campaign", "run", "--dir", d, "--spec", "smoke",
            "--unit-timeout", "1e-12",
        )
        assert rc == 2
        summary = (tmp_path / "c" / "tables" / "summary.txt").read_text()
        assert "FAILED" in summary


def _tree(directory):
    import os

    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            if name == "live.ndjson":  # wall-clock stream, never compared
                continue
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, directory)] = fh.read()
    return out


class TestWorkerScenarios:
    """The process-level chaos scenarios, driven through the CLI."""

    def _serial(self, tmp_path):
        d = tmp_path / "serial"
        assert _run("campaign", "run", "--dir", str(d), "--spec", "smoke") == 0
        return _tree(d)

    def test_worker_kill_heals_byte_identically(self, tmp_path):
        golden = self._serial(tmp_path)
        d = tmp_path / "chaos"
        rc = _run(
            "campaign", "run", "--dir", str(d), "--spec", "smoke",
            "--inject", "worker-kill", "--seed", "0", "--jobs", "2",
        )
        assert rc == 0
        assert _tree(d) == golden

    def test_io_enospc_is_transparent(self, tmp_path):
        golden = self._serial(tmp_path)
        d = tmp_path / "chaos"
        rc = _run(
            "campaign", "run", "--dir", str(d), "--spec", "smoke",
            "--inject", "io-enospc", "--seed", "0",
        )
        assert rc == 0
        assert _tree(d) == golden

    @pytest.mark.parametrize(
        "flags", [["--max-respawns", "0"], ["--hang-timeout", "1"]]
    )
    def test_removed_pool_flags_are_usage_errors(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            _run(
                "campaign", "run", "--dir", str(tmp_path / "c"),
                "--spec", "smoke", "--jobs", "2", *flags,
            )
        assert exc.value.code == 2

    def test_error_lists_worker_scenarios(self, tmp_path, capsys):
        rc = _run(
            "campaign", "run", "--dir", str(tmp_path / "c"),
            "--spec", "smoke", "--inject", "nope",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "worker-kill" in err and "io-enospc" in err

    @pytest.mark.parametrize("scenario", ["worker-hang", "worker-poison"])
    def test_removed_worker_scenarios_are_unknown(
        self, tmp_path, capsys, scenario
    ):
        rc = _run(
            "campaign", "run", "--dir", str(tmp_path / "c"),
            "--spec", "smoke", "--inject", scenario, "--jobs", "2",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"unknown fault scenario {scenario!r}" in err
        assert "worker-kill" in err
