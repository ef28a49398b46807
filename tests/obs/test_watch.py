"""Watch board: golden snapshots over real (faulted) run directories.

No live process anywhere: every scenario drives the orchestrator to a
terminal (or interrupted) state first, then the renderer is pointed at
the bytes on disk with a pinned ``now`` — the board must tell the
truth about crashed, interrupted and degraded runs from the streams
alone.
"""

import io
import time
import types

import pytest

import repro.obs.watch as watch_mod

from repro.campaign.orchestrator import Orchestrator
from repro.campaign.spec import get_spec
from repro.cli import main
from repro.errors import CampaignError
from repro.faults.process import WorkerFaultPlan
from repro.faults.scenarios import build_campaign_plan
from repro.obs.events import IN_PROCESS, LIVE_FILE, read_events
from repro.obs.export import export_chrome
from repro.obs.watch import (
    follow,
    load_snapshot,
    render,
    watch_main,
    worker_lanes,
)


def _run(directory, *, jobs=1, campaign_plan=None, worker_plan=None, **kw):
    orch = Orchestrator(
        directory,
        spec=get_spec("smoke"),
        jobs=jobs,
        campaign_plan=campaign_plan,
        worker_plan=worker_plan,
        **kw,
    )
    orch.run()
    return orch


class TestCompletedRun:
    def test_snapshot_and_board(self, tmp_path):
        _run(tmp_path / "run", jobs=2)
        snap = load_snapshot(tmp_path / "run")
        assert snap.complete and snap.exit_code == 0
        assert snap.done == snap.total == len(get_spec("smoke"))
        assert snap.jobs == 2 and snap.pid is not None
        assert len(snap.lanes) == 2
        board = render(snap, now=2_000_000_000.0)
        assert "COMPLETE (exit 0)" in board
        assert "campaign-worker-0" in board and "campaign-worker-1" in board
        assert f"{snap.total} OK" in board

    def test_serial_run_gets_a_synthetic_lane(self, tmp_path):
        _run(tmp_path / "run", jobs=1)
        snap = load_snapshot(tmp_path / "run")
        assert [ln.worker for ln in snap.lanes] == ["serial"]
        assert snap.lanes[0].state == "IDLE"

    def test_render_is_deterministic_for_fixed_now(self, tmp_path):
        _run(tmp_path / "run", jobs=2)
        snap = load_snapshot(tmp_path / "run")
        assert render(snap, now=1.0e9) == render(snap, now=1.0e9)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            load_snapshot(tmp_path)


class TestForeignLines:
    """Lines that are JSON but not events end the trusted prefix: the
    board and the export show the run as it was, instead of crashing."""

    def test_watch_and_export_ignore_foreign_lines(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            watch_mod,
            "time",
            types.SimpleNamespace(time=lambda: 2_000_000_000.0, sleep=time.sleep),
        )
        run = tmp_path / "run"
        _run(run)

        def printed():
            assert main(["campaign", "watch", str(run), "--once"]) == 0
            board = capsys.readouterr().out
            assert main(["obs", "export", str(run)]) == 0
            return board, capsys.readouterr().out

        untouched = printed()
        with open(run / "events.ndjson", "a", encoding="utf-8") as fh:
            fh.write('[1]\n{"seq": "x"}\n')
        assert printed() == untouched


class TestCrashedRun:
    def test_board_shows_resumable_partial_progress(self, tmp_path):
        plan = build_campaign_plan("crash-midrun", 0, len(get_spec("smoke")))
        _run(tmp_path / "run", campaign_plan=plan)
        snap = load_snapshot(tmp_path / "run")
        assert not snap.complete
        assert 0 < snap.done < snap.total
        board = render(snap, now=2_000_000_000.0)
        assert "RUNNING" in board or "INTERRUPTED" in board
        assert "campaign resume" in board or "watching" in board
        assert f"{snap.done}/{snap.total} unit(s)" in board

    def test_deadline_interrupt_reads_as_resumable(self, tmp_path):
        _run(tmp_path / "run", deadline_s=0.5)
        snap = load_snapshot(tmp_path / "run")
        assert snap.interrupted and not snap.complete
        board = render(snap, now=2_000_000_000.0)
        assert "INTERRUPTED (resumable)" in board
        assert "campaign resume" in board


class TestQuarantinedRun:
    def test_board_names_the_poison_unit(self, tmp_path, monkeypatch):
        # A legacy ``unit-quarantined`` record reads as a failed unit.
        from tests.campaign.test_orchestrator import legacy_quarantine_run

        legacy_quarantine_run(tmp_path / "run", monkeypatch)
        snap = load_snapshot(tmp_path / "run")
        assert snap.unit_states["table3:dawn"] == "FAILED"
        board = render(snap, now=2_000_000_000.0)
        assert any(
            "table3:dawn" in line and "FAILED" in line
            for line in board.splitlines()
        )


class TestDegradedRun:
    def test_board_flags_pool_degradation(self, tmp_path):
        # The worker that picks up the first unit dies; the pool breaks
        # and the rest of the DAG runs in-process.
        victim = get_spec("smoke").execution_order()[0].id
        plan = WorkerFaultPlan("worker-kill", 0, kill=victim)
        _run(tmp_path / "run", jobs=2, worker_plan=plan)
        snap = load_snapshot(tmp_path / "run")
        assert snap.degraded
        assert snap.complete  # the in-process step still finishes the DAG
        board = render(snap, now=2_000_000_000.0)
        assert "POOL DEGRADED" in board

    def test_in_process_units_get_their_own_lane(self, tmp_path, capsys):
        # After the pool breaks the orchestrator runs the rest itself;
        # those units must not show up on worker 0's lane.
        run = tmp_path / "run"
        argv = ["campaign", "run", "--dir", str(run), "--spec", "paper",
                "--jobs", "4", "--inject", "worker-kill", "--seed", "0"]
        assert main(argv) == 0
        live = read_events(run / LIVE_FILE)
        summary = [
            rec["index"] for rec in live
            if rec["type"] == "unit-dispatched"
            and rec["unit"] == "campaign:summary"
        ]
        assert summary == [IN_PROCESS]
        lanes = load_snapshot(run).lanes
        assert [ln.worker for ln in lanes] == ["in-process"] + [
            f"campaign-worker-{i}" for i in range(4)
        ]
        doc = export_chrome(run)
        tid = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"] if e["name"] == "thread_name"
        }
        (span,) = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "campaign:summary"
        ]
        assert tid[span["tid"]] == "in-process"


class TestWorkerLanes:
    def test_lanes_follow_dispatch_and_completion(self):
        live = [
            {"v": 1, "type": "run-live", "ts": 0.0, "jobs": 2, "pid": 1, "units": 2},
            {"v": 1, "type": "worker-spawn", "ts": 0.1, "worker": "campaign-worker-0", "index": 0},
            {"v": 1, "type": "worker-spawn", "ts": 0.1, "worker": "campaign-worker-1", "index": 1},
            {"v": 1, "type": "unit-dispatched", "ts": 0.2, "unit": "a", "index": 1},
            {"v": 1, "type": "unit-completed", "ts": 0.9, "unit": "a", "status": "ok"},
            {"v": 1, "type": "unit-dispatched", "ts": 1.0, "unit": "b", "index": 1},
        ]
        lanes = worker_lanes(live)
        assert [ln.worker for ln in lanes] == [
            "campaign-worker-0",
            "campaign-worker-1",
        ]
        assert lanes[0].state == "IDLE" and lanes[0].last_ts is None
        assert lanes[1].state == "RUNNING" and lanes[1].unit == "b"
        assert lanes[1].last_ts == 1.0


class TestFollow:
    def test_once_renders_final_snapshot(self, tmp_path):
        _run(tmp_path / "run", jobs=2)
        out = io.StringIO()
        code = follow(tmp_path / "run", once=True, stream=out)
        assert code == 0
        assert "COMPLETE (exit 0)" in out.getvalue()

    def test_waits_politely_for_a_missing_journal(self, tmp_path):
        out = io.StringIO()
        assert follow(tmp_path, once=True, stream=out) == 0
        assert "waiting for a campaign journal" in out.getvalue()

    def test_watch_main_positional_rundir(self, tmp_path, capsys):
        _run(tmp_path / "run", jobs=1)

        class Args:
            rundir = str(tmp_path / "run")
            once = True
            interval = 0.5

        assert watch_main(Args()) == 0
        assert "COMPLETE" in capsys.readouterr().out

    def test_watch_main_requires_a_rundir(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "watch", "--once"])
        assert exc.value.code == 2
        assert "rundir" in capsys.readouterr().err
