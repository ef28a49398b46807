"""BenchDaemon: routes, idempotency, caching, drain, crash recovery.

The subprocess drills at the bottom are the PR's acceptance invariant:
SIGKILL the daemon at an arbitrary point, restart it over the same
state directory, and every accepted request completes exactly once
with byte-identical results.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.service.admission import AdmissionController
from repro.service.daemon import BenchDaemon
from repro.service.state import ServiceState

from .conftest import (
    REPO_SRC,
    DaemonProc,
    get_json,
    post_request,
    wait_for_done,
)


class TestRoutes:
    def test_root_and_healthz(self, daemon):
        status, doc = get_json(daemon.url, "/healthz")
        assert status == 200 and doc["status"] == "ok"
        with urllib.request.urlopen(daemon.url + "/", timeout=10) as resp:
            assert b"/v1/requests" in resp.read()

    def test_unknown_route_404(self, daemon):
        status, _ = get_json(daemon.url, "/nope")
        assert status == 404
        status, _ = get_json(daemon.url, "/v1/requests/missing")
        assert status == 404

    def test_bench_round_trip(self, daemon):
        status, doc, _ = post_request(
            daemon.url, {"request_id": "r1", "command": "table4"}
        )
        assert status == 200
        assert doc["status"] == "done"
        assert "Table IV" in doc["text"]
        assert doc["exit"] == 0

    def test_result_route_serves_plain_text(self, daemon):
        post_request(daemon.url, {"request_id": "r1", "command": "table4"})
        with urllib.request.urlopen(
            daemon.url + "/v1/requests/r1/result", timeout=30
        ) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            assert b"Table IV" in resp.read()

    def test_result_route_404_for_unknown_id(self, daemon):
        status, doc = get_json(daemon.url, "/v1/requests/never/result")
        assert status == 404
        assert doc == {"error": "unknown request 'never'"}

    def test_result_route_409_while_unfinished(self, tmp_path):
        daemon = BenchDaemon(tmp_path / "s", workers=1)
        release = threading.Event()

        def held_bench(body):
            assert release.wait(timeout=30.0)
            return "done", 0, "payload\n"

        daemon._run_bench = held_bench
        daemon.start()
        try:
            status, _, _ = post_request(
                daemon.url, {"request_id": "held", "command": "table4"},
                wait=False,
            )
            assert status == 202
            status, doc = get_json(daemon.url, "/v1/requests/held/result")
            assert status == 409
            assert doc["error"] == "request not finished"
            assert doc["status"] in ("queued", "running")
            release.set()
            assert wait_for_done(daemon.url, "held")["status"] == "done"
            with urllib.request.urlopen(
                daemon.url + "/v1/requests/held/result", timeout=30
            ) as resp:
                assert resp.status == 200
                assert resp.read() == b"payload\n"
        finally:
            release.set()
            daemon.stop(timeout_s=10.0)

    def test_malformed_requests_get_400(self, daemon):
        cases = [
            {"request_id": "x", "kind": "nope"},
            {"request_id": "x"},  # bench without command
            {"command": "table4"},  # missing id
            {"request_id": "", "command": "table4"},
            # Wrong-typed JSON values must map to 400 too (int({}) and
            # friends raise TypeError, not ValueError — a dropped
            # connection here would break the never-a-traceback
            # contract).
            {"request_id": "x", "command": "table4", "seed": {}},
            {"request_id": "x", "command": "table4", "seed": "abc"},
            {"request_id": "x", "command": "table4", "deadline_s": {"x": 1}},
            {"request_id": "x", "kind": "campaign", "jobs": [1]},
            ["not", "an", "object"],
        ]
        for doc in cases:
            status, body, _ = post_request(daemon.url, doc)
            assert status == 400, doc
            assert "error" in body

    def test_null_numeric_fields_mean_absent(self, daemon):
        # JSON null for an optional numeric reads as the default, not
        # a TypeError escaping as a dropped connection.
        status, doc, _ = post_request(
            daemon.url,
            {"request_id": "n1", "command": "table4", "seed": None,
             "deadline_s": None},
        )
        assert status == 200
        assert doc["status"] == "done"

    def test_unknown_command_fails_cleanly(self, daemon):
        status, doc, _ = post_request(
            daemon.url, {"request_id": "bad", "command": "tableX"}
        )
        assert status == 200
        assert doc["status"] == "failed"
        assert "unknown bench command" in doc["text"]

    def test_metrics_exposition(self, daemon):
        post_request(daemon.url, {"request_id": "m1", "command": "table4"})
        with urllib.request.urlopen(daemon.url + "/metrics", timeout=10) as resp:
            body = resp.read().decode()
        assert "service_cache_hit_rate" in body
        assert "service_requests" in body
        assert body.rstrip().endswith("# EOF")


class TestIdempotency:
    def test_same_id_replays_without_rerun(self, daemon):
        _, first, _ = post_request(
            daemon.url, {"request_id": "r1", "command": "table4"}
        )
        status, again, _ = post_request(
            daemon.url, {"request_id": "r1", "command": "table4"}
        )
        assert status == 200
        assert again["replayed"] is True
        assert again["text"] == first["text"]

    def test_distinct_ids_same_content_hit_cache(self, daemon):
        _, first, _ = post_request(
            daemon.url, {"request_id": "a", "command": "table4"}
        )
        _, second, _ = post_request(
            daemon.url, {"request_id": "b", "command": "table4"}
        )
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["text"] == first["text"]
        assert second["digest"] == first["digest"]

    def test_scenario_and_seed_are_identity(self, daemon):
        _, a, _ = post_request(
            daemon.url, {"request_id": "a", "command": "table4", "seed": 1}
        )
        _, b, _ = post_request(
            daemon.url, {"request_id": "b", "command": "table4", "seed": 2}
        )
        assert a["digest"] != b["digest"]
        assert b["cached"] is False

    def test_concurrent_same_id_admits_exactly_once(self, daemon):
        # The retry key must dedupe even when the retry races the
        # original: of N simultaneous submits, one is fresh and the
        # rest replay.
        doc = {"request_id": "race", "command": "table4"}
        barrier = threading.Barrier(8)
        results = []
        results_lock = threading.Lock()

        def poster():
            barrier.wait()
            outcome = daemon.submit(dict(doc))
            with results_lock:
                results.append(outcome)

        threads = [threading.Thread(target=poster) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        done = daemon.wait_for("race", timeout_s=30.0)
        assert done["status"] == "done"
        fresh = [r for r in results if not r[1].get("replayed")]
        assert len(fresh) == 1
        accepted = [
            rec
            for rec in daemon.state.read_queue()[0]
            if rec["op"] == "accepted" and rec["request_id"] == "race"
        ]
        assert len(accepted) == 1  # journalled (and executed) once

    def test_concurrent_same_digest_serializes_execution(self, tmp_path):
        # Two distinct ids with equal content must never execute
        # concurrently (for campaigns both orchestrators would share
        # one run directory): the loser waits, then is served from the
        # cache entry the winner wrote.
        daemon = BenchDaemon(tmp_path / "s", workers=2)
        gauge = {"running": 0, "peak": 0}
        gauge_lock = threading.Lock()

        def slow_bench(body):
            with gauge_lock:
                gauge["running"] += 1
                gauge["peak"] = max(gauge["peak"], gauge["running"])
            time.sleep(0.3)
            with gauge_lock:
                gauge["running"] -= 1
            return "done", 0, "payload\n"

        daemon._run_bench = slow_bench
        daemon.start()
        try:
            for rid in ("twin-a", "twin-b"):
                status, _, _ = daemon.submit(
                    {"request_id": rid, "command": "table4"}
                )
                assert status == 202
            first = daemon.wait_for("twin-a", timeout_s=30.0)
            second = daemon.wait_for("twin-b", timeout_s=30.0)
            assert first["status"] == second["status"] == "done"
            assert first["text"] == second["text"] == "payload\n"
            assert gauge["peak"] == 1
            assert sorted([first["cached"], second["cached"]]) == [False, True]
        finally:
            daemon.stop(timeout_s=10.0)

    def test_shed_request_is_unregistered_and_unjournalled(self, tmp_path):
        daemon = BenchDaemon(
            tmp_path / "s",
            workers=1,
            admission=AdmissionController(
                bucket_capacity=1, bucket_rate=0.01, queue_depth=4
            ),
        )
        try:
            status, _, _ = daemon.submit(
                {"request_id": "ok", "command": "table4"}
            )
            assert status == 202
            status, body, _ = daemon.submit(
                {"request_id": "shed", "command": "table4"}
            )
            assert status == 429 and "retry_after_s" in body
            # The shed id left no trace: not in-flight, not journalled,
            # and a later retry is a fresh request, not a replay.
            assert daemon.request_status("shed") is None
            ops = [
                (rec["op"], rec["request_id"])
                for rec in daemon.state.read_queue()[0]
            ]
            assert ("accepted", "shed") not in ops
        finally:
            daemon.stop(timeout_s=10.0)


class TestDrain:
    def test_drain_endpoint_refuses_new_work(self, daemon):
        status, doc, _ = post_request(daemon.url, {"wait": 0}, wait=False)
        # (malformed, but proves the route is live before drain)
        with urllib.request.urlopen(
            urllib.request.Request(
                daemon.url + "/v1/drain", data=b"{}", method="POST"
            ),
            timeout=10,
        ) as resp:
            assert resp.status == 200
        status, doc, headers = post_request(
            daemon.url, {"request_id": "late", "command": "table4"}
        )
        assert status == 503
        assert "Retry-After" in headers

    def test_stop_is_clean_and_idempotent(self, tmp_path):
        daemon = BenchDaemon(tmp_path / "s", workers=1)
        daemon.start()
        assert daemon.stop(timeout_s=10.0) is True
        assert daemon.stop(timeout_s=1.0) is True

    def test_healthz_reports_draining(self, daemon):
        daemon.begin_drain()
        status, doc = get_json(daemon.url, "/healthz")
        assert doc["status"] == "draining"


class TestRecovery:
    def test_journalled_requests_replay_on_construction(self, tmp_path):
        state = ServiceState(tmp_path / "s")
        from repro.service.state import normalize_request

        body = normalize_request({"command": "table4"})
        state.journal_accepted("lost-1", "default", body)
        state.journal_accepted("lost-2", "default", body)
        daemon = BenchDaemon(tmp_path / "s", workers=1)
        try:
            assert daemon._recovered == 2
            daemon.start()
            done = wait_for_done(daemon.url, "lost-1")
            assert done["status"] == "done"
            done = wait_for_done(daemon.url, "lost-2")
            assert done["status"] == "done"
        finally:
            daemon.stop(timeout_s=10.0)

    def test_done_requests_not_replayed(self, tmp_path):
        daemon = BenchDaemon(tmp_path / "s", workers=1)
        daemon.start()
        post_request(daemon.url, {"request_id": "done-1", "command": "table4"})
        daemon.stop(timeout_s=10.0)
        again = BenchDaemon(tmp_path / "s", workers=1)
        try:
            assert again._recovered == 0
        finally:
            again.stop(timeout_s=5.0)


class TestCampaignRequests:
    def test_campaign_round_trip_and_shared_dir(self, daemon):
        status, doc, _ = post_request(
            daemon.url,
            {"request_id": "c1", "kind": "campaign", "spec": "smoke"},
            timeout=120,
        )
        assert status == 200
        assert doc["status"] == "done"
        assert doc["text"]
        # Same content under a different id: served from cache, not
        # re-run (the run directory is shared by content digest).
        status, again, _ = post_request(
            daemon.url,
            {"request_id": "c2", "kind": "campaign", "spec": "smoke"},
            timeout=120,
        )
        assert again["cached"] is True
        assert again["text"] == doc["text"]


def _cli_stdout(*args: str) -> tuple[str, int]:
    """``pvc-bench ARGS`` as a fresh process: ``(stdout, exit code)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.stdout, proc.returncode


class TestModelEvaluatingRequests:
    """``table2`` evaluates model points; the service caches only its result."""

    def test_cache_counts_request_results_only(self, daemon):
        _, cold, _ = post_request(
            daemon.url, {"request_id": "cold", "command": "table2"}
        )
        _, warm, _ = post_request(
            daemon.url, {"request_id": "warm", "command": "table2"}
        )
        assert (cold["cached"], warm["cached"]) == (False, True)
        stats = daemon.state.cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        with urllib.request.urlopen(daemon.url + "/metrics", timeout=10) as resp:
            lines = resp.read().decode().splitlines()
        assert "service_cache_entries 1" in lines

    @pytest.mark.parametrize(
        "flags", [(), ("--inject", "throttle", "--seed", "3")],
        ids=["clean", "throttle-seed3"],
    )
    def test_table2_equals_cli_stdout(self, tmp_path, flags):
        stdout, exit_code = _cli_stdout("table2", *flags)
        body = {"command": "table2"}
        if flags:
            body.update(scenario=flags[1], seed=int(flags[3]))

        def ask(daemon: BenchDaemon, rid: str) -> dict:
            status, doc, _ = post_request(
                daemon.url, dict(body, request_id=rid)
            )
            assert status == 200 and doc["status"] == "done", doc
            # The CLI prints the rendered text with one trailing newline.
            assert doc["text"] + "\n" == stdout
            assert doc["exit"] == exit_code
            return doc

        first = BenchDaemon(tmp_path / "state", workers=1)
        first.start()
        try:
            cold = ask(first, "cold")
            assert ask(first, "cached")["cached"] is True
        finally:
            first.stop(timeout_s=10.0)
        assert cold["cached"] is False
        with open(first.state.cache.object_path(cold["digest"]), "w") as fh:
            fh.write('{"key": "not even close"')

        revived = BenchDaemon(tmp_path / "state", workers=1)
        revived.start()
        try:
            assert ask(revived, "recomputed")["cached"] is False
            assert revived.state.cache.stats()["quarantined"] == 1
        finally:
            revived.stop(timeout_s=10.0)


@pytest.mark.slow
class TestKillDrill:
    """SIGKILL the daemon mid-flight; restart; nothing lost, bytes equal."""

    def test_sigkill_restart_idempotent_byte_identical(self, tmp_path):
        commands = [
            "table1", "table2", "table4", "table5", "fig1", "fig2", "fig3",
        ]
        # Reference answers from an undisturbed daemon.
        reference = {}
        ref = DaemonProc(tmp_path / "ref")
        try:
            for i, command in enumerate(commands):
                _, doc, _ = post_request(
                    ref.url,
                    {"request_id": f"r-{i}", "command": command},
                    timeout=120,
                )
                reference[f"r-{i}"] = doc["text"]
        finally:
            assert ref.sigterm() == 0

        victim = DaemonProc(tmp_path / "state")
        accepted = []
        for i, command in enumerate(commands):
            status, doc, _ = post_request(
                victim.url,
                {"request_id": f"r-{i}", "command": command},
                wait=False,
                timeout=30,
            )
            assert status in (200, 202)
            accepted.append(f"r-{i}")
        victim.sigkill()  # mid-flight: some done, some queued, some running

        revived = DaemonProc(tmp_path / "state")
        try:
            for rid in accepted:
                done = wait_for_done(revived.url, rid, timeout_s=120)
                assert done["status"] == "done", rid
                assert done["text"] == reference[rid], rid
            # No duplicated work: the queue journal holds no survivors.
            state = ServiceState(tmp_path / "state")
            assert state.recover() == []
        finally:
            assert revived.sigterm() == 0

    def test_sigterm_drains_with_exit_zero(self, tmp_path):
        proc = DaemonProc(tmp_path / "state")
        post_request(
            proc.url, {"request_id": "d1", "command": "table4"}, timeout=60
        )
        assert proc.sigterm() == 0
