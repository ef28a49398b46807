"""Service observability: trace propagation, RED/SLO surfaces, board."""

import json

from repro.obs.requests import (
    TRACEPARENT_HEADER,
    mint_trace,
    parse_traceparent,
    read_requests,
)
from repro.service.admission import AdmissionController
from repro.service.daemon import BenchDaemon
from repro.service.loadgen import run_loadgen
from repro.service.state import ServiceState, normalize_request

from .conftest import get_json, post_request


class TestTracePropagation:
    def test_response_carries_deterministic_traceparent(self, daemon):
        status, doc, headers = post_request(
            daemon.url, {"request_id": "t-1", "command": "table4"}
        )
        assert status == 200
        minted = mint_trace("t-1", doc["digest"])
        assert doc["trace_id"] == minted.trace_id
        assert doc["span_id"] == minted.span_id
        header = {k.lower(): v for k, v in headers.items()}[
            TRACEPARENT_HEADER
        ]
        assert parse_traceparent(header) == minted

    def test_terminal_record_has_trace_and_phases(self, daemon):
        _, doc, _ = post_request(
            daemon.url, {"request_id": "t-2", "command": "table1"}
        )
        assert doc["status"] == "done"
        # The terminal record is written before its own serialization
        # completes, so it carries every phase but "serialize"; the
        # full set (serialize included) lands in requests.ndjson.
        assert set(doc["phases"]) == {
            "parse", "admission", "queue", "cache", "execute"
        }
        assert all(v >= 0 for v in doc["phases"].values())
        assert len(doc["trace_id"]) == 32
        records = read_requests(daemon.state.requests_stream_path)
        span = next(r for r in records if r["request"] == "t-2")
        assert "serialize" in span["phases"]

    def test_warm_replay_echoes_original_trace(self, daemon):
        _, cold, _ = post_request(
            daemon.url, {"request_id": "t-3", "command": "table5"}
        )
        _, warm, headers = post_request(
            daemon.url, {"request_id": "t-3", "command": "table5"}
        )
        assert warm["trace_id"] == cold["trace_id"]
        header = {k.lower(): v for k, v in headers.items()}[
            TRACEPARENT_HEADER
        ]
        assert parse_traceparent(header).trace_id == cold["trace_id"]

    def test_trace_ids_identical_serial_vs_parallel(self, tmp_path):
        """The acceptance drill: a request's trace id is a pure function
        of its content — worker count must not leak into it."""
        docs = {}
        for workers in (1, 4):
            d = BenchDaemon(tmp_path / f"w{workers}", workers=workers)
            d.start()
            try:
                _, doc, _ = post_request(
                    d.url, {"request_id": "det-1", "command": "fig1"}
                )
            finally:
                d.stop(timeout_s=10.0)
            docs[workers] = doc
        assert docs[1]["trace_id"] == docs[4]["trace_id"]
        assert docs[1]["span_id"] == docs[4]["span_id"]

    def test_trace_id_survives_journal_replay(self, tmp_path):
        """A recovered (journal-replayed) request carries the same trace
        id the original accept minted — crash recovery does not re-roll
        identity."""
        root = tmp_path / "state"
        state = ServiceState(root)
        body = normalize_request({"command": "table1"})
        state.journal_accepted("replay-1", "default", body)
        from repro.service.state import request_digest

        minted = mint_trace("replay-1", request_digest(body))
        daemon = BenchDaemon(root, workers=1)
        daemon.start()
        try:
            from .conftest import wait_for_done

            doc = wait_for_done(daemon.url, "replay-1")
        finally:
            daemon.stop(timeout_s=10.0)
        assert doc["status"] == "done"
        assert doc["trace_id"] == minted.trace_id


class TestRequestStream:
    def test_span_logged_per_terminal_request(self, daemon):
        _, doc, _ = post_request(
            daemon.url, {"request_id": "s-1", "command": "table4"}
        )
        post_request(daemon.url, {"request_id": "s-2", "command": "table4"})
        records = read_requests(daemon.state.requests_stream_path)
        spans = [r for r in records if r["type"] == "request-span"]
        assert [s["request"] for s in spans] == ["s-1", "s-2"]
        # The logged span joins the client's trace.
        minted = mint_trace("s-1", doc["digest"])
        assert spans[0]["trace_id"] == minted.trace_id
        assert spans[0]["cached"] is False
        assert spans[1]["cached"] is True
        assert spans[0]["endpoint"] == "bench:table4"
        assert spans[0]["latency_s"] > 0

    def test_shed_logged_with_reason(self, tmp_path):
        daemon = BenchDaemon(
            tmp_path / "s",
            workers=1,
            admission=AdmissionController(
                bucket_capacity=1, bucket_rate=0.001
            ),
        )
        daemon.start()
        try:
            post_request(
                daemon.url,
                {"request_id": "ok-1", "command": "table4",
                 "tenant": "alpha"},
            )
            status, doc, _ = post_request(
                daemon.url,
                {"request_id": "no-1", "command": "table1",
                 "tenant": "alpha"},
                wait=False,
            )
            assert status == 429
            assert doc["trace_id"]
        finally:
            daemon.stop(timeout_s=10.0)
        sheds = [
            r
            for r in read_requests(daemon.state.requests_stream_path)
            if r["type"] == "request-shed"
        ]
        assert len(sheds) == 1
        assert sheds[0]["request"] == "no-1"
        assert sheds[0]["tenant"] == "alpha"


class TestRedSloSurfaces:
    def test_metrics_scrape_is_openmetrics(self, daemon):
        post_request(daemon.url, {"request_id": "m-1", "command": "table4"})
        import urllib.request

        with urllib.request.urlopen(
            daemon.url + "/metrics", timeout=30
        ) as resp:
            assert resp.status == 200
            assert "openmetrics" in resp.headers["Content-Type"]
            text = resp.read().decode()
        assert "service_request_latency" in text
        assert "service_request_count" in text
        assert text.rstrip().endswith("# EOF")

    def test_healthz_embeds_slo_snapshot(self, daemon):
        post_request(daemon.url, {"request_id": "h-1", "command": "table4"})
        status, doc = get_json(daemon.url, "/healthz")
        assert status == 200
        slo = doc["slo"]
        assert slo["total"] >= 1
        assert slo["status"] in ("ok", "burning")
        assert set(slo["windows"]) == {"60s", "300s", "3600s"}
        for window in slo["windows"].values():
            assert {"total", "good", "error_rate", "burn_rate"} <= set(
                window
            )

    def test_board_document_shape(self, daemon):
        post_request(
            daemon.url,
            {"request_id": "b-1", "command": "table4", "tenant": "alpha"},
        )
        status, board = get_json(daemon.url, "/board")
        assert status == 200
        assert board["draining"] is False
        tenant = board["tenants"]["alpha"]
        assert tenant["requests"] == 1
        assert tenant["errors"] == 0
        assert tenant["p99_s"] > 0
        assert tenant["slo"]["total"] == 1
        assert board["phases"]["execute"]["count"] == 1
        assert board["slo"]["status"] == "ok"

    def test_custom_slo_objective_flows_through(self, tmp_path):
        from repro.obs.requests import SLOConfig

        daemon = BenchDaemon(
            tmp_path / "s",
            workers=1,
            slo=SLOConfig(latency_s=2.0, availability=0.95),
        )
        daemon.start()
        try:
            _, doc = get_json(daemon.url, "/healthz")
        finally:
            daemon.stop(timeout_s=10.0)
        assert doc["slo"]["objective"] == {
            "latency_s": 2.0, "availability": 0.95
        }


class TestDeadlineOutcome:
    def test_expired_request_is_distinct_outcome(self, daemon):
        status, doc, _ = post_request(
            daemon.url,
            {"request_id": "d-1", "command": "table4",
             "deadline_s": 1e-9},
        )
        assert status == 200
        assert doc["status"] == "failed"
        assert doc["reason"] == "deadline-expired"

    def test_loadgen_reports_expired_distinctly(self, daemon):
        host, port = daemon.server.server_address[:2]
        report = run_loadgen(
            host, port, requests=4, concurrency=2, distinct=1, seed=3,
            deadline_s=1e-9,
        )
        assert report.errors == []
        outcomes = report.to_dict()["outcomes"]
        assert outcomes.get("expired", 0) == 4
        assert "failed" not in outcomes

    def test_expired_requests_do_not_replay_on_recovery(self, tmp_path):
        """Deadline expiry must be terminal: a restart over the state
        directory finds nothing to replay."""
        root = tmp_path / "state"
        daemon = BenchDaemon(root, workers=1)
        daemon.start()
        try:
            post_request(
                daemon.url,
                {"request_id": "d-2", "command": "table4",
                 "deadline_s": 1e-9},
            )
        finally:
            daemon.stop(timeout_s=10.0)
        assert ServiceState(root).recover() == []


class TestServiceWatch:
    def test_offline_board_folds_stream(self, tmp_path):
        root = tmp_path / "state"
        daemon = BenchDaemon(root, workers=2)
        daemon.start()
        try:
            post_request(
                daemon.url,
                {"request_id": "w-1", "command": "table4",
                 "tenant": "alpha"},
            )
            post_request(
                daemon.url,
                {"request_id": "w-2", "command": "table4",
                 "tenant": "alpha"},
            )
        finally:
            daemon.stop(timeout_s=10.0)
        from repro.obs.watch import load_service_board, render_service_board

        board = load_service_board(root)
        assert board["tenants"]["alpha"]["requests"] == 2
        assert board["cache"]["hits"] == 1
        text = render_service_board(board, source=str(root))
        assert "alpha" in text
        assert "slo" in text
        assert "execute" in text

    def test_live_board_scrape_matches_daemon(self, daemon):
        post_request(
            daemon.url,
            {"request_id": "w-3", "command": "table4", "tenant": "beta"},
        )
        from repro.obs.watch import _scrape_board

        host, port = daemon.server.server_address[:2]
        board = _scrape_board(host, port)
        assert board["tenants"]["beta"]["requests"] == 1
        assert board["tenants"]["beta"]["tokens"] is not None

    def test_watch_cli_once_renders(self, tmp_path, capsys):
        root = tmp_path / "state"
        daemon = BenchDaemon(root, workers=1)
        daemon.start()
        try:
            post_request(
                daemon.url, {"request_id": "w-4", "command": "table1"}
            )
        finally:
            daemon.stop(timeout_s=10.0)
        from repro.cli import main

        assert main(["service", "watch", str(root), "--once"]) == 0
        out = capsys.readouterr().out
        assert "service board" in out
        assert "default" in out
