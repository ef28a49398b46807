"""``pvc-bench health`` section for the benchmark service.

An in-process end-to-end drill over an ephemeral state directory: boot
a real daemon on a loopback port, round-trip a request through HTTP,
prove the cache serves a byte-identical warm replay, corrupt the
cached object on disk and prove the read quarantines-and-recomputes
instead of crashing, then drain gracefully.  Everything runs in a few
hundred milliseconds and touches only a temp directory, so it is safe
for the health command's repeated invocation.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import urllib.error
import urllib.request

from ..hw.selfcheck import CheckResult

__all__ = ["service_selfcheck"]

_TIMEOUT_S = 30.0


def _post(url: str, doc: dict) -> tuple[int, dict, dict]:
    req = urllib.request.Request(
        url + "/v1/requests?wait=1",
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=_TIMEOUT_S) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers or {})


def _get(url: str, path: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url + path, timeout=_TIMEOUT_S) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def service_selfcheck() -> list[CheckResult]:
    """Run the four service drills against a throwaway daemon.

    Boots a real :class:`~repro.service.daemon.BenchDaemon` on an
    ephemeral port over a temp state directory and checks, in order:
    a cold request round-trips to ``done``; a second request with the
    same content is served byte-identically from the result cache; a
    corrupted cache object is quarantined and recomputed rather than
    crashing the request; and shutdown drains cleanly.  Returns one
    :class:`~repro.hw.selfcheck.CheckResult` per drill — the same
    shape every other ``pvc-bench health`` section reports.
    """
    from .daemon import BenchDaemon

    checks: list[CheckResult] = []
    root = tempfile.mkdtemp(prefix="repro-service-check-")
    daemon = None
    try:
        daemon = BenchDaemon(root, workers=1)
        daemon.start()
        url = daemon.url

        status, doc, headers = _post(
            url, {"request_id": "health-1", "command": "table4"}
        )
        cold_ok = status == 200 and doc.get("status") == "done"
        checks.append(
            CheckResult(
                "daemon round-trip",
                cold_ok,
                f"POST /v1/requests -> {status} {doc.get('status')!r}",
            )
        )
        cold_text = doc.get("text", "")

        status, warm, _ = _post(
            url, {"request_id": "health-2", "command": "table4"}
        )
        warm_ok = (
            status == 200
            and warm.get("cached") is True
            and warm.get("text") == cold_text
        )
        checks.append(
            CheckResult(
                "cache read-back",
                warm_ok,
                "warm replay byte-identical"
                if warm_ok
                else f"cached={warm.get('cached')!r}",
            )
        )

        # Corrupt the cached object in place; the next read must
        # quarantine it and recompute the identical answer.
        digest = warm.get("digest", "")
        path = daemon.state.cache.object_path(digest)
        try:
            with open(path, "r+", encoding="utf-8") as fh:
                fh.seek(0)
                fh.write("garbage")
        except OSError:
            pass
        status, healed, _ = _post(
            url, {"request_id": "health-3", "command": "table4"}
        )
        quarantined = daemon.state.cache.stats()["quarantined"]
        healed_ok = (
            status == 200
            and healed.get("status") == "done"
            and healed.get("text") == cold_text
            and quarantined >= 1
        )
        checks.append(
            CheckResult(
                "corruption quarantine",
                healed_ok,
                f"{quarantined} quarantined, recompute byte-identical"
                if healed_ok
                else f"status={status} quarantined={quarantined}",
            )
        )

        # Trace propagation: the response header must carry the same
        # deterministic trace id the daemon minted from (request id,
        # content digest), and the span must have landed — schema
        # valid — in requests.ndjson.
        from ..obs.requests import (
            TRACEPARENT_HEADER,
            mint_trace,
            parse_traceparent,
            read_requests,
        )

        minted = mint_trace("health-1", doc.get("digest", ""))
        ctx = parse_traceparent(
            {k.lower(): v for k, v in headers.items()}.get(TRACEPARENT_HEADER)
        )
        spans = [
            rec
            for rec in read_requests(daemon.state.requests_stream_path)
            if rec["type"] == "request-span"
        ]
        span_ids = {rec["trace_id"] for rec in spans}
        trace_ok = (
            doc.get("trace_id") == minted.trace_id
            and ctx is not None
            and ctx.trace_id == minted.trace_id
            and minted.trace_id in span_ids
        )
        checks.append(
            CheckResult(
                "trace propagation",
                trace_ok,
                f"traceparent deterministic, {len(spans)} span(s) logged"
                if trace_ok
                else f"trace_id={doc.get('trace_id')!r} minted={minted.trace_id!r}",
            )
        )

        # SLO + RED surfaces: /healthz carries the burn-rate snapshot
        # and /metrics exposes the request latency histogram.
        status, health_raw = _get(url, "/healthz")
        health_doc = json.loads(health_raw)
        slo = health_doc.get("slo") or {}
        m_status, metrics_raw = _get(url, "/metrics")
        metrics_text = metrics_raw.decode("utf-8", "replace")
        slo_ok = (
            status == 200
            and slo.get("status") in ("ok", "burning")
            and "windows" in slo
            and m_status == 200
            and "service_request_latency" in metrics_text
        )
        checks.append(
            CheckResult(
                "slo + red metrics",
                slo_ok,
                f"slo {slo.get('status')} compliance="
                f"{slo.get('compliance')}, /metrics has RED histograms"
                if slo_ok
                else f"healthz={status} slo={slo.get('status')!r} "
                f"metrics={m_status}",
            )
        )

        drained = daemon.stop(timeout_s=10.0)
        daemon = None
        checks.append(
            CheckResult(
                "graceful drain",
                drained,
                "in-flight finished, handlers joined"
                if drained
                else "drain timed out",
            )
        )
    except Exception as exc:  # noqa: BLE001 - health must not traceback
        checks.append(CheckResult("service drill", False, f"{exc}"))
    finally:
        if daemon is not None:
            try:
                daemon.stop(timeout_s=5.0)
            except Exception:  # noqa: BLE001
                pass
        shutil.rmtree(root, ignore_errors=True)
    return checks
