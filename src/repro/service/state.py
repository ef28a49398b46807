"""Durable request state for the benchmark daemon.

Everything the daemon must not lose across a SIGKILL lives under one
state directory::

    queue.jsonl            sealed request-lifecycle journal
    requests/<rid>.json    one terminal record per request id
    cache/                 the MemoStore of request results
    campaigns/<digest>/    campaign run dirs (journal, store, tables)
    live.ndjson            service live events (repro.obs schema)
    requests.ndjson        request lifecycle spans (repro.obs.requests)

The **queue journal** is the write-ahead log of the admission queue:
``accepted`` (full request document) when a request passes admission,
``done`` (status + result digest) when its terminal record has been
persisted.  Recovery is a replay: every accepted-but-not-done request
re-enters the executor queue on restart, in acceptance order — which
is exactly what makes a mid-request SIGKILL invisible to a retrying
client.  Records are sealed with the shared checksum scheme and the
reader tolerates a torn tail, so a crash mid-append costs at most the
record being appended (whose request the client will retry, and whose
side effects are idempotent).

**Idempotency** is two-layered:

* *request id* — the client's retry key.  A replayed id returns the
  original terminal record (or attaches to the in-flight execution)
  instead of re-running.
* *content digest* — :func:`repro.sim.memo.content_digest` of the
  normalized request body (id and tenant excluded).  Distinct ids with
  identical content share one cache entry and, for campaigns, one run
  directory — the resume path turns a re-run into a verify-and-skip.
"""

from __future__ import annotations

import json
import os
import re
import threading

from ..ioutils import (
    atomic_write_json,
    atomic_write_text,
    fsync_append_text,
    read_sealed_ndjson,
    seal_record,
)
from ..sim.memo import content_digest
from ..sim.memostore import MemoStore

__all__ = ["ServiceState", "normalize_request", "request_digest"]

#: Queue journal schema version.
QUEUE_VERSION = 1

#: Operations a queue record may carry.
QUEUE_OPS = ("accepted", "done")

#: Request kinds the daemon executes.
REQUEST_KINDS = ("bench", "campaign")

_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _valid_queue_record(doc: dict) -> bool:
    return (
        doc.get("v") == QUEUE_VERSION
        and doc.get("op") in QUEUE_OPS
        and isinstance(doc.get("request_id"), str)
    )


def _coerce(value, convert, field: str, default):
    """Coerce a JSON field, mapping every failure to :class:`ValueError`.

    ``int({})``/``float(None)`` raise ``TypeError``, not ``ValueError``
    — without this shim a body like ``{"seed": null}`` would escape the
    daemon's 400 mapping as a traceback.
    """
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{field} must be a {convert.__name__}, got {value!r}"
        ) from None


def normalize_request(doc: dict) -> dict:
    """The canonical request body (identity fields only, defaults filled).

    Raises :class:`ValueError` on a malformed request — the daemon maps
    that to a 400, never a traceback.
    """
    if not isinstance(doc, dict):
        raise ValueError("request body must be a JSON object")
    kind = doc.get("kind", "bench")
    if kind not in REQUEST_KINDS:
        raise ValueError(
            f"unknown request kind {kind!r}; choose from: "
            + ", ".join(REQUEST_KINDS)
        )
    body = {
        "kind": kind,
        "scenario": doc.get("scenario"),
        "seed": _coerce(doc.get("seed"), int, "seed", 0),
        "deadline_s": (
            _coerce(doc["deadline_s"], float, "deadline_s", None)
            if doc.get("deadline_s")
            else None
        ),
    }
    if body["scenario"] is not None and not isinstance(body["scenario"], str):
        raise ValueError("scenario must be a string or null")
    if kind == "bench":
        command = doc.get("command")
        if not isinstance(command, str) or not command:
            raise ValueError("bench requests need a 'command'")
        body["command"] = command
    else:
        spec = doc.get("spec", "smoke")
        if not isinstance(spec, str) or not spec:
            raise ValueError("campaign requests need a 'spec'")
        body["spec"] = spec
        body["jobs"] = _coerce(doc.get("jobs"), int, "jobs", 1)
    return body


def request_digest(body: dict) -> str:
    """Content address of a normalized request body."""
    return content_digest(normalize_request(body))


class ServiceState:
    """One daemon's durable footprint (crash-safe by construction)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.requests_dir, exist_ok=True)
        self._lock = threading.Lock()
        self.cache = MemoStore(self.cache_dir)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def queue_path(self) -> str:
        return os.path.join(self.root, "queue.jsonl")

    @property
    def requests_dir(self) -> str:
        return os.path.join(self.root, "requests")

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.root, "cache")

    @property
    def campaigns_dir(self) -> str:
        return os.path.join(self.root, "campaigns")

    @property
    def requests_stream_path(self) -> str:
        """The request lifecycle stream (``repro.obs.requests`` schema)."""
        from ..obs.requests import REQUESTS_FILE

        return os.path.join(self.root, REQUESTS_FILE)

    def record_path(self, request_id: str) -> str:
        return os.path.join(
            self.requests_dir, _SAFE.sub("_", request_id) + ".json"
        )

    def campaign_dir(self, digest: str) -> str:
        return os.path.join(self.campaigns_dir, digest[:16])

    # ------------------------------------------------------------------
    # queue journal
    # ------------------------------------------------------------------

    def journal_accepted(self, request_id: str, tenant: str, body: dict) -> None:
        self._append(
            {
                "v": QUEUE_VERSION,
                "op": "accepted",
                "request_id": request_id,
                "tenant": tenant,
                "request": body,
            }
        )

    def journal_done(self, request_id: str, status: str, digest: str) -> None:
        self._append(
            {
                "v": QUEUE_VERSION,
                "op": "done",
                "request_id": request_id,
                "status": status,
                "digest": digest,
            }
        )

    def _append(self, body: dict) -> None:
        rec = seal_record(body)
        with self._lock:
            fsync_append_text(
                self.queue_path, json.dumps(rec, sort_keys=True) + "\n"
            )

    def read_queue(self) -> tuple[list[dict], int]:
        return read_sealed_ndjson(self.queue_path, accept=_valid_queue_record)

    # ------------------------------------------------------------------
    # terminal records
    # ------------------------------------------------------------------

    def write_record(self, request_id: str, record: dict) -> None:
        atomic_write_json(self.record_path(request_id), record)

    def load_record(self, request_id: str) -> dict | None:
        path = self.record_path(request_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self) -> list[dict]:
        """Accepted-but-unfinished requests, in acceptance order.

        Compacts the queue journal while at it: one atomic rewrite
        holding only the surviving ``accepted`` records, so a
        long-running daemon's journal is bounded by its backlog, not
        its history.  A request whose terminal record exists on disk
        but whose ``done`` append was lost to the crash counts as done
        (the record is the truth; the journal is the intent log).
        """
        records, _dropped = self.read_queue()
        pending: dict[str, dict] = {}
        for rec in records:
            if rec["op"] == "accepted":
                pending[rec["request_id"]] = {
                    "request_id": rec["request_id"],
                    "tenant": rec.get("tenant", "default"),
                    "request": rec.get("request", {}),
                }
            else:
                pending.pop(rec["request_id"], None)
        survivors = [
            item
            for item in pending.values()
            if (self.load_record(item["request_id"]) or {}).get("status")
            not in ("done", "failed")
        ]
        with self._lock:
            lines = []
            for item in survivors:
                rec = seal_record(
                    {
                        "v": QUEUE_VERSION,
                        "op": "accepted",
                        "request_id": item["request_id"],
                        "tenant": item["tenant"],
                        "request": item["request"],
                    }
                )
                lines.append(json.dumps(rec, sort_keys=True) + "\n")
            atomic_write_text(self.queue_path, "".join(lines))
        return survivors
