"""Open-loop HTTP load: requests sent on a fixed schedule, not on replies.

Independent users do not wait for each other, so each request has a due
time fixed in advance, and its latency runs from that due time to the
end of its response.  A stall therefore shows in every request that
was due during it, not only in the one that hit it; the generator's own
lateness (sent minus due) is recorded beside it.

The generator is one process with :data:`CLIENTS` threads.  Each thread
takes the next due request, sleeps until it is due, and sends it on a
fresh connection (as a command-line client would), so at most
:data:`CLIENTS` connections are open at once.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from dataclasses import dataclass, field

__all__ = ["CLIENTS", "Outcome", "run_schedule", "send_one"]

#: Client threads, and so the most connections open at once.
CLIENTS = 2


@dataclass
class Outcome:
    """One request's timing (``time.monotonic_ns``) and result."""

    index: int
    due: int
    sent: int = 0
    done: int = 0
    http: int = 0
    status: str = ""
    trace_id: str = ""
    text_sha256: str = ""
    error: str = ""
    body: dict = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        return (self.done - self.due) / 1e9

    @property
    def lag_s(self) -> float:
        return (self.sent - self.due) / 1e9


def send_one(host: str, port: int, out: Outcome, timeout_s: float) -> None:
    """POST ``out.body`` and wait for its terminal record; fills *out*."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        out.sent = time.monotonic_ns()
        conn.request(
            "POST",
            "/v1/requests?wait=1",
            body=json.dumps(out.body),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        raw = resp.read()
        out.done = time.monotonic_ns()
        out.http = resp.status
        doc = json.loads(raw)
        out.status = doc.get("status", "")
        out.trace_id = doc.get("trace_id", "")
        text = doc.get("text")
        if isinstance(text, str):
            out.text_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        out.done = out.done or time.monotonic_ns()
        out.error = f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()


def run_schedule(
    host: str,
    port: int,
    schedule: list[tuple[int, dict]],
    timeout_s: float = 30.0,
    clients: int = CLIENTS,
    send=send_one,
) -> list[Outcome]:
    """Send each ``(due_ns, body)`` at its due time; one Outcome each.

    *send* performs one request (a test substitutes a fake server).
    """
    outcomes = [Outcome(index=i, due=due, body=body)
                for i, (due, body) in enumerate(schedule)]
    lock = threading.Lock()
    cursor = iter(outcomes)

    def client() -> None:
        while True:
            with lock:
                out = next(cursor, None)
            if out is None:
                return
            wait_ns = out.due - time.monotonic_ns()
            if wait_ns > 0:
                time.sleep(wait_ns / 1e9)
            send(host, port, out, timeout_s)

    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes
