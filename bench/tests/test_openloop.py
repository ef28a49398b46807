import threading
import time

import openloop

STALL_S = 0.3
SPACING_NS = 10_000_000


class StallingServer:
    """A fake server that serves one request at a time and stalls once."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.active = 0
        self.most_active = 0
        self.stall_end = 0

    def send(self, host, port, out, timeout_s):
        with self.lock:
            self.active += 1
            self.most_active = max(self.most_active, self.active)
        out.sent = time.monotonic_ns()
        with self.lock:
            if out.index == 0:
                time.sleep(STALL_S)
                self.stall_end = time.monotonic_ns()
            else:
                time.sleep(0.001)
            out.done = time.monotonic_ns()
            out.http, out.status = 200, "done"
            self.active -= 1


def test_requests_due_during_a_stall_carry_it():
    server = StallingServer()
    t0 = time.monotonic_ns() + 20_000_000
    schedule = [(t0 + i * SPACING_NS, {"i": i}) for i in range(20)]
    outcomes = openloop.run_schedule("h", 0, schedule, send=server.send)
    assert [o.index for o in outcomes] == list(range(20))
    assert server.most_active <= openloop.CLIENTS
    due_in_stall = [o for o in outcomes[1:] if o.due < server.stall_end]
    assert len(due_in_stall) >= 15
    for out in due_in_stall:
        # Timed from its due time, each request owes the rest of the stall.
        assert out.latency_s >= (server.stall_end - out.due) / 1e9
    # The generator ran late while both clients were blocked.
    assert max(o.lag_s for o in outcomes) > STALL_S / 2
    # A request timed from when it was sent would hide the stall.
    tail = outcomes[-1]
    assert (tail.done - tail.sent) / 1e9 < 0.05 < tail.latency_s


def test_requests_are_not_sent_before_they_are_due():
    sent = []

    def send(host, port, out, timeout_s):
        out.sent = out.done = time.monotonic_ns()
        sent.append(out)

    t0 = time.monotonic_ns() + 20_000_000
    outcomes = openloop.run_schedule(
        "h", 0, [(t0 + i * SPACING_NS, {}) for i in range(5)], send=send)
    assert len(sent) == 5
    assert all(o.sent >= o.due for o in outcomes)
