"""Span tracing over the simulated clock.

Profiling on the real systems (unitrace / iprof / nsys) produces
per-queue timelines; this module gives simulated runs the same
observability.  A :class:`Tracer` collects events on named **lanes**
(one lane per SYCL queue, MPI rank, or run-level timeline) and exports
the standard ``chrome://tracing`` JSON (``trace_event`` format),
loadable in Perfetto.

Three event shapes:

* **complete** ("X") — a named interval with a start and duration;
* **instant** ("i") — a zero-duration marker (injected faults, poison
  events, scope clips);
* **span** — a complete event produced by the :meth:`Tracer.span`
  context manager, whose duration is however much simulated time the
  lane's clock advanced while the span was open (so spans nest).

Every lane owns a monotonically advancing cursor in simulated
microseconds; recording an event moves the cursor to the event's end.
Export is fully deterministic: lanes are ordered by their registered
sort key (rank, then queue index — not first-event order), events
within a lane are sorted by timestamp, and ``thread_name`` metadata
events label the lanes in Perfetto.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["TraceEvent", "Lane", "Tracer", "INSTANT", "COMPLETE"]

#: Chrome trace-event phases used here.
COMPLETE = "X"
INSTANT = "i"

#: Default sort key group for lanes registered implicitly (sorts after
#: the run/rank/queue groups that register explicit keys).
_DEFAULT_GROUP = 9


@dataclass(frozen=True, slots=True)
class Lane:
    """A timeline row: one queue, rank, or logical actor.

    ``sort_key`` decides the Perfetto ``tid`` ordering: lanes sort by
    ``(sort_key, name)`` regardless of which lane recorded first, so the
    export is independent of event insertion order across ranks.
    """

    name: str
    sort_key: tuple[int, int, int] = (_DEFAULT_GROUP, 0, 0)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One event on the simulated timeline."""

    name: str
    lane: str
    start_us: float
    duration_us: float = 0.0
    phase: str = COMPLETE
    category: str = "kernel"
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError("negative event duration")
        if self.phase not in (COMPLETE, INSTANT):
            raise ValueError(f"unsupported trace phase {self.phase!r}")

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    def to_chrome(self, tid: int) -> dict:
        doc = {
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "ts": self.start_us,
            "pid": 0,
            "tid": tid,
            "args": dict(self.args),
        }
        if self.phase == COMPLETE:
            doc["dur"] = self.duration_us
        else:
            doc["s"] = "t"  # thread-scoped instant marker
        return doc


def _event_order(event: TraceEvent) -> tuple:
    """Total order for events within a lane.

    Sorting by the full content keeps the export byte-identical however
    the events were recorded; fault instants can land on any lane.
    """
    return (
        event.start_us,
        event.duration_us,
        event.phase,
        event.name,
        event.category,
        json.dumps(event.args, sort_keys=True, default=str),
    )


class Tracer:
    """Collects trace events and exports deterministic Perfetto JSON."""

    def __init__(self) -> None:
        self._lanes: dict[str, Lane] = {}
        self._events: list[TraceEvent] = []
        self._cursor: dict[str, float] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lanes and clocks
    # ------------------------------------------------------------------

    def lane(
        self, name: str, sort_key: tuple[int, int, int] | None = None
    ) -> str:
        """Register (or re-register with a better sort key) a lane."""
        with self._lock:
            known = self._lanes.get(name)
            if known is None or sort_key is not None:
                self._lanes[name] = Lane(
                    name, sort_key if sort_key is not None else
                    (known.sort_key if known else (_DEFAULT_GROUP, 0, 0))
                )
            self._cursor.setdefault(name, 0.0)
        return name

    def lanes(self) -> list[str]:
        """Lane names in deterministic export order."""
        return [lane.name for lane in self._ordered_lanes()]

    def _ordered_lanes(self) -> list[Lane]:
        return sorted(
            self._lanes.values(), key=lambda l: (l.sort_key, l.name)
        )

    def now_us(self, lane: str) -> float:
        """The lane's cursor: end of the latest work recorded on it."""
        return self._cursor.get(lane, 0.0)

    def advance(self, lane: str, duration_us: float) -> None:
        """Move a lane's cursor without recording an event (idle gaps)."""
        if duration_us < 0:
            raise ValueError("cannot advance a lane backwards")
        self.lane(lane)
        with self._lock:
            self._cursor[lane] += duration_us

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(self, event: TraceEvent) -> None:
        self.lane(event.lane)
        with self._lock:
            self._events.append(event)
            if event.end_us > self._cursor[event.lane]:
                self._cursor[event.lane] = event.end_us

    def complete(
        self,
        name: str,
        lane: str,
        duration_us: float,
        *,
        start_us: float | None = None,
        category: str = "kernel",
        **args,
    ) -> TraceEvent:
        """Record a complete event; defaults to starting at the cursor."""
        if start_us is None:
            start_us = self.now_us(lane)
        event = TraceEvent(
            name=name,
            lane=lane,
            start_us=start_us,
            duration_us=duration_us,
            category=category,
            args=args,
        )
        self.record(event)
        return event

    def instant(
        self,
        name: str,
        lane: str,
        *,
        ts_us: float | None = None,
        category: str = "fault",
        **args,
    ) -> TraceEvent:
        """Record a zero-duration marker (defaults to the lane cursor)."""
        event = TraceEvent(
            name=name,
            lane=lane,
            start_us=ts_us if ts_us is not None else self.now_us(lane),
            phase=INSTANT,
            category=category,
            args=args,
        )
        self.record(event)
        return event

    @contextmanager
    def span(
        self, name: str, lane: str = "run", *, category: str = "span", **attrs
    ) -> Iterator[None]:
        """A nested span: duration = simulated time the lane advanced.

        ::

            with tracer.span("gemm.run", lane="run", precision="fp64"):
                ...  # record child events / advance the lane
        """
        self.lane(lane)
        start = self.now_us(lane)
        try:
            yield
        finally:
            end = max(self.now_us(lane), start)
            self.record(
                TraceEvent(
                    name=name,
                    lane=lane,
                    start_us=start,
                    duration_us=end - start,
                    category=category,
                    args=attrs,
                )
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def events_on(self, lane: str) -> list[TraceEvent]:
        return sorted(
            (e for e in self.events if e.lane == lane), key=_event_order
        )

    def n_spans(self) -> int:
        """Complete (interval) events recorded so far."""
        return sum(1 for e in self.events if e.phase == COMPLETE)

    def n_instants(self, category: str | None = None) -> int:
        return sum(
            1
            for e in self.events
            if e.phase == INSTANT
            and (category is None or e.category == category)
        )

    def total_busy_us(self, lane: str) -> float:
        """Busy time on a lane, excluding span envelopes (which would
        double-count the child events they contain)."""
        return sum(
            e.duration_us
            for e in self.events
            if e.lane == lane and e.phase == COMPLETE and e.category != "span"
        )

    def span_us(self) -> float:
        """End-to-end simulated span across all lanes."""
        events = self.events
        if not events:
            return 0.0
        start = min(e.start_us for e in events)
        end = max(e.end_us for e in events)
        return end - start

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The chrome://tracing document as a plain dict.

        Lane ``tid`` assignment follows the registered sort keys — not
        first-event order — so exports are identical whichever lane
        recorded first.  ``thread_name`` metadata events label the lanes.
        """
        lanes = self._ordered_lanes()
        tid_of = {lane.name: i for i, lane in enumerate(lanes)}
        trace_events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "args": {"name": "repro simulated node"},
            }
        ]
        for lane in lanes:
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid_of[lane.name],
                    "args": {"name": lane.name},
                }
            )
            trace_events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid_of[lane.name],
                    "args": {"sort_index": tid_of[lane.name]},
                }
            )
        events = self.events
        for lane in lanes:
            mine = sorted(
                (e for e in events if e.lane == lane.name), key=_event_order
            )
            trace_events.extend(e.to_chrome(tid_of[lane.name]) for e in mine)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def export_json(self) -> str:
        """Deterministic (byte-stable) Perfetto-loadable JSON."""
        return json.dumps(self.to_chrome(), indent=2, sort_keys=True)
