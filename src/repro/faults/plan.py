"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` is an immutable schedule of :class:`FaultEvent`\\ s
built once per (scenario, seed, node) triple.  Two trigger mechanisms
cover every fault class:

* **tick events** fire when the suite's repetition clock reaches ``at``
  (device loss, plane outage, link degradation/cuts, DVFS excursions);
* **stream events** fire when the ``at``-th operation of a named stream
  happens (kernel launches, USM allocations, MPI job launches, MPI sends).

Both clocks are advanced only by the code paths that consume them, so the
same ``(scenario, seed)`` always produces the same fault sequence — and a
retried operation advances the stream counter, which is what lets a
*transient* fault clear on retry.

All randomness comes from :class:`SeededDraw`, a SHA-256 counter generator
(the same construction as :mod:`repro.sim.noise`), so schedules are stable
across processes, platforms and Python hash randomisation.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultClock", "SeededDraw"]


class FaultKind(enum.Enum):
    """Fault classes, each tagged with the clock stream that triggers it.

    ``stream`` is ``None`` for tick-driven events.
    """

    DEVICE_LOSS = ("device-loss", None)
    PLANE_OUTAGE = ("plane-outage", None)
    LINK_DEGRADE = ("link-degrade", None)
    LINK_CUT = ("link-cut", None)
    DVFS_THROTTLE = ("dvfs-throttle", None)
    KERNEL_TRANSIENT = ("kernel-transient", "kernel")
    ALLOC_FAIL = ("alloc-fail", "alloc")
    MPI_HANG = ("mpi-hang", "mpi-run")
    MPI_CORRUPT = ("mpi-corrupt", "mpi-send")

    def __init__(self, label: str, stream: str | None) -> None:
        self.label = label
        self.stream = stream


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is a tick index (tick events) or a 1-based operation index on
    the kind's stream (stream events).  ``target`` identifies what is hit
    (a :class:`~repro.hw.ids.StackRef`, a plane index, a link endpoint
    pair, or a rank seed) and ``magnitude`` carries a factor where one is
    meaningful (link health, clock ratio).
    """

    kind: FaultKind
    at: int
    target: object = None
    magnitude: float | None = None

    def describe(self) -> str:
        parts = [self.kind.label]
        if self.target is not None:
            parts.append(str(self.target))
        if self.magnitude is not None:
            parts.append(f"x{self.magnitude:g}")
        where = "op" if self.kind.stream else "tick"
        parts.append(f"@{where} {self.at}")
        return " ".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """The full deterministic fault schedule for one run on one system."""

    scenario: str
    seed: int
    events: tuple[FaultEvent, ...] = ()

    def tick_events(self) -> list[FaultEvent]:
        return sorted(
            (e for e in self.events if e.kind.stream is None),
            key=lambda e: (e.at, e.kind.label, str(e.target)),
        )

    def stream_events(self) -> dict[str, dict[int, FaultEvent]]:
        """``{stream: {op_index: event}}`` for the counter-driven faults."""
        out: dict[str, dict[int, FaultEvent]] = {}
        for e in self.events:
            if e.kind.stream is not None:
                out.setdefault(e.kind.stream, {})[e.at] = e
        return out

    def describe(self) -> str:
        head = f"scenario {self.scenario!r} seed {self.seed}"
        if not self.events:
            return f"{head}: no events"
        body = "; ".join(e.describe() for e in self.events)
        return f"{head}: {body}"


class FaultClock:
    """Monotonic counters driving a plan's triggers.

    ``tick()`` advances the suite-level repetition clock; ``advance(s)``
    advances a named operation stream.  The clock is owned by the injector
    and never rewinds, which makes replays byte-identical.
    """

    def __init__(self) -> None:
        self._tick = 0
        self._streams: dict[str, int] = {}

    @property
    def now(self) -> int:
        return self._tick

    def tick(self) -> int:
        self._tick += 1
        return self._tick

    def advance(self, stream: str) -> int:
        count = self._streams.get(stream, 0) + 1
        self._streams[stream] = count
        return count

    def count(self, stream: str) -> int:
        return self._streams.get(stream, 0)


class SeededDraw:
    """SHA-256-based deterministic draws, keyed like the noise model."""

    def __init__(self, seed: int, namespace: str) -> None:
        self.seed = seed
        self.namespace = namespace

    def unit(self, *key: object) -> float:
        """A stable uniform sample in [0, 1) for (seed, namespace, key)."""
        text = f"{self.seed}|{self.namespace}|" + "|".join(map(str, key))
        digest = hashlib.sha256(text.encode()).digest()
        (word,) = struct.unpack_from("<Q", digest)
        return word / 2**64

    def randint(self, lo: int, hi: int, *key: object) -> int:
        """A stable integer in [lo, hi)."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + int(self.unit(*key) * (hi - lo))

    def choice(self, seq: Sequence, *key: object):
        return seq[self.randint(0, len(seq), *key)]

    def distinct_ints(self, n: int, lo: int, hi: int, *key: object) -> list[int]:
        """Up to *n* distinct integers in [lo, hi), in ascending order."""
        out: set[int] = set()
        for i in range(8 * n):
            out.add(self.randint(lo, hi, *key, i))
            if len(out) >= n:
                break
        return sorted(out)
