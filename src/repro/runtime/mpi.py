"""Simulated MPI with explicit scaling (one rank per stack).

The paper's device-to-device benchmark uses "MPICH with Level Zero
support that can transfer GPU buffers using the MPI routines.
Non-blocking routines such as MPI_Isend() and MPI_IRecv() are used"
(Section IV-A.4).  This module provides that API over the simulated node:

* SPMD execution: :meth:`SimMPI.run` calls ``fn(comm)`` once per rank on
  one thread.  A rank program that communicates is a generator and drives
  every blocking call with ``yield from`` (``out = yield from
  comm.Recv(source=0)``); a blocked call yields what it waits for, and
  the scheduler always resumes the lowest-numbered rank that can make
  progress.  A plain function that never blocks works unchanged: its
  return value is the rank's result;
* each rank owns a **virtual clock**; communication advances clocks with
  Lamport-style ``max(local, remote_send + transfer_time)``;
* GPU buffers route through the fabric model (local MDFI pair vs remote
  Xe-Link with plane routing), host payloads through PCIe/DDR;
* collectives (barrier, allreduce, bcast, gather, allgather) use a
  log2(P) tree cost model.

Results, virtual times, traces and profiles are therefore a pure
function of (program, fault plan).  A deadlock — no rank can move and
not all have finished — raises :class:`repro.errors.MPIError` at once,
naming each blocked rank's pending operation.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from types import GeneratorType
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from ..errors import MPIError
from ..hw.ids import StackRef
from ..sim.engine import PerfEngine
from .binding import RankBinding, explicit_scaling_binding

__all__ = [
    "SimMPI", "Communicator", "Request", "Blocking", "SUM", "MAX", "MIN",
]

SUM = "sum"
MAX = "max"
MIN = "min"

_OPS = {SUM: np.add.reduce, MAX: np.maximum.reduce, MIN: np.minimum.reduce}

#: Collective trace labels -> the MPI API name the profiler records.
_COLLECTIVE_API = {
    "barrier": "MPI_Barrier",
    "allreduce": "MPI_Allreduce",
    "bcast": "MPI_Bcast",
    "gather": "MPI_Gather",
    "allgather": "MPI_Allgather",
}


def _host_us(api: str) -> float:
    from ..profiler.core import host_overhead_us

    return host_overhead_us(api)


@dataclass
class _Message:
    payload: np.ndarray
    nbytes: int
    send_vtime: float
    src: int
    #: CRC32 of the payload *as sent* — verified at receive so in-flight
    #: corruption (injected or otherwise) is detected, not consumed.
    checksum: int | None = None
    #: Link time computed once at send; the receiver reuses it (same route,
    #: same cost) instead of re-querying the engine.
    transfer_s: float = 0.0


class _Wait(NamedTuple):
    """What a blocked rank waits for, and whether it can now finish."""

    what: str
    ready: Callable[[], bool]


#: A rank that has not run yet can always start.
_START = _Wait("start", lambda: True)
#: The injected-hang rank: it never runs.
_HUNG = _Wait("injected hang", lambda: False)

#: What a blocking call's generator yields while it waits, and returns.
Blocking = Generator[_Wait, None, object]


class _Context:
    """State shared by all ranks of one run."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.mailboxes: dict[tuple[int, int, int], deque[_Message]] = {}
        self.coll_gen = 0
        self.coll_entries: dict[int, dict[int, tuple[float, object]]] = {}
        self.coll_result: dict[int, tuple[float, object]] = {}
        #: Set (once) when any rank raises: ``(rank, exception)``.  From
        #: then on every blocked rank that cannot finish gets the poisoned
        #: error thrown in instead of waiting for a peer that never comes.
        self.poison: tuple[int, BaseException] | None = None


def _poison_error(ctx: _Context, rank: int, doing: str) -> MPIError:
    assert ctx.poison is not None
    src_rank, cause = ctx.poison
    err = MPIError(
        f"rank {rank}: {doing} abandoned because rank {src_rank} failed: "
        f"{cause}"
    )
    err.poisoned = True  # type: ignore[attr-defined]
    err.failing_rank = src_rank  # type: ignore[attr-defined]
    return err


class _Call:
    """One blocking MPI call; a rank program drives it with ``yield from``."""

    __slots__ = ("_comm", "_gen")

    def __init__(self, comm: "Communicator", gen: Blocking) -> None:
        self._comm = comm
        self._gen = gen

    def __iter__(self) -> Blocking:
        self._comm._undriven = None
        return self._gen


def _blocking(method: Callable[..., Blocking]) -> Callable[..., _Call]:
    """Make a generator method a blocking call (see :meth:`Communicator._call`)."""

    @functools.wraps(method)
    def call(self: "Communicator", *args, **kw) -> _Call:
        return self._call(method.__name__, method(self, *args, **kw))

    return call


class Request:
    """A non-blocking communication handle."""

    def __init__(self, comm: "Communicator", kind: str, **kw) -> None:
        self._comm = comm
        self._kind = kind
        self._kw = kw
        self._done = False
        self._payload: np.ndarray | None = None

    def wait(self) -> _Call:
        """Complete the operation, advancing the rank's virtual clock:
        ``payload = yield from request.wait()``."""
        return self._comm._call("Wait", self._wait())

    def _wait(self) -> Blocking:
        if self._done:
            return self._payload
        comm = self._comm
        before = comm._vtime
        if self._kind == "send":
            comm._vtime = max(comm._vtime, self._kw["vtime_done"])
        else:
            self._payload = yield from comm._complete_recv(
                self._kw["source"], self._kw["tag"], self._kw["post_vtime"]
            )
        self._done = True
        # Host time charged to MPI_Wait is the virtual time this rank
        # spent blocked, plus the fixed call overhead.
        comm._profile("MPI_Wait", host_us=2.0 + (comm._vtime - before) * 1e6)
        return self._payload

    @property
    def done(self) -> bool:
        return self._done


class Communicator:
    """One rank's communicator (COMM_WORLD of the simulated job)."""

    def __init__(
        self,
        ctx: _Context,
        engine: PerfEngine,
        binding: RankBinding,
        bindings: Sequence[RankBinding],
    ) -> None:
        self._ctx = ctx
        self._engine = engine
        self.binding = binding
        self._bindings = list(bindings)
        self._vtime = 0.0
        #: True once the scheduler drives this rank's program as a
        #: generator; until then a blocking call has nothing to yield to.
        self._driven = False
        #: The blocking call made but not yet driven with ``yield from``.
        self._undriven: str | None = None
        tel = engine.telemetry
        self._tel = tel
        self._lane = tel.rank_lane(binding.rank) if tel is not None else None
        self._profiler = getattr(tel, "profiler", None) if tel else None
        if self._profiler is not None:
            from ..profiler.core import MPI_POINTS

            self._profiler.register("mpi", *MPI_POINTS)

    def _call(self, name: str, gen: Blocking) -> _Call:
        """Hand out a blocking call, refusing one that would be skipped:
        a plain (non-generator) program cannot wait, and a call left
        undriven never ran."""
        problem = None
        if not self._driven:
            problem = (
                f"{name} blocks; a rank program that calls it must be a "
                f"generator using `yield from comm.{name}(...)`"
            )
        elif self._undriven is not None:
            problem = f"{self._undriven} was called without `yield from`"
        if problem is not None:
            gen.close()
            raise MPIError(f"rank {self.rank}: {problem}")
        self._undriven = name
        return _Call(self, gen)

    def _profile(self, name: str, **kw) -> None:
        """One intercepted MPI call.  Rank virtual clocks restart at zero
        for every :meth:`SimMPI.run`, so MPI records stay out of the
        per-stream clock-monotonicity check (no ``clock_us``)."""
        if self._profiler is not None:
            self._profiler.record(name, "mpi", **kw)

    def _trace(
        self, name: str, start_s: float, duration_s: float, **args
    ) -> None:
        """One complete event on this rank's lane (virtual-clock times)."""
        if self._tel is not None and self._lane is not None:
            self._tel.tracer.complete(
                name,
                self._lane,
                duration_us=max(0.0, duration_s) * 1e6,
                start_us=start_s * 1e6,
                category="transfer",
                **args,
            )

    # -- identity ---------------------------------------------------------

    def Get_rank(self) -> int:
        return self.binding.rank

    def Get_size(self) -> int:
        return self._ctx.size

    @property
    def rank(self) -> int:
        return self.binding.rank

    @property
    def size(self) -> int:
        return self._ctx.size

    def stack_of(self, rank: int) -> StackRef:
        return self._bindings[rank].stack

    # -- virtual time -------------------------------------------------------

    @property
    def now(self) -> float:
        """This rank's virtual clock (seconds)."""
        return self._vtime

    def advance(self, seconds: float) -> None:
        """Account local (compute) time."""
        if seconds < 0:
            raise MPIError("cannot advance time backwards")
        self._vtime += seconds

    # -- point to point -----------------------------------------------------

    def _transfer_seconds(self, src: int, dst: int, nbytes: int) -> float:
        return self._engine.p2p_transfer_time(
            self.stack_of(src), self.stack_of(dst), nbytes
        )

    def Isend(
        self,
        buf: np.ndarray,
        dest: int,
        tag: int = 0,
        nbytes: int | None = None,
    ) -> Request:
        """Non-blocking send of a (GPU-resident) NumPy buffer.

        ``nbytes`` overrides the timed message size — benchmarks declare
        the paper's 500 MB messages while carrying a small functional
        payload, keeping the simulation's memory footprint bounded.
        """
        self._check_rank(dest)
        if dest == self.rank:
            raise MPIError("self-sends are not supported")
        buf = np.ascontiguousarray(buf)
        size = buf.nbytes if nbytes is None else int(nbytes)
        if size < buf.nbytes:
            raise MPIError("declared nbytes smaller than the payload")
        payload = buf.copy()
        faults = self._engine.faults
        checksum = None
        if faults is not None:
            # Checksum before any in-flight corruption so the receiver
            # can detect (rather than silently consume) a damaged message.
            checksum = faults.checksum(payload)
            faults.corrupt_payload(payload, self.rank, dest)
        transfer_s = self._transfer_seconds(self.rank, dest, size)
        msg = _Message(
            payload=payload,
            nbytes=size,
            send_vtime=self._vtime,
            src=self.rank,
            checksum=checksum,
            transfer_s=transfer_s,
        )
        self._ctx.mailboxes.setdefault((self.rank, dest, tag), deque()).append(
            msg
        )
        done = self._vtime + transfer_s
        self._trace(
            f"send -> rank {dest}",
            self._vtime,
            transfer_s,
            nbytes=size,
            tag=tag,
        )
        if self._tel is not None:
            self._tel.metrics.inc("mpi.messages", rank=self.rank)
            self._tel.metrics.inc("mpi.bytes", float(size), rank=self.rank)
        self._profile("MPI_Isend", bytes_moved=float(size))
        return Request(self, "send", vtime_done=done)

    def Irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive; ``yield from req.wait()`` returns the array."""
        self._check_rank(source)
        self._profile("MPI_Irecv")
        return Request(
            self, "recv", source=source, tag=tag, post_vtime=self._vtime
        )

    @_blocking
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> Blocking:
        yield from self.Isend(buf, dest, tag)._wait()

    @_blocking
    def Recv(self, source: int, tag: int = 0) -> Blocking:
        out = yield from self.Irecv(source, tag)._wait()
        assert out is not None
        return out

    @_blocking
    def Waitall(self, requests: Sequence[Request]) -> Blocking:
        out = []
        for request in requests:
            out.append((yield from request._wait()))
        return out

    @_blocking
    def Sendrecv(self, buf: np.ndarray, peer: int, tag: int = 0) -> Blocking:
        """Simultaneous exchange with *peer* (used by the bidirectional
        bandwidth benchmark)."""
        send = self.Isend(buf, peer, tag)
        recv = self.Irecv(peer, tag)
        out = yield from recv._wait()
        yield from send._wait()
        assert out is not None
        return out

    def _complete_recv(
        self, source: int, tag: int, post_vtime: float
    ) -> Blocking:
        key = (source, self.rank, tag)
        mailboxes = self._ctx.mailboxes
        while not mailboxes.get(key):
            yield _Wait(
                f"Recv(source={source}, tag={tag})",
                lambda: bool(mailboxes.get(key)),
            )
        msg = mailboxes[key].popleft()
        faults = self._engine.faults
        if (
            msg.checksum is not None
            and faults is not None
            and faults.checksum(msg.payload) != msg.checksum
        ):
            raise MPIError(
                f"rank {self.rank}: message corruption detected "
                f"(from {source}, tag {tag}): checksum mismatch"
            )
        arrive = msg.send_vtime + msg.transfer_s
        self._vtime = max(self._vtime, post_vtime, arrive)
        self._trace(
            f"recv <- rank {source}",
            post_vtime,
            self._vtime - post_vtime,
            nbytes=msg.nbytes,
            tag=tag,
        )
        return msg.payload

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise MPIError(f"rank {rank} out of range [0, {self.size})")

    # -- collectives ---------------------------------------------------------

    def _collective(
        self, value: object, finish: Callable, label: str, what: str
    ) -> Blocking:
        """Generic rendezvous: all ranks deposit (vtime, value); the last
        arrival computes the result and the completion time."""
        ctx = self._ctx
        entered = self._vtime
        gen = ctx.coll_gen
        entries = ctx.coll_entries.setdefault(gen, {})
        if self.rank in entries:
            raise MPIError("rank entered the same collective twice")
        entries[self.rank] = (self._vtime, value)
        if len(entries) == ctx.size:
            vtimes = [t for t, _ in entries.values()]
            values = {r: v for r, (_, v) in entries.items()}
            result, cost = finish(values)
            ctx.coll_result[gen] = (max(vtimes) + cost, result)
            ctx.coll_gen += 1
        while gen not in ctx.coll_result:
            yield _Wait(what, lambda: gen in ctx.coll_result)
        done_vtime, result = ctx.coll_result[gen]
        self._vtime = max(self._vtime, done_vtime)
        self._trace(label, entered, self._vtime - entered)
        if self._tel is not None:
            self._tel.metrics.inc("mpi.collectives", op=label, rank=self.rank)
        api = _COLLECTIVE_API.get(label)
        if api is not None:
            self._profile(
                api, host_us=(self._vtime - entered) * 1e6 + _host_us(api)
            )
        return result

    def _tree_cost(self, nbytes: int) -> float:
        if self.size == 1:
            return 0.0
        stages = math.ceil(math.log2(self.size))
        ref_a, ref_b = self.stack_of(0), self.stack_of(min(1, self.size - 1))
        per_stage = self._engine.p2p_transfer_time(ref_a, ref_b, max(nbytes, 1))
        return stages * per_stage

    @_blocking
    def Barrier(self) -> Blocking:
        yield from self._collective(
            None,
            lambda values: (None, self._tree_cost(8)),
            "barrier",
            "Barrier()",
        )

    @_blocking
    def Allreduce(self, array: np.ndarray, op: str = SUM) -> Blocking:
        array = np.asarray(array)
        try:
            reducer = _OPS[op]
        except KeyError:
            raise MPIError(f"unknown reduction op {op!r}") from None

        def finish(values: dict[int, np.ndarray]):
            stacked = np.stack([values[r] for r in sorted(values)])
            return reducer(stacked, axis=0), 2 * self._tree_cost(array.nbytes)

        return (
            yield from self._collective(
                array.copy(), finish, "allreduce", f"Allreduce(op={op!r})"
            )
        )

    @_blocking
    def Bcast(self, array: np.ndarray | None, root: int = 0) -> Blocking:
        self._check_rank(root)

        def finish(values: dict[int, object]):
            payload = values[root]
            if payload is None:
                raise MPIError(f"root {root} broadcast None")
            return payload, self._tree_cost(np.asarray(payload).nbytes)

        value = array.copy() if (self.rank == root and array is not None) else None
        out = yield from self._collective(
            value, finish, "bcast", f"Bcast(root={root})"
        )
        return np.asarray(out)

    @_blocking
    def Gather(self, array: np.ndarray, root: int = 0) -> Blocking:
        self._check_rank(root)

        def finish(values: dict[int, np.ndarray]):
            ordered = [values[r] for r in sorted(values)]
            return ordered, self._tree_cost(array.nbytes)

        out = yield from self._collective(
            np.asarray(array).copy(), finish, "gather", f"Gather(root={root})"
        )
        return out if self.rank == root else None

    @_blocking
    def Allgather(self, array: np.ndarray) -> Blocking:
        def finish(values: dict[int, np.ndarray]):
            ordered = [values[r] for r in sorted(values)]
            return ordered, 2 * self._tree_cost(array.nbytes)

        return (
            yield from self._collective(
                np.asarray(array).copy(), finish, "allgather", "Allgather()"
            )
        )


class SimMPI:
    """Launches an SPMD function across the node's ranks.

    ``n_ranks`` defaults to one rank per stack (explicit scaling); the
    rank-to-core/stack binding follows Section IV-A.
    """

    def __init__(self, engine: PerfEngine, n_ranks: int | None = None) -> None:
        self.engine = engine
        self.bindings = explicit_scaling_binding(engine.node, n_ranks)

    @property
    def size(self) -> int:
        return len(self.bindings)

    def run(self, fn: Callable[[Communicator], object]) -> list[object]:
        """Run ``fn(comm)`` on every rank; returns per-rank results.

        One thread runs every rank: the scheduler resumes the
        lowest-numbered rank that can make progress until all finish.
        If a rank raises, the run is *poisoned*: every rank blocked on a
        call that cannot finish gets a poisoned :class:`MPIError` thrown
        in, and the root-cause error is re-raised with a ``failing_rank``
        attribute identifying the culprit.  An injected hang's rank never
        runs; it fails as soon as no other rank can move.
        """
        ctx = _Context(self.size)
        faults = self.engine.faults
        hang = faults.mpi_hang_rank(self.size) if faults is not None else None
        comms = [
            Communicator(ctx, self.engine, binding, self.bindings)
            for binding in self.bindings
        ]
        results: list[object] = [None] * self.size
        errors: list[BaseException | None] = [None] * self.size
        programs: dict[int, Generator] = {}
        #: Per rank: what it waits for, or None once it has finished.
        state: list[_Wait | None] = [_START] * self.size
        if hang is not None:
            state[hang] = _HUNG

        def fail(rank: int, exc: BaseException) -> None:
            state[rank] = None
            errors[rank] = exc
            if ctx.poison is None:
                ctx.poison = (rank, exc)
            tel = self.engine.telemetry
            if tel is not None:
                poisoned = getattr(exc, "poisoned", False)
                tel.instant_fault(
                    f"rank {rank} "
                    + ("abandoned (peer failed)" if poisoned else "failed"),
                    lane=tel.rank_lane(rank),
                    ts_us=comms[rank].now * 1e6,
                    kind="mpi-poisoned" if poisoned else "mpi-abort",
                    error=type(exc).__name__,
                )

        def resume(rank: int) -> None:
            wait, comm = state[rank], comms[rank]
            assert wait is not None
            try:
                if wait is _START:
                    program = fn(comm)
                    if not isinstance(program, GeneratorType):
                        state[rank], results[rank] = None, program
                        return
                    programs[rank] = program
                    comm._driven = True
                    step = program.send(None)
                elif wait.ready():
                    step = programs[rank].send(None)
                else:
                    step = programs[rank].throw(
                        _poison_error(ctx, rank, wait.what)
                    )
            except StopIteration as stop:
                step, results[rank] = None, stop.value
            except Exception as exc:  # the rank failed: poison the run
                fail(rank, exc)
                return
            if comm._undriven is not None:
                problem = f"{comm._undriven} was called without `yield from`"
            elif step is not None and not isinstance(step, _Wait):
                problem = (
                    f"yielded {step!r}; rank programs yield only through "
                    "blocking MPI calls"
                )
            else:
                state[rank] = step
                return
            if step is not None:
                programs[rank].close()
            fail(rank, MPIError(f"rank {rank}: {problem}"))

        def runnable() -> int | None:
            for rank, wait in enumerate(state):
                if wait is None or wait is _HUNG:
                    continue
                if ctx.poison is not None or wait.ready():
                    return rank
            return None

        while True:
            rank = runnable()
            if rank is not None:
                resume(rank)
            elif hang is not None and state[hang] is _HUNG:
                fail(hang, MPIError(f"rank {hang} hung (injected fault)"))
            else:
                break
        stuck = {r: wait for r, wait in enumerate(state) if wait is not None}
        if stuck:
            # Nothing failed, nothing can move: a deadlock in the program.
            err = MPIError(
                "deadlock: no rank can progress; "
                + "; ".join(
                    f"rank {r} blocked in {wait.what}"
                    for r, wait in stuck.items()
                )
            )
            for r in stuck:
                programs[r].close()
                fail(r, err)
        primary = self._primary_error(errors)
        if primary is not None:
            raise primary
        return results

    @staticmethod
    def _primary_error(
        errors: Sequence[BaseException | None],
    ) -> BaseException | None:
        """The error to re-raise: prefer the root cause over fallout.

        Poison-induced errors (ranks that bailed because *another* rank
        failed) are fallout; the first non-poisoned error is the root
        cause.  Either way the chosen exception carries ``failing_rank``.
        """
        first: tuple[int, BaseException] | None = None
        for rank, exc in enumerate(errors):
            if exc is None:
                continue
            if first is None:
                first = (rank, exc)
            if not getattr(exc, "poisoned", False):
                first = (rank, exc)
                break
        if first is None:
            return None
        rank, exc = first
        if not hasattr(exc, "failing_rank"):
            try:
                exc.failing_rank = rank  # type: ignore[attr-defined]
            except AttributeError:
                pass
        return exc
