"""Property-based tests for the simulated MPI layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.systems import get_system
from repro.runtime.mpi import SUM, SimMPI
from repro.sim.engine import PerfEngine
from repro.sim.noise import QUIET
from repro.telemetry import Telemetry


@pytest.fixture(name="aurora_engine", scope="module")
def _aurora_engine():
    # hypothesis re-runs the test body, so the engine is module-scoped.
    return PerfEngine(get_system("aurora"), noise=QUIET)


@settings(max_examples=10, deadline=None)
@given(
    n_ranks=st.integers(2, 8),
    seed=st.integers(0, 2**16),
)
def test_allreduce_equals_local_sum(aurora_engine, n_ranks, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_ranks, 4))

    def prog(comm):
        return (yield from comm.Allreduce(data[comm.rank].copy(), SUM))

    results = SimMPI(aurora_engine, n_ranks).run(prog)
    expected = data.sum(axis=0)
    for r in results:
        assert np.allclose(r, expected)


@settings(max_examples=10, deadline=None)
@given(n_ranks=st.integers(2, 8), root=st.integers(0, 7), seed=st.integers(0, 99))
def test_bcast_reaches_everyone(aurora_engine, n_ranks, root, seed):
    root = root % n_ranks
    payload = np.arange(6.0) * (seed + 1)

    def prog(comm):
        data = payload.copy() if comm.rank == root else None
        return (yield from comm.Bcast(data, root=root))

    for r in SimMPI(aurora_engine, n_ranks).run(prog):
        assert np.allclose(r, payload)


@settings(max_examples=10, deadline=None)
@given(n_ranks=st.integers(2, 6), seed=st.integers(0, 2**16))
def test_ring_pass_preserves_payload(aurora_engine, n_ranks, seed):
    """Send a token around a ring; everyone ends with its left
    neighbour's value and virtual clocks are consistent."""
    rng = np.random.default_rng(seed)
    tokens = rng.standard_normal(n_ranks)

    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        send = comm.Isend(np.array([tokens[comm.rank]]), right, tag=5)
        got = yield from comm.Irecv(left, tag=5).wait()
        yield from send.wait()
        return float(got[0])

    results = SimMPI(aurora_engine, n_ranks).run(prog)
    assert results == [tokens[(r - 1) % n_ranks] for r in range(n_ranks)]


# -- determinism: the schedule is a pure function of the program ----------

#: One phase of a random SPMD program: every rank runs the same phases.
_PHASES = st.sampled_from(["ring", "pairwise", "allreduce", "barrier"])


def _peers(phase, rank, size):
    """(send to, receive from) for a point-to-point phase, or None."""
    if phase == "ring":
        return (rank + 1) % size, (rank - 1) % size
    if phase == "pairwise":
        peer = rank ^ 1
        return (peer, peer) if peer < size else None
    return None


def _program(phases, work, log):
    """Each rank logs every step it takes, in the order the scheduler
    runs them."""

    def prog(comm):
        rank = comm.rank
        for i, phase in enumerate(phases):
            comm.advance(work[i][rank])
            if phase in ("allreduce", "barrier"):
                log.append((rank, i, "enter"))
                if phase == "allreduce":
                    yield from comm.Allreduce(np.array([float(rank)]))
                else:
                    yield from comm.Barrier()
                log.append((rank, i, "leave"))
                continue
            peers = _peers(phase, rank, comm.size)
            if peers is None:
                continue
            dest, source = peers
            send = comm.Isend(np.array([float(rank)]), dest, tag=i)
            log.append((rank, i, "enter"))
            got = yield from comm.Irecv(source, tag=i).wait()
            yield from send.wait()
            assert got[0] == source
            log.append((rank, i, "leave"))
        return comm.now

    return prog


def _reference_log(phases, size):
    """The step order a lowest-runnable-rank-first scheduler must give,
    computed from the phases alone (no MPI involved)."""
    pc = [0] * size  # next phase per rank
    inside = [False] * size  # rank has entered phase pc[rank]
    sent: set[tuple[int, int]] = set()  # (sender, phase) posted
    entered: dict[int, int] = {}  # collective phase -> ranks entered
    log = []

    def can_leave(rank):
        i = pc[rank]
        if phases[i] in ("allreduce", "barrier"):
            return entered.get(i, 0) == size
        return (_peers(phases[i], rank, size)[1], i) in sent

    def run(rank):
        # Run *rank* until it blocks or finishes.
        while pc[rank] < len(phases):
            i = pc[rank]
            phase = phases[i]
            if not inside[rank]:
                if phase not in ("allreduce", "barrier"):
                    if _peers(phase, rank, size) is None:
                        pc[rank] += 1
                        continue
                    sent.add((rank, i))
                else:
                    entered[i] = entered.get(i, 0) + 1
                log.append((rank, i, "enter"))
                inside[rank] = True
            if not can_leave(rank):
                return
            log.append((rank, i, "leave"))
            inside[rank] = False
            pc[rank] += 1

    started = [False] * size
    while True:
        runnable = [
            r
            for r in range(size)
            if not started[r]
            or (pc[r] < len(phases) and inside[r] and can_leave(r))
        ]
        if not runnable:
            break
        rank = runnable[0]
        started[rank] = True
        run(rank)
    assert all(p == len(phases) for p in pc)
    return log


def _run_once(phases, work, n_ranks):
    telemetry = Telemetry(profile=True)
    engine = PerfEngine(get_system("aurora"), noise=QUIET, telemetry=telemetry)
    log = []
    results = SimMPI(engine, n_ranks).run(_program(phases, work, log))
    # The raw record order, not the content-sorted ``calls()`` view.
    return results, log, list(telemetry.profiler._calls)


@settings(max_examples=25, deadline=None)
@given(
    n_ranks=st.integers(2, 6),
    phases=st.lists(_PHASES, min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_schedule_is_deterministic_lowest_rank_first(n_ranks, phases, seed):
    rng = np.random.default_rng(seed)
    work = rng.uniform(0.0, 1e-3, size=(len(phases), n_ranks)).tolist()
    first = _run_once(phases, work, n_ranks)
    second = _run_once(phases, work, n_ranks)
    # Per-rank results are the ranks' final virtual times.
    assert first == second
    assert first[1] == _reference_log(phases, n_ranks)
