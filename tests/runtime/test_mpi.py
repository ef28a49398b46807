"""Simulated MPI: point-to-point, collectives, virtual time, deadlocks."""

import time

import numpy as np
import pytest

from repro.errors import MPIError
from repro.runtime.mpi import MAX, SUM, SimMPI

#: A deadlock or hang is diagnosed from the communication state, never by
#: waiting out a clock: the whole run must fail well inside this.
_PROMPT_S = 0.2


def _fails_promptly(mpi, prog, match):
    """Run *prog*, expecting an MPIError matching *match* within _PROMPT_S."""
    start = time.monotonic()
    with pytest.raises(MPIError, match=match) as info:
        mpi.run(prog)
    assert time.monotonic() - start < _PROMPT_S
    return info.value


class TestPointToPoint:
    def test_send_recv_payload(self, aurora):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.Send(np.arange(10.0), dest=1)
                return None
            if comm.rank == 1:
                return (yield from comm.Recv(source=0))
            return None

        results = SimMPI(aurora, 2).run(prog)
        assert np.array_equal(results[1], np.arange(10.0))

    def test_isend_irecv_waitall(self, aurora):
        def prog(comm):
            peer = 1 - comm.rank
            reqs = [
                comm.Isend(np.full(4, float(comm.rank)), peer, tag=9),
                comm.Irecv(peer, tag=9),
            ]
            out = yield from comm.Waitall(reqs)
            return out[1][0]

        results = SimMPI(aurora, 2).run(prog)
        assert results == [1.0, 0.0]

    def test_declared_nbytes_drives_timing(self, aurora):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.Isend(np.zeros(4), 1, nbytes=500_000_000).wait()
                return comm.now
            if comm.rank == 1:
                yield from comm.Irecv(0).wait()
                return comm.now
            return None

        times = SimMPI(aurora, 2).run(prog)
        # 500 MB over the 197 GB/s local pair: ~2.5 ms.
        assert times[1] == pytest.approx(0.5e9 / 197e9, rel=0.05)

    def test_declared_nbytes_smaller_than_payload_rejected(self, aurora):
        def prog(comm):
            if comm.rank == 0:
                comm.Isend(np.zeros(100), 1, nbytes=8)
            return None

        with pytest.raises(MPIError):
            SimMPI(aurora, 2).run(prog)

    def test_tags_demultiplex(self, aurora):
        def prog(comm):
            if comm.rank == 0:
                comm.Isend(np.array([1.0]), 1, tag=1)
                comm.Isend(np.array([2.0]), 1, tag=2)
                return None
            if comm.rank == 1:
                # Receive in reverse tag order.
                b = yield from comm.Irecv(0, tag=2).wait()
                a = yield from comm.Irecv(0, tag=1).wait()
                return (a[0], b[0])
            return None

        results = SimMPI(aurora, 2).run(prog)
        assert results[1] == (1.0, 2.0)

    def test_self_send_rejected(self, aurora):
        def prog(comm):
            comm.Isend(np.zeros(1), comm.rank)

        with pytest.raises(MPIError):
            SimMPI(aurora, 1).run(prog)

    def test_bad_rank_rejected(self, aurora):
        def prog(comm):
            comm.Isend(np.zeros(1), 99)

        with pytest.raises(MPIError):
            SimMPI(aurora, 2).run(prog)

    def test_sendrecv_exchanges(self, aurora):
        def prog(comm):
            peer = 1 - comm.rank
            got = yield from comm.Sendrecv(np.array([float(comm.rank)]), peer)
            return got[0]

        assert SimMPI(aurora, 2).run(prog) == [1.0, 0.0]


class TestBlockingCallGuard:
    """A blocking call that is not driven with ``yield from`` would skip
    its wait; it must fail instead."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda comm: comm.Recv(source=1 - comm.rank),
            lambda comm: comm.Barrier(),
            lambda comm: comm.Irecv(1 - comm.rank).wait(),
        ],
        ids=["recv", "barrier", "wait"],
    )
    def test_plain_function_blocking_call_raises(self, aurora, call):
        def prog(comm):
            call(comm)
            return comm.rank

        with pytest.raises(MPIError, match="yield from") as info:
            SimMPI(aurora, 2).run(prog)
        assert info.value.failing_rank == 0

    def test_plain_function_that_never_blocks_runs(self, aurora):
        assert SimMPI(aurora, 3).run(lambda comm: comm.rank * 2) == [0, 2, 4]

    def test_undriven_call_in_generator_raises(self, aurora):
        def prog(comm):
            comm.Barrier()  # missing `yield from`: the wait never runs
            yield from comm.Barrier()

        with pytest.raises(MPIError, match="Barrier was called without"):
            SimMPI(aurora, 2).run(prog)

    def test_undriven_call_before_return_raises(self, aurora):
        def prog(comm):
            if comm.rank == 1:
                comm.Send(np.zeros(1), 0)  # missing `yield from`
                return None
            return (yield from comm.Recv(source=1))

        with pytest.raises(MPIError, match="Send was called without"):
            SimMPI(aurora, 2).run(prog)

    def test_yielding_a_value_raises(self, aurora):
        def prog(comm):
            yield comm.rank  # not a blocking call's wait

        with pytest.raises(MPIError, match="rank 0: yielded 0;"):
            SimMPI(aurora, 2).run(prog)


class TestVirtualTime:
    def test_advance_accumulates(self, aurora):
        def prog(comm):
            comm.advance(1.5)
            comm.advance(0.5)
            return comm.now

        assert SimMPI(aurora, 1).run(prog) == [2.0]

    def test_advance_rejects_negative(self, aurora):
        def prog(comm):
            comm.advance(-1.0)

        with pytest.raises(MPIError):
            SimMPI(aurora, 1).run(prog)

    def test_recv_waits_for_late_sender(self, aurora):
        def prog(comm):
            if comm.rank == 0:
                comm.advance(5.0)  # sender is busy for 5 s first
                yield from comm.Send(np.zeros(1), 1)
                return comm.now
            out = yield from comm.Recv(source=0)
            assert out is not None
            return comm.now

        times = SimMPI(aurora, 2).run(prog)
        assert times[1] >= 5.0  # receiver clock jumped past the send time

    def test_deterministic_regardless_of_scheduling(self, aurora):
        def prog(comm):
            peer = 1 - comm.rank
            got = yield from comm.Sendrecv(np.full(64, float(comm.rank)), peer)
            comm.advance(0.001 * comm.rank)
            return (comm.now, float(got[0]))

        a = SimMPI(aurora, 2).run(prog)
        for _ in range(3):
            assert SimMPI(aurora, 2).run(prog) == a


class TestCollectives:
    def test_allreduce_sum(self, aurora):
        def prog(comm):
            return (yield from comm.Allreduce(np.array([comm.rank + 1.0]), SUM))[0]

        results = SimMPI(aurora, 4).run(prog)
        assert results == [10.0] * 4

    def test_allreduce_max(self, aurora):
        def prog(comm):
            return (yield from comm.Allreduce(np.array([float(comm.rank)]), MAX))[0]

        assert SimMPI(aurora, 3).run(prog) == [2.0] * 3

    def test_allreduce_unknown_op(self, aurora):
        def prog(comm):
            yield from comm.Allreduce(np.zeros(1), "median")

        with pytest.raises(MPIError):
            SimMPI(aurora, 2).run(prog)

    def test_bcast(self, aurora):
        def prog(comm):
            data = np.arange(4.0) if comm.rank == 0 else None
            return (yield from comm.Bcast(data, root=0))[2]

        assert SimMPI(aurora, 3).run(prog) == [2.0] * 3

    def test_gather_only_root_gets_data(self, aurora):
        def prog(comm):
            out = yield from comm.Gather(np.array([float(comm.rank)]), root=0)
            return None if out is None else [a[0] for a in out]

        results = SimMPI(aurora, 3).run(prog)
        assert results[0] == [0.0, 1.0, 2.0]
        assert results[1] is None

    def test_allgather(self, aurora):
        def prog(comm):
            out = yield from comm.Allgather(np.array([float(comm.rank) * 2]))
            return [a[0] for a in out]

        assert SimMPI(aurora, 3).run(prog) == [[0.0, 2.0, 4.0]] * 3

    def test_barrier_synchronizes_clocks(self, aurora):
        def prog(comm):
            comm.advance(float(comm.rank))
            yield from comm.Barrier()
            return comm.now

        times = SimMPI(aurora, 4).run(prog)
        assert all(t >= 3.0 for t in times)
        assert len(set(times)) == 1

    def test_collectives_in_sequence(self, aurora):
        def prog(comm):
            a = (yield from comm.Allreduce(np.array([1.0])))[0]
            yield from comm.Barrier()
            b = (yield from comm.Allreduce(np.array([2.0])))[0]
            return (a, b)

        assert SimMPI(aurora, 4).run(prog) == [(4.0, 8.0)] * 4


class TestLauncher:
    def test_default_one_rank_per_stack(self, aurora):
        assert SimMPI(aurora).size == 12

    def test_exception_propagates(self, aurora):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return comm.rank

        with pytest.raises(RuntimeError, match="boom"):
            SimMPI(aurora, 2).run(prog)

    def test_bindings_exposed(self, aurora):
        mpi = SimMPI(aurora, 3)
        assert mpi.bindings[0].cpu_core == 1


class TestFailFastPoisoning:
    """One failing rank must not leave survivors waiting on it."""

    def test_survivors_fail_fast_not_by_timeout(self, aurora):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("rank 0 exploded")
            yield from comm.Recv(source=0)  # blocks forever without poisoning
            return None

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exploded") as info:
            SimMPI(aurora, 2).run(prog)
        assert time.monotonic() - start < _PROMPT_S
        assert info.value.failing_rank == 0

    def test_primary_error_carries_failing_rank(self, aurora):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("culprit")
            yield from comm.Barrier()
            return None

        with pytest.raises(ValueError) as info:
            SimMPI(aurora, 4).run(prog)
        assert info.value.failing_rank == 2

    def test_poisoned_collective_blames_culprit(self, aurora):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("no barrier from me")
            yield from comm.Barrier()
            return None

        with pytest.raises(RuntimeError) as info:
            SimMPI(aurora, 3).run(prog)
        assert info.value.failing_rank == 1

    def test_blocked_ranks_see_the_poisoned_error(self, aurora):
        seen = {}

        def prog(comm):
            if comm.rank == 2:
                raise RuntimeError("gone")
            try:
                yield from comm.Barrier()
            except MPIError as exc:
                seen[comm.rank] = str(exc)
                raise

        with pytest.raises(RuntimeError, match="gone"):
            SimMPI(aurora, 3).run(prog)
        assert seen == {
            r: f"rank {r}: Barrier() abandoned because rank 2 failed: gone"
            for r in (0, 1)
        }


    def test_delivered_message_still_completes_after_a_failure(self, aurora):
        received = []

        def prog(comm):
            if comm.rank == 0:
                got = yield from comm.Recv(source=2)  # blocks, then arrives
                received.append(float(got[0]))
            elif comm.rank == 1:
                yield from comm.Recv(source=0)  # never sent: abandoned
            else:
                yield from comm.Send(np.array([7.0]), 0)
                raise RuntimeError("rank 2 failed after sending")

        with pytest.raises(RuntimeError, match="after sending"):
            SimMPI(aurora, 3).run(prog)
        assert received == [7.0]


class TestDeadlockPaths:
    def test_tag_mismatch_times_out(self, aurora):
        def prog(comm):
            if comm.rank == 0:
                comm.Isend(np.zeros(4), 1, tag=7)
            if comm.rank == 1:
                yield from comm.Recv(source=0, tag=8)  # wrong tag: never matches
            return None

        err = _fails_promptly(SimMPI(aurora, 2), prog, "deadlock")
        assert "rank 1 blocked in Recv(source=0, tag=8)" in str(err)
        assert "rank 0" not in str(err)  # rank 0 finished

    def test_collective_reentry_mismatch_times_out(self, aurora):
        def prog(comm):
            yield from comm.Barrier()
            if comm.rank == 0:
                yield from comm.Barrier()  # re-enters; rank 1 never joins
            return None

        err = _fails_promptly(SimMPI(aurora, 2), prog, "deadlock")
        assert str(err) == (
            "deadlock: no rank can progress; rank 0 blocked in Barrier()"
        )

    def test_cyclic_wait_names_every_blocked_rank(self, aurora):
        def prog(comm):
            # Every rank receives before it sends: a classic cycle.
            left = (comm.rank - 1) % comm.size
            got = yield from comm.Recv(source=left, tag=3)
            yield from comm.Send(got, (comm.rank + 1) % comm.size, tag=3)

        err = _fails_promptly(SimMPI(aurora, 3), prog, "deadlock")
        for rank in range(3):
            left = (rank - 1) % 3
            assert f"rank {rank} blocked in Recv(source={left}, tag=3)" in str(
                err
            )

    def test_progress_after_receiving_is_not_a_deadlock(self, aurora):
        """A rank that receives and then blocks on its next call moved;
        only the communication state decides who can still move."""

        def prog(comm):
            if comm.rank == 0:
                yield from comm.Send(np.array([1.0]), 1, tag=1)
                yield from comm.Send(np.array([2.0]), 1, tag=2)
                return None
            a = yield from comm.Recv(source=0, tag=1)
            b = yield from comm.Recv(source=0, tag=2)
            return float(a[0] + b[0])

        assert SimMPI(aurora, 2).run(prog) == [None, 3.0]


class TestInjectedFaults:
    @staticmethod
    def _engine(scenario, seed=0):
        from repro.faults import FaultInjector, build_plan
        from repro.hw.systems import get_system
        from repro.sim.engine import PerfEngine
        from repro.sim.noise import QUIET

        system = get_system("aurora")
        plan = build_plan(scenario, seed, system.node)
        injector = FaultInjector(plan, system.node)
        return PerfEngine(system, noise=QUIET, faults=injector)

    @staticmethod
    def _injector_engine(*events, telemetry=None):
        from repro.faults import FaultInjector
        from repro.faults.plan import FaultPlan
        from repro.hw.systems import get_system
        from repro.sim.engine import PerfEngine
        from repro.sim.noise import QUIET

        system = get_system("aurora")
        plan = FaultPlan(scenario="test", seed=0, events=tuple(events))
        injector = FaultInjector(plan, system.node, telemetry=telemetry)
        return PerfEngine(
            system, noise=QUIET, faults=injector, telemetry=telemetry
        )

    def test_corruption_detected_at_receiver(self):
        from repro.faults.plan import FaultEvent, FaultKind

        engine = self._injector_engine(
            FaultEvent(FaultKind.MPI_CORRUPT, at=1)
        )

        def prog(comm):
            if comm.rank == 0:
                yield from comm.Send(np.arange(16.0), dest=1)
            if comm.rank == 1:
                return (yield from comm.Recv(source=0))
            return None

        with pytest.raises(MPIError, match="corruption"):
            SimMPI(engine, 2).run(prog)

    def test_clean_send_after_corruption_window(self):
        from repro.faults.plan import FaultEvent, FaultKind

        engine = self._injector_engine(
            FaultEvent(FaultKind.MPI_CORRUPT, at=1)
        )

        def prog(comm):
            if comm.rank == 0:
                yield from comm.Send(np.arange(16.0), dest=1)
            if comm.rank == 1:
                return (yield from comm.Recv(source=0))
            return None

        with pytest.raises(MPIError):
            SimMPI(engine, 2).run(prog)
        # The corruption event fired on send #1; the next job is clean.
        out = SimMPI(engine, 2).run(prog)
        assert np.array_equal(out[1], np.arange(16.0))

    def test_injected_hang_surfaces_as_mpi_error(self):
        from repro.faults.plan import FaultEvent, FaultKind
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        engine = self._injector_engine(
            FaultEvent(FaultKind.MPI_HANG, at=1, target=1),
            telemetry=telemetry,
        )
        ran = []

        def prog(comm):
            ran.append(comm.rank)
            yield from comm.Barrier()
            return comm.rank

        err = _fails_promptly(
            SimMPI(engine, 2), prog, r"^rank 1 hung \(injected fault\)$"
        )
        assert err.failing_rank == 1
        assert ran == [0]  # the hung rank never runs
        kinds = [
            (e.name, e.args.get("kind"))
            for e in telemetry.tracer.events
            if e.args.get("kind", "").startswith("mpi-")
        ]
        assert kinds == [
            ("rank 1 hang", "mpi-hang"),
            ("rank 1 failed", "mpi-abort"),
            ("rank 0 abandoned (peer failed)", "mpi-poisoned"),
        ]
