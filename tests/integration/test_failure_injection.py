"""Failure injection: every guarded error path fires correctly."""

import numpy as np
import pytest

from repro.errors import (
    AffinityError,
    AllocationError,
    BuildError,
    CalibrationError,
    ConfigurationError,
    MPIError,
    NotMeasuredError,
    ReproError,
    TopologyError,
)


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc in (
            AffinityError,
            AllocationError,
            BuildError,
            CalibrationError,
            ConfigurationError,
            MPIError,
            NotMeasuredError,
            TopologyError,
        ):
            assert issubclass(exc, ReproError)

    def test_single_catch_clause_works(self, mi250):
        from repro.miniapps import Rimp2

        with pytest.raises(ReproError):
            Rimp2().fom(mi250, 1)


class TestMpiDeadlockDetection:
    """A deadlock is diagnosed the moment no rank can move: an immediate
    MPIError naming each blocked rank's pending operation."""

    @staticmethod
    def _deadlock(mpi, prog) -> str:
        import time

        start = time.monotonic()
        with pytest.raises(MPIError, match="^deadlock: ") as info:
            mpi.run(prog)
        assert time.monotonic() - start < 0.2
        return str(info.value)

    def test_recv_without_send_times_out(self, aurora):
        from repro.runtime.mpi import SimMPI

        def prog(comm):
            if comm.rank == 1:
                yield from comm.Recv(source=0)  # rank 0 never sends
            return None

        message = self._deadlock(SimMPI(aurora, 2), prog)
        assert message.endswith("rank 1 blocked in Recv(source=0, tag=0)")

    def test_mismatched_collective_times_out(self, aurora):
        from repro.runtime.mpi import SimMPI

        def prog(comm):
            if comm.rank == 0:
                yield from comm.Barrier()  # rank 1 never enters
            return None

        message = self._deadlock(SimMPI(aurora, 2), prog)
        assert message.endswith("rank 0 blocked in Barrier()")


class TestAllocatorFailures:
    def test_oversubscribed_hbm(self, aurora):
        from repro.runtime.sycl import SyclRuntime

        queue = SyclRuntime(aurora).queue()
        with pytest.raises(AllocationError):
            queue.malloc_device(100 * 10**9)  # > 64 GB stack HBM

    def test_double_free_detected(self, aurora):
        from repro.runtime.sycl import SyclRuntime

        queue = SyclRuntime(aurora).queue()
        alloc = queue.malloc_host(64)
        queue.free(alloc)
        with pytest.raises(AllocationError):
            queue.free(alloc)

    def test_memcpy_into_freed_buffer(self, aurora):
        from repro.runtime.sycl import SyclRuntime

        queue = SyclRuntime(aurora).queue()
        a = queue.malloc_host(64)
        b = queue.malloc_host(64)
        queue.free(b)
        with pytest.raises(AllocationError):
            queue.memcpy(b, a)

    def test_timed_nbytes_below_payload(self, aurora):
        from repro.runtime.sycl import SyclRuntime

        queue = SyclRuntime(aurora).queue()
        a = queue.malloc_host(128)
        b = queue.malloc_host(128)
        with pytest.raises(AllocationError):
            queue.memcpy(b, a, timed_nbytes=64)


class TestTopologyFailures:
    def test_route_to_unknown_stack(self, aurora):
        from repro.hw.ids import StackRef

        with pytest.raises(TopologyError):
            aurora.node.fabric.route(StackRef(0, 0), StackRef(9, 0))

    def test_affinity_mask_beyond_node(self, aurora):
        from repro.runtime.ze import ZeDriver

        with pytest.raises(AffinityError):
            ZeDriver(aurora.node, "7.0")


class TestEngineGuards:
    def test_zero_stacks_rejected_everywhere(self, aurora):
        from repro.dtypes import Precision

        for call in (
            lambda: aurora.fma_rate(Precision.FP64, 0),
            lambda: aurora.stream_bw(0),
            lambda: aurora.gemm_rate(Precision.FP64, 0),
            lambda: aurora.fft_rate(1, 0),
        ):
            with pytest.raises(ValueError):
                call()

    def test_oversized_scope_rejected(self, dawn):
        from repro.dtypes import Precision

        with pytest.raises(ValueError):
            dawn.fma_rate(Precision.FP64, 9)  # Dawn has 8 stacks

    def test_fom_scope_validation(self, aurora):
        from repro.miniapps import CloverLeaf

        with pytest.raises(ValueError):
            CloverLeaf().fom(aurora, 0)


class TestDeterminismUnderFailure:
    def test_failed_rank_does_not_corrupt_survivors(self, aurora):
        """A raising rank aborts the job but the error is the rank's own."""
        from repro.runtime.mpi import SimMPI

        def prog(comm):
            if comm.rank == 2:
                raise ValueError("injected")
            return comm.rank

        with pytest.raises(ValueError, match="injected"):
            SimMPI(aurora, 3).run(prog)


class TestEveryErrorHasACallSite:
    """Each repro.errors subclass fires from at least one real code path."""

    def test_unknown_system(self):
        from repro.errors import UnknownSystemError
        from repro.hw.systems import get_system

        with pytest.raises(UnknownSystemError):
            get_system("cray-1")

    def test_unknown_benchmark(self):
        from repro.core.registry import global_registry
        from repro.errors import UnknownBenchmarkError

        with pytest.raises(UnknownBenchmarkError):
            global_registry().get("linpackzilla")

    def test_missing_calibration(self):
        from repro.sim.calibration import get_calibration

        with pytest.raises(CalibrationError):
            get_calibration("cray-1")

    def test_unknown_scenario(self):
        from repro.errors import ScenarioError
        from repro.faults import ExecutionContext

        with pytest.raises(ScenarioError):
            ExecutionContext("meteor-strike", 0)

    def test_bad_kernel_spec(self):
        from repro.errors import KernelSpecError
        from repro.sim.kernel import KernelSpec

        with pytest.raises(KernelSpecError):
            KernelSpec(name="bad", flops=-1.0)

    def test_not_measured_scope(self, aurora):
        from repro.apps import Hacc

        with pytest.raises(NotMeasuredError):
            Hacc().fom(aurora, 1)

    def test_device_lost(self):
        from repro.errors import DeviceLostError
        from repro.faults import FaultInjector
        from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
        from repro.hw.ids import StackRef
        from repro.hw.systems import get_system
        from repro.runtime.sycl import SyclRuntime
        from repro.sim.engine import PerfEngine
        from repro.sim.noise import QUIET

        system = get_system("dawn")
        events = tuple(
            FaultEvent(FaultKind.DEVICE_LOSS, at=1, target=ref)
            for ref in system.node.stacks()
        )
        injector = FaultInjector(
            FaultPlan(scenario="test", seed=0, events=events), system.node
        )
        injector.fast_forward()
        engine = PerfEngine(system, noise=QUIET, faults=injector)
        with pytest.raises(DeviceLostError):
            SyclRuntime(engine)  # no device enumerates

    def test_transient_kernel_failure(self):
        from repro.errors import TransientKernelError
        from repro.faults import FaultInjector
        from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
        from repro.hw.systems import get_system
        from repro.sim.engine import PerfEngine
        from repro.sim.kernel import KernelSpec
        from repro.sim.noise import QUIET

        system = get_system("aurora")
        injector = FaultInjector(
            FaultPlan(
                scenario="test",
                seed=0,
                events=(FaultEvent(FaultKind.KERNEL_TRANSIENT, at=1),),
            ),
            system.node,
        )
        engine = PerfEngine(system, noise=QUIET, faults=injector)
        spec = KernelSpec(name="k", flops=1e9)
        with pytest.raises(TransientKernelError):
            engine.kernel_time_s(spec)
        engine.kernel_time_s(spec)  # transient: clears on retry

    def test_benchmark_timeout(self):
        from repro.core.resilient import ResiliencePolicy, ResilientRunner
        from repro.core.result import DeviceScope, Measurement
        from repro.core.runner import RunPlan
        from repro.errors import BenchmarkTimeoutError

        runner = ResilientRunner(
            RunPlan(repetitions=2, warmup=0),
            ResiliencePolicy(rep_timeout_s=0.5),
        )
        with pytest.raises(BenchmarkTimeoutError):
            runner.run(
                benchmark="slow",
                system="test",
                scope=DeviceScope("One Stack", 1),
                measure=lambda rep: Measurement(
                    elapsed_s=9.0, work=1.0, unit="B/s"
                ),
            )

    def test_measurement_error_wraps_mid_plan_failure(self):
        from repro.core.result import DeviceScope, Measurement
        from repro.core.runner import Runner, RunPlan
        from repro.errors import MeasurementError

        def measure(rep):
            if rep == 2:
                raise AllocationError("out of device memory")
            return Measurement(elapsed_s=1e-3, work=1.0, unit="B/s")

        with pytest.raises(MeasurementError) as info:
            Runner(RunPlan(repetitions=4, warmup=0)).run(
                benchmark="bench",
                system="sys",
                scope=DeviceScope("One Stack", 1),
                measure=measure,
            )
        err = info.value
        assert err.benchmark == "bench"
        assert err.system == "sys"
        assert err.repetition == 2
        assert len(err.partial) == 2  # the reps that did complete
        assert isinstance(err.__cause__, AllocationError)
