"""SYCL-like runtime: USM, queues, profiling events."""

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.runtime.sycl import SyclRuntime, UsmKind, stack_queue


@pytest.fixture()
def runtime(aurora):
    return SyclRuntime(aurora)


@pytest.fixture()
def queue(runtime):
    q = runtime.queue()
    q.set_repetition(2)  # skip the warm-up penalty
    return q


class TestDiscovery:
    def test_devices_follow_affinity(self, aurora):
        rt = SyclRuntime(aurora, affinity_mask="1.0,2.1")
        devices = rt.devices()
        assert len(devices) == 2
        assert str(devices[0].ref) == "1.0"

    def test_device_info(self, runtime):
        info = runtime.default_device().info()
        assert info["max_compute_units"] == 56  # Aurora stack
        assert info["global_mem_size"] == 64 * 10**9


class TestUsm:
    def test_malloc_kinds(self, queue):
        assert queue.malloc_host(16).kind is UsmKind.HOST
        assert queue.malloc_device(16).kind is UsmKind.DEVICE
        assert queue.malloc_shared(16).kind is UsmKind.SHARED

    def test_device_alloc_tagged_with_stack(self, queue):
        alloc = queue.malloc_device(16)
        assert alloc.device == queue.device.ref

    def test_rejects_zero_size(self, queue):
        with pytest.raises(AllocationError):
            queue.malloc_host(0)

    def test_rejects_oversized_device_alloc(self, queue):
        with pytest.raises(AllocationError):
            queue.malloc_device(65 * 10**9)

    def test_use_after_free(self, queue):
        alloc = queue.malloc_host(16)
        queue.free(alloc)
        with pytest.raises(AllocationError):
            alloc.view(np.uint8)
        with pytest.raises(AllocationError):
            queue.free(alloc)

    def test_typed_view_roundtrip(self, queue):
        alloc = queue.malloc_host(64)
        alloc.view(np.float64)[:] = np.arange(8)
        assert alloc.view(np.float64)[5] == 5.0


class TestMemcpy:
    def test_h2d_moves_data(self, queue):
        host = queue.malloc_host(1024)
        dev = queue.malloc_device(1024)
        host.buffer[:4] = [1, 2, 3, 4]
        queue.memcpy(dev, host)
        assert list(dev.buffer[:4]) == [1, 2, 3, 4]

    def test_h2d_bandwidth_near_54gb(self, queue):
        host = queue.malloc_host(500_000_000)
        dev = queue.malloc_device(500_000_000)
        ev = queue.memcpy(dev, host)
        bw = 500e6 / ev.duration_s
        assert bw == pytest.approx(54e9, rel=0.05)

    def test_overrun_rejected(self, queue):
        host = queue.malloc_host(16)
        dev = queue.malloc_device(8)
        with pytest.raises(AllocationError):
            queue.memcpy(dev, host, nbytes=16)

    def test_d2d_cross_stack_uses_fabric(self, runtime, aurora):
        q0 = runtime.queue(runtime.devices()[0])
        q1 = runtime.queue(runtime.devices()[1])
        q0.set_repetition(2)
        a = q0.malloc_device(100_000_000)
        b = q1.malloc_device(100_000_000)
        ev = q0.memcpy(b, a)
        bw = 1e8 / ev.duration_s
        # Stacks 0.0 -> 0.1: MDFI at ~197 GB/s.
        assert bw == pytest.approx(197e9, rel=0.05)

    def test_events_are_ordered_and_accumulate(self, queue):
        h = queue.malloc_host(1024)
        d = queue.malloc_device(1024)
        e1 = queue.memcpy(d, h)
        e2 = queue.memcpy(h, d)
        assert e1.end_ns <= e2.start_ns
        assert queue.now_ns == e2.end_ns
        assert len(queue.events) == 2

    def test_profiling_info_keys(self, queue):
        h = queue.malloc_host(64)
        d = queue.malloc_device(64)
        info = queue.memcpy(d, h).profiling_info()
        assert set(info) == {"command_submit", "command_start", "command_end"}


class TestSubmit:
    def test_kernel_runs_functionally(self, queue, aurora):
        from repro.sim.kernel import triad_kernel

        out = {}

        def body():
            out["x"] = 42

        ev = queue.submit(triad_kernel(1 << 20), body)
        assert out["x"] == 42
        assert ev.duration_s > 0

    def test_wait_is_noop_for_inorder(self, queue):
        queue.wait()  # must not raise


class TestStackQueue:
    def test_queue_cached_per_stack(self):
        from repro.hw.systems import get_system
        from repro.sim.engine import PerfEngine
        from repro.sim.noise import QUIET
        from repro.telemetry import Telemetry

        engine = PerfEngine(
            get_system("aurora"), noise=QUIET, telemetry=Telemetry()
        )
        ref = engine.node.stacks()[0]
        q1 = stack_queue(engine, ref)
        q2 = stack_queue(engine, ref)
        assert q1 is q2
        other = stack_queue(engine, engine.node.stacks()[1])
        assert other is not q1
        assert other.lane != q1.lane

    def test_lost_device_raises_retryable(self):
        from repro.errors import DeviceLostError
        from repro.faults import ExecutionContext
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        ctx = ExecutionContext("device-loss", seed=7, telemetry=telemetry)
        engine = ctx.engine("aurora")
        engine.faults.fast_forward()
        dead = [r for r in engine.node.stacks() if engine.faults.is_dead(r)]
        assert dead
        with pytest.raises(DeviceLostError):
            stack_queue(engine, dead[0])
