"""Telemetry session: lane conventions, fault markers, queue cache."""

import pytest

from repro.hw.ids import StackRef
from repro.hw.systems import get_system
from repro.sim.engine import PerfEngine
from repro.sim.noise import QUIET
from repro.telemetry import Telemetry
from repro.telemetry.trace import INSTANT


def _engine(telemetry: Telemetry) -> PerfEngine:
    return PerfEngine(get_system("aurora"), noise=QUIET, telemetry=telemetry)


class TestLanes:
    def test_lane_order_run_ranks_gpus_faults(self):
        telemetry = Telemetry()
        telemetry.fault_lane()
        telemetry.gpu_lane(StackRef(1, 0))
        telemetry.rank_lane(3)
        telemetry.rank_lane(0)
        telemetry.gpu_lane(StackRef(0, 1))
        assert telemetry.tracer.lanes() == [
            "run",
            "rank 0",
            "rank 3",
            "gpu 0.1",
            "gpu 1.0",
            "faults",
        ]

    def test_predeclared_resilience_counters(self):
        metrics = Telemetry().metrics
        for name in ("retry.count", "quarantine.count", "fault.count"):
            assert name in metrics
            assert metrics.value(name) == 0.0


class TestFaultMarkers:
    def test_instant_fault_records_marker_and_counter(self):
        telemetry = Telemetry()
        event = telemetry.instant_fault(
            "device 0.0 lost", lane=telemetry.gpu_lane(StackRef(0, 0)),
            kind="device-loss", tick=5,
        )
        assert event.phase == INSTANT
        assert event.lane == "gpu 0.0"
        assert telemetry.faults_observed() == 1
        assert telemetry.metrics.value("fault.count", kind="device-loss") == 1

    def test_default_lane_is_the_fault_lane(self):
        telemetry = Telemetry()
        event = telemetry.instant_fault("plane 1 outage", kind="plane-outage")
        assert event.lane == "faults"


class TestQueueCache:
    def test_queue_cached_per_stack(self):
        telemetry = Telemetry()
        engine = _engine(telemetry)
        ref = engine.node.stacks()[0]
        q1 = telemetry.sycl_queue(engine, ref)
        q2 = telemetry.sycl_queue(engine, ref)
        assert q1 is q2
        other = telemetry.sycl_queue(engine, engine.node.stacks()[1])
        assert other is not q1
        assert other.lane != q1.lane

    def test_lost_device_raises_retryable(self):
        from repro.errors import DeviceLostError
        from repro.faults import ExecutionContext

        telemetry = Telemetry()
        ctx = ExecutionContext("device-loss", seed=7, telemetry=telemetry)
        engine = ctx.engine("aurora")
        engine.faults.fast_forward()
        dead = [r for r in engine.node.stacks() if engine.faults.is_dead(r)]
        assert dead
        with pytest.raises(DeviceLostError):
            telemetry.sycl_queue(engine, dead[0])


class TestSummary:
    def test_summary_counts(self):
        telemetry = Telemetry()
        telemetry.tracer.complete("k", telemetry.run_lane(), duration_us=1.0)
        telemetry.instant_fault("boom", kind="device-loss")
        text = telemetry.summary()
        assert "1 span(s)" in text
        assert "1 instant event(s)" in text
        assert "1 fault(s) observed" in text


class TestUntracedSession:
    def test_records_metrics_and_no_events(self):
        telemetry = Telemetry(trace=False)
        assert telemetry.tracer is None
        lane = telemetry.gpu_lane(StackRef(0, 1))
        assert lane == "gpu 0.1"
        assert telemetry.rank_lane(2) == "rank 2"
        with telemetry.span("gemm.run", system="aurora"):
            telemetry.complete("k", lane, duration_us=1.0)
        assert telemetry.instant_fault("boom", kind="device-loss") is None
        assert telemetry.faults_observed() == 1
        assert telemetry.metrics.value("fault.count", kind="device-loss") == 1
