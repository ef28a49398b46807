"""Execution tracing through the telemetry-wired SYCL queues."""

import json

import pytest

from repro.hw.systems import get_system
from repro.runtime.sycl import stack_queue
from repro.sim.engine import PerfEngine
from repro.sim.kernel import triad_kernel
from repro.sim.noise import QUIET
from repro.telemetry import Telemetry, TraceEvent, Tracer


def _engine(telemetry: Telemetry) -> PerfEngine:
    return PerfEngine(get_system("aurora"), noise=QUIET, telemetry=telemetry)


@pytest.fixture()
def traced():
    telemetry = Telemetry()
    engine = _engine(telemetry)
    queue = stack_queue(engine, engine.node.stacks()[0])
    queue.set_repetition(2)
    return telemetry.tracer, queue


class TestTracer:
    def test_records_memcpy_and_kernel(self, traced):
        tracer, queue = traced
        host = queue.malloc_host(1 << 20)
        dev = queue.malloc_device(1 << 20)
        queue.memcpy(dev, host)
        queue.submit(triad_kernel(1 << 20))
        queue.memcpy(host, dev)
        events = tracer.events
        assert len(events) == 3
        assert events[0].category == "transfer"
        assert events[1].category == "kernel"
        assert "stream-triad" in events[1].name

    def test_events_nonoverlapping_in_order(self, traced):
        tracer, queue = traced
        host = queue.malloc_host(1 << 20)
        dev = queue.malloc_device(1 << 20)
        for _ in range(4):
            queue.memcpy(dev, host)
        ends = 0.0
        for e in tracer.events:
            assert e.start_us >= ends
            ends = e.start_us + e.duration_us

    def test_busy_time_and_span(self, traced):
        tracer, queue = traced
        host = queue.malloc_host(1 << 20)
        dev = queue.malloc_device(1 << 20)
        queue.memcpy(dev, host)
        queue.memcpy(host, dev)
        busy = tracer.total_busy_us("gpu 0.0")
        assert busy > 0
        assert tracer.span_us() >= busy * 0.99

    def test_chrome_export_is_valid_json(self, traced):
        tracer, queue = traced
        host = queue.malloc_host(1 << 16)
        dev = queue.malloc_device(1 << 16)
        queue.memcpy(dev, host)
        doc = json.loads(tracer.export_json())
        assert doc["traceEvents"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(
            e["name"] == "thread_name" and e["args"]["name"] == "gpu 0.0"
            for e in meta
        )
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["args"]["nbytes"] == 1 << 16

    def test_multiple_lanes_sorted_by_key(self):
        telemetry = Telemetry()
        engine = _engine(telemetry)
        stacks = engine.node.stacks()
        # Acquire out of order: the export must still sort by sort key.
        q1 = stack_queue(engine, stacks[1])
        q0 = stack_queue(engine, stacks[0])
        q0.submit(triad_kernel(1 << 16))
        q1.submit(triad_kernel(1 << 16))
        tracer = telemetry.tracer
        assert tracer.lanes() == ["run", "gpu 0.0", "gpu 0.1"]
        doc = json.loads(tracer.export_json())
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert tids == {1, 2}

    def test_rank_and_queue_lanes_interleaved_sort_canonically(self):
        # Ranks and queues registered in scrambled order must export in
        # the canonical order: run, ranks numerically (rank 2 before
        # rank 10, despite "rank 10" < "rank 2" lexically), queues by
        # (card, stack), then the default group (faults).
        from repro.hw.ids import StackRef

        telemetry = Telemetry()
        telemetry.gpu_lane(StackRef(1, 1))
        telemetry.rank_lane(10)
        telemetry.fault_lane()
        telemetry.rank_lane(2)
        telemetry.gpu_lane(StackRef(0, 0))
        assert telemetry.tracer.lanes() == [
            "run", "rank 2", "rank 10", "gpu 0.0", "gpu 1.1", "faults",
        ]

    def test_span_nests_and_covers_children(self):
        tracer = Tracer()
        with tracer.span("outer", lane="run"):
            tracer.complete("child a", "run", duration_us=5.0)
            with tracer.span("inner", lane="run"):
                tracer.complete("child b", "run", duration_us=7.0)
        spans = {e.name: e for e in tracer.events}
        assert spans["inner"].duration_us == pytest.approx(7.0)
        assert spans["outer"].duration_us == pytest.approx(12.0)
        assert spans["outer"].start_us == 0.0

    def test_instant_markers_counted(self):
        tracer = Tracer()
        tracer.instant("device 0.0 lost", "faults", kind="device-loss")
        assert tracer.n_instants() == 1
        assert tracer.n_instants("fault") == 1
        assert tracer.n_instants("other") == 0
        doc = json.loads(tracer.export_json())
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert inst and inst[0]["s"] == "t"

    def test_export_is_deterministic(self):
        def build() -> str:
            telemetry = Telemetry()
            engine = _engine(telemetry)
            queue = stack_queue(engine, engine.node.stacks()[0])
            queue.set_repetition(1)
            host = queue.malloc_host(1 << 16)
            dev = queue.malloc_device(1 << 16)
            queue.memcpy(dev, host)
            queue.submit(triad_kernel(1 << 16))
            return telemetry.tracer.export_json()

        assert build() == build()

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record(
                TraceEvent(name="x", lane="l", start_us=0.0, duration_us=-1.0)
            )

    def test_queue_exposes_usm_and_clock(self, traced):
        _, queue = traced
        alloc = queue.malloc_shared(64)
        assert alloc.nbytes == 64
        assert queue.now_ns >= 0


class TestReportGenerators:
    def test_full_report_mentions_everything(self):
        from repro.analysis.report import full_report

        text = full_report()
        for token in (
            "Table II",
            "Table VI",
            "Figure 2",
            "fp64_flops",
            "minibude",
            "| yes |",
        ):
            assert token in text
        assert "| NO |" not in text  # every claim holds

    def test_table2_markdown_devs_small(self):
        from repro.analysis.report import table2_markdown

        text = table2_markdown()
        rows = [l for l in text.splitlines() if l.startswith("| fp64")]
        assert rows
        for row in rows:
            dev = float(row.split("|")[-2].strip().rstrip("%"))
            assert abs(dev) < 6.0
