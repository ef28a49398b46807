"""Fold property: recorded events give exactly the eager metrics.

``PerfEngine.kernel_time_s`` and ``PerfEngine.roofline`` record immutable
events instead of updating the metrics, and the registry folds them
when the metrics are read.  The property: for any interleaving of
kernel events, sim-cache events, eager updates and reads, every
exporter of the folding registry equals that of a reference registry
that made the same updates eagerly, in the same order, through
``inc``/``observe``/``set_gauge`` — floats bit for bit.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import CacheEvent, KernelEvent
from repro.sim.kernel import KernelSpec
from repro.sim.roofline import RooflinePoint
from repro.telemetry.metrics import MetricsRegistry

_REGIME_CODE = {"latency": 0.0, "memory": 1.0, "compute": 2.0}


def eager_kernel(reg: MetricsRegistry, event: KernelEvent) -> None:
    """The updates ``kernel_time_s`` made before it recorded events."""
    spec, point = event.spec, event.point
    reg.inc(f"simcache.{event.cache}")
    reg.inc("kernel.count", bound=point.bound, kernel=spec.name)
    if spec.flops:
        reg.inc("kernel.flops", spec.flops)
    if spec.total_bytes:
        reg.inc("kernel.bytes", spec.total_bytes)
    reg.observe("kernel.time_us", event.time_s * 1e6, kernel=spec.name)
    reg.set_gauge("roofline.regime", _REGIME_CODE[point.bound],
                  kernel=spec.name)
    reg.set_gauge(
        "kernel.occupancy",
        point.compute_s / point.total_s if point.total_s else 0.0,
        kernel=spec.name,
    )


_seconds = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_amount = st.floats(min_value=0.0, max_value=1e17, allow_nan=False)

kernel_events = st.builds(
    KernelEvent,
    spec=st.builds(
        KernelSpec,
        name=st.sampled_from(["dgemm", "triad", "fft_1d"]),
        flops=_amount,
        bytes_read=_amount,
        bytes_written=_amount,
        serial_chases=st.just(1),
    ),
    system=st.sampled_from(["aurora", "dawn"]),
    n_stacks=st.integers(1, 12),
    point=st.builds(RooflinePoint, _seconds, _seconds, _seconds),
    time_s=_seconds,
    rep=st.none() | st.integers(0, 5),
    cache=st.sampled_from(["hit", "miss", "bypass"]),
)

READS = ("snapshot", "to_prometheus", "to_openmetrics", "percentile_summary")

steps = st.lists(
    st.one_of(
        st.tuples(st.just("kernel"), kernel_events),
        st.tuples(st.just("cache"), st.sampled_from(["hit", "miss", "bypass"])),
        # Eager updates, on the folded families too: the fold must keep
        # their order relative to the events.
        st.tuples(
            st.just("inc"),
            st.sampled_from(["kernel.flops", "simcache.hit", "route.count"]),
            _amount,
        ),
        st.tuples(st.just("observe"), _seconds),
        st.tuples(st.just("set"), _seconds),
        st.tuples(st.just("read"), st.sampled_from(READS)),
    ),
    max_size=40,
)


def _exports(reg: MetricsRegistry) -> tuple:
    return tuple(getattr(reg, read)() for read in READS)


def _flops_event(flops: float) -> KernelEvent:
    return KernelEvent(
        KernelSpec("dgemm", flops=flops, serial_chases=1), "aurora", 1,
        RooflinePoint(1.0, 1.0, 1.0), 1.0, None, "hit",
    )


@settings(max_examples=60, deadline=None)
@given(steps=steps)
# An eager update must fold the pending events first: 1 + 1e16 + 1
# and 1 + 1 + 1e16 round differently.
@example(steps=[
    ("kernel", _flops_event(1.0)),
    ("kernel", _flops_event(1e16)),
    ("inc", "kernel.flops", 1.0),
])
def test_folded_events_export_like_eager_updates(steps):
    folded, eager = MetricsRegistry(), MetricsRegistry()
    for step in steps:
        kind = step[0]
        if kind == "kernel":
            folded.record(step[1])
            eager_kernel(eager, step[1])
        elif kind == "cache":
            folded.record(CacheEvent(step[1]))
            eager.inc(f"simcache.{step[1]}")
        elif kind == "inc":
            labels = {"hops": 2} if step[1] == "route.count" else {}
            for reg in (folded, eager):
                reg.inc(step[1], step[2], **labels)
        elif kind == "observe":
            for reg in (folded, eager):
                reg.observe("kernel.time_us", step[1], kernel="dgemm")
        elif kind == "set":
            for reg in (folded, eager):
                reg.set_gauge("kernel.occupancy", step[1], kernel="dgemm")
        else:
            assert getattr(folded, step[1])() == getattr(eager, step[1])()
    assert _exports(folded) == _exports(eager)
