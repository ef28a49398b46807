"""Fault plans: seeded draws, clocks, scenario builders, determinism."""

import pytest

from repro.errors import ScenarioError
from repro.faults import SCENARIO_NAMES, FaultClock, FaultKind, SeededDraw, build_plan
from repro.hw.systems import get_system


class TestSeededDraw:
    def test_unit_is_stable(self):
        a = SeededDraw(7, "ns").unit("k")
        b = SeededDraw(7, "ns").unit("k")
        assert a == b
        assert 0.0 <= a < 1.0

    def test_seed_and_namespace_decorrelate(self):
        base = SeededDraw(7, "ns").unit("k")
        assert SeededDraw(8, "ns").unit("k") != base
        assert SeededDraw(7, "other").unit("k") != base

    def test_randint_range(self):
        draw = SeededDraw(0, "ns")
        for i in range(50):
            assert 3 <= draw.randint(3, 9, i) < 9

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SeededDraw(0, "ns").randint(5, 5)

    def test_distinct_ints_sorted_unique(self):
        out = SeededDraw(1, "ns").distinct_ints(4, 0, 100, "x")
        assert out == sorted(set(out))
        assert len(out) == 4


class TestFaultClock:
    def test_tick_monotonic(self):
        clock = FaultClock()
        assert clock.now == 0
        assert [clock.tick() for _ in range(3)] == [1, 2, 3]
        assert clock.now == 3

    def test_streams_independent(self):
        clock = FaultClock()
        assert clock.advance("kernel") == 1
        assert clock.advance("alloc") == 1
        assert clock.advance("kernel") == 2
        assert clock.count("kernel") == 2
        assert clock.count("missing") == 0


class TestScenarios:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_same_seed_same_schedule(self, scenario):
        node = get_system("aurora").node
        a = build_plan(scenario, 3, node)
        b = build_plan(scenario, 3, node)
        assert a.describe() == b.describe()
        assert a.events == b.events

    def test_different_seed_different_schedule(self):
        node = get_system("aurora").node
        a = build_plan("device-loss", 0, node)
        b = build_plan("device-loss", 1, node)
        assert a.describe() != b.describe()

    def test_systems_get_independent_schedules(self):
        a = build_plan("device-loss", 0, get_system("aurora").node)
        d = build_plan("device-loss", 0, get_system("dawn").node)
        assert a.events != d.events

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault scenario"):
            build_plan("meteor-strike", 0, get_system("aurora").node)

    def test_all_excludes_partition(self):
        node = get_system("aurora").node
        plan = build_plan("all", 0, node)
        kinds = {e.kind for e in plan.events}
        assert FaultKind.LINK_CUT not in kinds  # partition's signature fault
        assert FaultKind.DEVICE_LOSS in kinds
        assert FaultKind.KERNEL_TRANSIENT in kinds

    def test_stream_vs_tick_split(self):
        node = get_system("aurora").node
        plan = build_plan("all", 0, node)
        ticks = plan.tick_events()
        streams = plan.stream_events()
        assert all(e.kind.stream is None for e in ticks)
        assert ticks == sorted(ticks, key=lambda e: e.at)
        for stream, events in streams.items():
            for at, event in events.items():
                assert event.kind.stream == stream
                assert event.at == at
