"""Metrics registry: counters, gauges, histograms, exporters."""

import json
import sys
import threading
import time

import pytest

from repro.sim.engine import KernelEvent
from repro.sim.kernel import KernelSpec
from repro.sim.roofline import RooflinePoint
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_labelled_increments(self):
        reg = MetricsRegistry()
        reg.inc("transfer.bytes", 100.0, path="xelink")
        reg.inc("transfer.bytes", 50.0, path="xelink")
        reg.inc("transfer.bytes", 7.0, path="pcie")
        counter = reg.counter("transfer.bytes")
        assert counter.value(path="xelink") == 150.0
        assert counter.value(path="pcie") == 7.0
        assert counter.total() == 157.0

    def test_counters_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1.0)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("kernel flops")
        with pytest.raises(ValueError):
            reg.inc("ok.name", 1.0, **{"le!": "x"})


class TestGauge:
    def test_set_and_add(self):
        reg = MetricsRegistry()
        reg.set_gauge("kernel.occupancy", 0.5, kernel="dgemm")
        reg.set_gauge("kernel.occupancy", 0.9, kernel="dgemm")
        assert reg.value("kernel.occupancy", kernel="dgemm") == 0.9
        gauge = reg.gauge("kernel.occupancy")
        gauge.add(-0.4, kernel="dgemm")
        assert gauge.value(kernel="dgemm") == pytest.approx(0.5)


class TestHistogram:
    def test_cumulative_buckets(self):
        hist = Histogram("t", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            hist.observe(v)
        assert hist.cumulative_counts() == [1, 2, 3]
        assert hist.count() == 4
        assert hist.sum_observed() == pytest.approx(555.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=(10.0, 1.0))

    def test_default_buckets_cover_microseconds(self):
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
        reg = MetricsRegistry()
        reg.observe("kernel.time_us", 130.0, kernel="dgemm")
        assert reg.histogram("kernel.time_us").count(kernel="dgemm") == 1


class TestPrometheusExport:
    def test_text_format(self):
        reg = MetricsRegistry()
        reg.counter("retry.count", help="retried repetitions")
        reg.inc("retry.count", 2.0, benchmark="gemm")
        reg.set_gauge("roofline.regime", 2.0, kernel="dgemm")
        reg.observe("kernel.time_us", 42.0)
        text = reg.to_prometheus()
        assert "# HELP retry_count retried repetitions" in text
        assert "# TYPE retry_count counter" in text
        assert 'retry_count{benchmark="gemm"} 2' in text
        assert "# TYPE roofline_regime gauge" in text
        assert 'roofline_regime{kernel="dgemm"} 2' in text
        assert "# TYPE kernel_time_us histogram" in text
        assert 'kernel_time_us_bucket{le="100"} 1' in text
        assert 'kernel_time_us_bucket{le="+Inf"} 1' in text
        assert "kernel_time_us_sum 42" in text
        assert "kernel_time_us_count 1" in text

    def test_untouched_counter_prints_zero(self):
        reg = MetricsRegistry()
        reg.counter("retry.count")
        assert "retry_count 0" in reg.to_prometheus()

    def test_export_sorted_and_deterministic(self):
        def build() -> MetricsRegistry:
            reg = MetricsRegistry()
            reg.inc("b.count", 1.0, z="1", a="2")
            reg.inc("a.count", 2.0)
            reg.set_gauge("c.gauge", 3.0)
            return reg

        assert build().to_prometheus() == build().to_prometheus()
        text = build().to_prometheus()
        assert text.index("a_count") < text.index("b_count") < text.index(
            "c_gauge"
        )
        assert 'b_count{a="2",z="1"} 1' in text  # labels sorted too

    def test_export_sorts_labels_defensively(self):
        # Byte-stability must hold even if a label set reaches the store
        # unsorted (hand-built tuples, future refactors, PYTHONHASHSEED
        # differences in whatever produced them): both exporters sort at
        # export time, not just at construction.
        sorted_reg, unsorted_reg = MetricsRegistry(), MetricsRegistry()
        sorted_reg.counter("transfer.bytes")._values[
            (("path", "xelink"), ("plane", "0"))
        ] = 5.0
        unsorted_reg.counter("transfer.bytes")._values[
            (("plane", "0"), ("path", "xelink"))
        ] = 5.0
        assert 'transfer_bytes{path="xelink",plane="0"} 5' in (
            unsorted_reg.to_prometheus()
        )
        assert sorted_reg.to_json() == unsorted_reg.to_json()

    def test_snapshot_label_dicts_are_sorted(self):
        reg = MetricsRegistry()
        reg.inc("route.count", 1.0, hops="2", degraded="no")
        reg.observe("rep.time_us", 9.0, benchmark="gemm", system="aurora")
        doc = reg.snapshot()
        counter_labels = doc["route.count"]["samples"][0]["labels"]
        assert list(counter_labels) == sorted(counter_labels)
        hist_labels = doc["rep.time_us"]["samples"][0]["labels"]
        assert list(hist_labels) == sorted(hist_labels)

    def test_json_snapshot_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("kernel.flops", 1e12, kernel="dgemm")
        reg.observe("kernel.time_us", 5.0)
        doc = json.loads(reg.to_json())
        assert doc["kernel.flops"]["kind"] == "counter"
        assert doc["kernel.flops"]["samples"][0]["value"] == 1e12
        assert doc["kernel.time_us"]["kind"] == "histogram"
        assert doc["kernel.time_us"]["samples"][0]["count"] == 1


class TestPercentiles:
    def test_interpolates_inside_the_bucket(self):
        # 10 observations spread uniformly through the (1, 10] bucket:
        # the PromQL estimator puts the median at the bucket midpoint
        # walk — lower + width * rank_fraction.
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for _ in range(10):
            h.observe(5.0)
        assert h.percentile(0.5) == pytest.approx(1.0 + 9.0 * 0.5)
        assert h.percentile(1.0) == pytest.approx(10.0)

    def test_rank_straddling_buckets(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.5, 50.0, 50.0):
            h.observe(v)
        # p50 rank (2.0) is satisfied by the first bucket boundary.
        assert h.percentile(0.5) == pytest.approx(1.0)
        # p99 rank (3.96) lands inside the (10, 100] bucket.
        p99 = h.percentile(0.99)
        assert 10.0 < p99 <= 100.0

    def test_overflow_rank_clamps_to_largest_finite_bound(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(1e9)  # +Inf bucket only
        assert h.percentile(0.99) == 10.0

    def test_empty_histogram_is_zero(self):
        h = Histogram("lat", buckets=DEFAULT_BUCKETS)
        assert h.percentile(0.99) == 0.0

    def test_quantile_out_of_range_rejected(self):
        h = Histogram("lat", buckets=DEFAULT_BUCKETS)
        with pytest.raises(ValueError, match="quantile"):
            h.percentile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            h.percentile(-0.1)

    def test_percentiles_returns_the_standard_keys(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        row = h.percentiles()
        assert sorted(row) == ["p50", "p95", "p99"]
        assert all(v > 0 for v in row.values())

    def test_summary_folds_label_sets_together(self):
        reg = MetricsRegistry()
        for system in ("aurora", "dawn"):
            for _ in range(5):
                reg.observe("rep.time_us", 5.0, system=system)
        summary = reg.percentile_summary()
        assert list(summary) == ["rep.time_us"]
        row = summary["rep.time_us"]
        assert row["count"] == 10.0
        assert row["sum"] == pytest.approx(50.0)
        # Folded percentile equals the single-label-set percentile
        # because both sets saw identical observations.
        h = reg.histogram("rep.time_us")
        assert row["p50"] == pytest.approx(h.percentile(0.5, system="dawn"))

    def test_summary_skips_non_histograms(self):
        reg = MetricsRegistry()
        reg.inc("events.count")
        reg.set_gauge("phase", 2.0)
        assert reg.percentile_summary() == {}


class TestOpenMetricsExport:
    def test_counter_samples_get_total_suffix(self):
        reg = MetricsRegistry()
        reg.inc("transfer.bytes", 5.0, path="xelink")
        text = reg.to_openmetrics()
        # TYPE names the bare family; the sample carries _total.
        assert "# TYPE transfer_bytes counter" in text
        assert 'transfer_bytes_total{path="xelink"} 5' in text
        assert "transfer_bytes{" not in text

    def test_histogram_family_gets_type_help_and_series(self):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "kernel.time_us", help="per-kernel device time", buckets=(1.0, 10.0)
        )
        hist.observe(0.5)
        hist.observe(5.0)
        text = reg.to_openmetrics()
        assert "# HELP kernel_time_us per-kernel device time" in text
        assert "# TYPE kernel_time_us histogram" in text
        assert 'kernel_time_us_bucket{le="1"} 1' in text
        assert 'kernel_time_us_bucket{le="10"} 2' in text
        assert 'kernel_time_us_bucket{le="+Inf"} 2' in text
        assert "kernel_time_us_sum 5.5" in text
        assert "kernel_time_us_count 2" in text

    def test_gauges_are_unsuffixed(self):
        reg = MetricsRegistry()
        reg.set_gauge("campaign.complete", 1.0)
        text = reg.to_openmetrics()
        assert "# TYPE campaign_complete gauge" in text
        assert "campaign_complete 1" in text
        assert "campaign_complete_total" not in text

    def test_exposition_ends_with_eof(self):
        assert MetricsRegistry().to_openmetrics() == "# EOF\n"
        reg = MetricsRegistry()
        reg.inc("a.b")
        assert reg.to_openmetrics().endswith("# EOF\n")

    def test_deterministic_across_builds(self):
        def build():
            reg = MetricsRegistry()
            reg.inc("units.count", 2.0, status="OK")
            reg.observe("sim.us", 42.0, unit="u1")
            reg.set_gauge("done", 1.0)
            return reg.to_openmetrics()

        assert build() == build()


class TestEventFold:
    """Events recorded with ``record`` fold in before every read."""

    @staticmethod
    def _event():
        return KernelEvent(
            spec=KernelSpec("dgemm", flops=2.0, bytes_read=8.0),
            system="aurora",
            n_stacks=1,
            point=RooflinePoint(3e-6, 1e-6, 0.0),
            time_s=3e-6,
            rep=0,
            cache="hit",
        )

    def test_every_reader_sees_pending_events(self):
        readers = [
            lambda reg: reg.value("kernel.flops") == 2.0,
            lambda reg: "kernel.count" in reg,
            lambda reg: "kernel.time_us" in reg.names(),
            lambda reg: reg.counter("simcache.hit").total() == 1.0,
            lambda reg: reg.gauge("roofline.regime").value(kernel="dgemm") == 2.0,
            lambda reg: reg.histogram("kernel.time_us").count(kernel="dgemm") == 1,
            lambda reg: "kernel_count" in reg.to_prometheus(),
            lambda reg: "kernel_count_total" in reg.to_openmetrics(),
            lambda reg: "kernel.time_us" in reg.percentile_summary(),
            lambda reg: "kernel.bytes" in reg.snapshot(),
        ]
        for read in readers:
            reg = MetricsRegistry()
            reg.record(self._event())
            assert read(reg)

    def test_drop_label_folds_first(self):
        reg = MetricsRegistry()
        reg.record(self._event())
        assert reg.drop_label("kernel", "dgemm") == 4
        assert reg.counter("kernel.count").total() == 0.0

    def test_declaring_help_after_the_events_keeps_first_declaration(self):
        # The events declared ``simcache.hit`` first (no help), exactly
        # as the eager increments did.
        reg = MetricsRegistry()
        reg.record(self._event())
        reg.counter("simcache.hit", "sim memo cache hits")
        assert "# HELP simcache_hit" not in reg.to_prometheus()

    def test_concurrent_records_are_folded_exactly_once(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 4, 500
        event = self._event()
        start = threading.Barrier(n_threads + 1)

        def work(rank):
            start.wait()
            for _ in range(per_thread):
                reg.record(event)
                reg.inc("mpi.messages", rank=rank)

        threads = [
            threading.Thread(target=work, args=(r,)) for r in range(n_threads)
        ]
        previous = sys.getswitchinterval()
        # Switch threads every microsecond, so that records land while
        # another thread is folding.
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            start.wait(timeout=30)
            deadline = time.monotonic() + 30
            while any(t.is_alive() for t in threads):
                assert time.monotonic() < deadline
                reg.snapshot()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        total = n_threads * per_thread
        assert reg.counter("kernel.count").total() == total
        assert reg.counter("simcache.hit").total() == total
        assert reg.histogram("kernel.time_us").count(kernel="dgemm") == total
        assert reg.value("kernel.flops") == 2.0 * total
        assert reg.counter("mpi.messages").total() == total

    def test_bad_names_raise_on_every_use(self):
        reg = MetricsRegistry()
        for _ in range(2):
            with pytest.raises(ValueError, match="bad metric name"):
                reg.inc("kernel flops")
            with pytest.raises(ValueError, match="bad label name"):
                reg.observe("ok.name", 1.0, **{"le!": "x"})
        assert reg.names() == []

    def test_equal_label_values_of_other_types_stay_distinct(self):
        reg = MetricsRegistry()
        reg.inc("c", hops=1)
        reg.inc("c", hops=True)
        reg.inc("c", hops=1.0)
        assert [dict(ls) for ls, _ in reg.counter("c").samples()] == [
            {"hops": "1"}, {"hops": "1.0"}, {"hops": "True"},
        ]
