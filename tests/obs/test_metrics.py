"""Metrics registry: keys, instruments, gating, merging, rendering."""

from __future__ import annotations

from repro.obs import metrics
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
    metric_key,
    render_snapshot,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("cache.hits", None) == "cache.hits"
        assert metric_key("cache.hits", {}) == "cache.hits"

    def test_labels_sorted(self):
        assert metric_key("x", {"b": 2, "a": 1}) == "x{a=1,b=2}"

    def test_non_string_values(self):
        assert metric_key("x", {"ok": True, "k": 3}) == "x{k=3,ok=True}"


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 2.5)
        assert reg.snapshot()["counters"] == {"c": 3.5}

    def test_gauge_keeps_last(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", -4.0)
        assert reg.snapshot()["gauges"] == {"g": -4.0}

    def test_histogram_tracks_count_sum_min_max(self):
        reg = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            reg.observe("h", v)
        h = reg.snapshot()["histograms"]["h"]
        assert (h["count"], h["sum"], h["min"], h["max"]) == (
            3.0, 6.0, 1.0, 3.0)

    def test_histogram_buckets_are_cumulative_by_construction(self):
        reg = MetricsRegistry()
        for v in (1e-7, 0.5, 2.0, 1e6):        # under, mid, mid, overflow
            reg.observe("h", v)
        h = reg.snapshot()["histograms"]["h"]
        assert len(h["buckets"]) == len(BUCKET_BOUNDS) + 1
        assert sum(h["buckets"]) == h["count"] == 4.0
        assert h["buckets"][0] == 1.0           # 1e-7 <= 1e-6
        assert h["buckets"][-1] == 1.0          # 1e6 beyond the last bound

    def test_bucket_bound_value_lands_inclusively(self):
        reg = MetricsRegistry()
        reg.observe("h", BUCKET_BOUNDS[5])
        h = reg.snapshot()["histograms"]["h"]
        assert h["buckets"][5] == 1.0

    def test_labels_make_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("c", method="a")
        reg.inc("c", method="b")
        assert reg.snapshot()["counters"] == {
            "c{method=a}": 1.0, "c{method=b}": 1.0}

    def test_reset_and_len(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1)
        reg.observe("h", 1)
        assert len(reg) == 3
        reg.reset()
        assert len(reg) == 0

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("c")
        snap = reg.snapshot()
        snap["counters"]["c"] = 99.0
        assert reg.snapshot()["counters"]["c"] == 1.0


class TestGlobalGating:
    def test_disabled_helpers_record_nothing(self):
        metrics.reset()
        assert not metrics.enabled()
        metrics.inc("c")
        assert metrics.snapshot()["counters"] == {}

    def test_enable_records_and_disable_keeps_data(self):
        metrics.reset()
        metrics.enable()
        metrics.inc("c")
        metrics.disable()
        metrics.inc("c")  # ignored
        assert metrics.snapshot()["counters"] == {"c": 1.0}


class TestMergeSnapshots:
    def test_counters_add_gauges_last_histograms_merge(self):
        a = {"counters": {"c": 1.0}, "gauges": {"g": 1.0},
             "histograms": {"h": {"count": 1.0, "sum": 2.0,
                                  "min": 2.0, "max": 2.0}}}
        b = {"counters": {"c": 2.0, "d": 5.0}, "gauges": {"g": 7.0},
             "histograms": {"h": {"count": 2.0, "sum": 2.0,
                                  "min": 0.5, "max": 1.5}}}
        out = merge_snapshots([a, b])
        assert out["counters"] == {"c": 3.0, "d": 5.0}
        assert out["gauges"] == {"g": 7.0}
        assert out["histograms"]["h"] == {
            "count": 3.0, "sum": 4.0, "min": 0.5, "max": 2.0}

    def test_tolerates_missing_sections(self):
        out = merge_snapshots([{}, {"counters": {"c": 1.0}}])
        assert out["counters"] == {"c": 1.0}

    def test_empty_input(self):
        out = merge_snapshots([])
        assert out == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_empty_histogram_section_merges_clean(self):
        out = merge_snapshots([{"histograms": {}},
                               {"histograms": {}}])
        assert out["histograms"] == {}

    def test_bucketed_histograms_merge_elementwise(self):
        def snap_with(values):
            reg = MetricsRegistry()
            for v in values:
                reg.observe("h", v)
            return reg.snapshot()

        out = merge_snapshots([snap_with([0.5, 2.0]), snap_with([0.25])])
        h = out["histograms"]["h"]
        assert h["count"] == 3.0
        assert sum(h["buckets"]) == 3.0

    def test_colliding_key_with_legacy_histogram_drops_buckets(self):
        """A pre-bucket trace record merging onto a bucketed one keeps
        the summary stats but cannot keep the buckets."""
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        legacy = {"histograms": {"h": {"count": 2.0, "sum": 5.0,
                                       "min": 2.0, "max": 3.0}}}
        for order in ([reg.snapshot(), legacy], [legacy, reg.snapshot()]):
            h = merge_snapshots(order)["histograms"]["h"]
            assert "buckets" not in h
            assert (h["count"], h["sum"]) == (3.0, 6.0)
            assert (h["min"], h["max"]) == (1.0, 3.0)

    def test_colliding_keys_across_kinds_stay_separate(self):
        """The same key string as counter in one snapshot and gauge in
        another lands in its own section, never cross-merged."""
        out = merge_snapshots([{"counters": {"x": 1.0}},
                               {"gauges": {"x": 9.0}}])
        assert out["counters"]["x"] == 1.0
        assert out["gauges"]["x"] == 9.0

    def test_merge_does_not_alias_inputs(self):
        a = {"histograms": {"h": {"count": 1.0, "sum": 1.0, "min": 1.0,
                                  "max": 1.0, "buckets": [1.0, 0.0]}}}
        out = merge_snapshots([a])
        out["histograms"]["h"]["buckets"][0] = 99.0
        assert a["histograms"]["h"]["buckets"][0] == 1.0


class TestHistogramQuantile:
    def test_empty_and_legacy_return_none(self):
        assert histogram_quantile({"count": 0.0, "buckets": []}, 0.5) is None
        assert histogram_quantile(
            {"count": 2.0, "sum": 3.0, "min": 1.0, "max": 2.0}, 0.5) is None

    def test_single_observation_reports_itself(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.007)
        h = reg.snapshot()["histograms"]["h"]
        for q in (0.5, 0.95, 0.99):
            assert histogram_quantile(h, q) == 0.007

    def test_quantiles_are_monotone_and_clamped(self):
        reg = MetricsRegistry()
        for v in (0.001, 0.002, 0.05, 0.3, 1.2, 4.0, 9.0, 80.0):
            reg.observe("h", v)
        h = reg.snapshot()["histograms"]["h"]
        p50 = histogram_quantile(h, 0.50)
        p95 = histogram_quantile(h, 0.95)
        p99 = histogram_quantile(h, 0.99)
        assert h["min"] <= p50 <= p95 <= p99 <= h["max"]

    def test_overflow_bucket_interpolates_toward_max(self):
        reg = MetricsRegistry()
        for v in (1.0, 5000.0):                 # 5000 > last bound (1000)
            reg.observe("h", v)
        h = reg.snapshot()["histograms"]["h"]
        assert histogram_quantile(h, 0.99) <= 5000.0


class TestRender:
    def test_sections_and_values(self):
        snap = {"counters": {"c": 2.0}, "gauges": {"g": 1.5},
                "histograms": {"h": {"count": 2.0, "sum": 3.0,
                                     "min": 1.0, "max": 2.0}}}
        text = render_snapshot(snap)
        assert "c = 2" in text
        assert "g = 1.5" in text
        assert "mean=1.5" in text

    def test_empty_snapshot(self):
        assert "no metrics" in render_snapshot({})

    def test_indent(self):
        text = render_snapshot({"counters": {"c": 1.0}}, indent="  ")
        assert text.startswith("  counters:")

    def test_bucketed_histogram_renders_quantiles(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("h", v)
        text = render_snapshot(reg.snapshot())
        assert "p50=" in text and "p95=" in text and "p99=" in text

    def test_legacy_histogram_renders_without_quantiles(self):
        snap = {"histograms": {"h": {"count": 2.0, "sum": 3.0,
                                     "min": 1.0, "max": 2.0}}}
        text = render_snapshot(snap)
        assert "mean=1.5" in text and "p50=" not in text


class TestRsolveMetricsIntegration:
    def test_successful_solves_feed_registry(self):
        """The satellite bugfix: success-path diagnostics reach metrics."""
        import numpy as np

        from repro.qbd.rmatrix import solve_R
        A0 = np.array([[0.2, 0.0], [0.1, 0.1]])
        A2 = np.array([[0.5, 0.1], [0.2, 0.6]])
        A1 = -(np.diag(A0.sum(1) + A2.sum(1) + 0.3)) + 0.15 * np.ones((2, 2))
        metrics.reset()
        metrics.enable()
        solve_R(A0, A1, A2, method="logreduction")
        snap = metrics.snapshot()
        assert snap["counters"][
            "rsolve.solves{method=logreduction}"] == 1.0
        hist = snap["histograms"][
            "rsolve.iterations{method=logreduction}"]
        assert hist["count"] == 1.0 and hist["max"] >= 1.0
        assert "rsolve.residual{method=logreduction}" in snap["histograms"]
