"""Tests for the counter registry and the exact span-timing summaries
the metrics table prints beside the counters."""

import pytest

from repro.observability.metrics import MetricsRegistry, render_key
from repro.observability.tracing import Tracer, summarize


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_name_returns_same_child(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_labels_create_independent_children(self):
        registry = MetricsRegistry()
        valid = registry.counter("plans", verdict="valid")
        invalid = registry.counter("plans", verdict="invalid")
        assert valid is not invalid
        valid.inc(3)
        assert invalid.value == 0
        assert registry.counter("plans", verdict="valid").value == 3

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x=1, y=2)
        b = registry.counter("m", y=2, x=1)
        assert a is b


class TestHistogram:
    """:func:`summarize`: the exact summary behind each timing row of
    ``--stats``/``trace`` and each entry of ``report --wall``'s
    ``metrics.histograms``."""

    def test_summary_statistics(self):
        summary = summarize([1.0, 3.0, 2.0])
        assert summary["count"] == 3
        assert summary["total"] == 6.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_empty_summary_has_finite_bounds(self):
        assert summarize([]) == {"count": 0, "total": 0.0, "min": 0.0,
                                 "max": 0.0, "mean": 0.0,
                                 "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_percentiles_by_rank_selection(self):
        # The ceil(q * count)-th smallest value, exactly.
        summary = summarize([float(value) for value in range(100, 0, -1)])
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0
        assert summarize([4.0, 1.0, 3.0])["p50"] == 3.0

    def test_percentiles_clamped_to_observed_range(self):
        summary = summarize([0.25])
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.25

    def test_percentiles_are_monotone(self):
        summary = summarize([0.001, 0.01, 0.1, 1.0, 10.0, 10.0, 0.01])
        assert (summary["min"] <= summary["p50"] <= summary["p95"]
                <= summary["p99"] <= summary["max"])

    def test_time_context_manager_observes_once(self):
        # A span is the timer: one block, one observation of its name.
        tracer = Tracer()
        with tracer.span("timer"):
            pass
        summary = tracer.timings()["timer"]
        assert summary["count"] == 1
        assert summary["total"] == tracer.find("timer")[0].duration >= 0.0


class TestSnapshot:
    def test_snapshot_is_json_friendly_and_keyed_flat(self):
        import json
        registry = MetricsRegistry()
        registry.counter("checks", engine="onthefly").inc(2)
        registry.counter("frontier").inc(10)
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {"checks{engine=onthefly}": 2,
                                         "frontier": 10}}
        json.dumps(snapshot)  # must serialise

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("b", kind="x").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.snapshot()["counters"] == {}

    def test_render_key(self):
        assert render_key(("name", ())) == "name"
        assert (render_key(("name", (("a", "1"), ("b", "x"))))
                == "name{a=1,b=x}")

    def test_render_table_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("alpha").inc()
        registry.counter("beta", kind="x").inc(2)
        table = registry.render_table({"gamma": summarize([3.0])})
        lines = table.splitlines()
        assert lines[0].split() == ["alpha", "1"]
        assert lines[1].split() == ["beta{kind=x}", "2"]
        assert lines[2].split() == [
            "gamma", "n=1", "total=3.000000", "mean=3.000000",
            "p50=3.000000", "p95=3.000000", "p99=3.000000"]

    def test_render_table_empty(self):
        assert "no metrics" in MetricsRegistry().render_table()
