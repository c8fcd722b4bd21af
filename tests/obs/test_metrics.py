"""Tests for the metrics registry (counters and gauges)."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry, parse_series_key, series_key


class TestSeriesKey:
    def test_bare_name(self):
        assert series_key("calls_total", (), ()) == "calls_total"

    def test_labels_render_in_declared_order(self):
        key = series_key("calls_total", ("host", "outcome"), ("a.test", "ok"))
        assert key == "calls_total{host=a.test,outcome=ok}"


class TestParseSeriesKey:
    def test_bare_name(self):
        assert parse_series_key("a_total") == ("a_total", {})

    def test_labels(self):
        name, labels = parse_series_key("xrpc_calls_total{host=h.test,outcome=ok}")
        assert name == "xrpc_calls_total"
        assert labels == {"host": "h.test", "outcome": "ok"}


class TestCounters:
    def test_inc_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", ("kind",))
        counter.inc(("commit",))
        counter.inc(("commit",), 2)
        counter.inc(("identity",))
        assert counter.get(("commit",)) == 3
        assert sum(value for _, value in counter.items()) == 4

    def test_unlabeled_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks_total")
        counter.inc()
        counter.inc((), 5)
        assert counter.get() == 6

    def test_sum_by_projects_one_label(self):
        registry = MetricsRegistry()
        counter = registry.counter("calls_total", ("host", "outcome"))
        counter.inc(("a.test", "ok"), 3)
        counter.inc(("a.test", "error"), 1)
        counter.inc(("b.test", "ok"), 2)
        assert counter.sum_by(0) == {"a.test": 4, "b.test": 2}
        assert counter.sum_by(1) == {"ok": 5, "error": 1}

    def test_idempotent_declaration_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", ("a",))
        again = registry.counter("x_total", ("a",))
        assert first is again

    def test_conflicting_declaration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", ("b",))
        with pytest.raises(ValueError):
            registry.gauge("x_total", ("a",))


class TestOpenMetrics:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("calls_total", ("host", "outcome")).inc(("a.test", "ok"), 3)
        registry.counter("calls_total", ("host", "outcome")).inc(("a.test", "error"), 1)
        registry.gauge("depth", ("host",)).set(("h",), 7)
        registry.counter("wall_us_total", volatile=True).inc((), 99)
        return registry

    def test_counter_type_uses_base_name_sample_keeps_total(self):
        text = self.build().render_openmetrics()
        assert "# TYPE calls counter\n" in text
        assert 'calls_total{host="a.test",outcome="ok"} 3\n' in text
        assert "# TYPE calls_total" not in text

    def test_gauge_and_eof_terminator(self):
        text = self.build().render_openmetrics()
        assert "# TYPE depth gauge\n" in text
        assert 'depth{host="h"} 7\n' in text
        assert text.endswith("# EOF\n")

    def test_volatile_excluded_by_default_included_on_request(self):
        assert "wall_us_total" not in self.build().render_openmetrics()
        assert "wall_us_total 99" in self.build().render_openmetrics(
            include_volatile=True
        )

    def test_byte_identical_across_builds(self):
        assert self.build().render_openmetrics() == self.build().render_openmetrics()

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", ("v",)).inc(('a"b\\c\nd',))
        text = registry.render_openmetrics()
        assert 'odd_total{v="a\\"b\\\\c\\nd"} 1\n' in text


class TestSnapshot:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("b_total", ("k",)).inc(("z",))
        registry.counter("b_total", ("k",)).inc(("a",), 2)
        registry.counter("a_total").inc()
        registry.gauge("depth", ("host",)).set(("h",), 7)
        registry.counter("wall_us_total", volatile=True).inc((), 123)
        return registry

    def test_snapshot_sorted_and_volatile_excluded(self):
        snapshot = self.build().snapshot()
        assert snapshot["schema"] == "repro-metrics-v1"
        keys = list(snapshot["counters"])
        assert keys == sorted(keys)
        assert "wall_us_total" not in snapshot["counters"]
        assert snapshot["gauges"]["depth{host=h}"] == 7
        assert set(snapshot) == {"schema", "counters", "gauges"}

    def test_snapshot_json_deterministic(self):
        a = self.build().snapshot_json()
        b = self.build().snapshot_json()
        assert a == b
        assert a.endswith("\n")
        json.loads(a)  # round-trips

    def test_include_volatile_opt_in(self):
        snapshot = self.build().snapshot(include_volatile=True)
        assert snapshot["counters"]["wall_us_total"] == 123


class TestStateAdopt:
    def test_round_trip_preserves_series_and_identity(self):
        registry = self.populated()
        counter = registry.family("calls_total")
        state = registry.state()

        fresh = MetricsRegistry()
        fresh_counter = fresh.counter("calls_total", ("host",))
        fresh_counter.inc(("stale.test",), 99)  # must be cleared by adopt
        fresh.gauge("depth")
        fresh.adopt(state)
        assert fresh.snapshot_json() == registry.snapshot_json()
        # adopt() keeps family objects alive: bound references still work.
        assert fresh.family("calls_total") is fresh_counter
        fresh_counter.inc(("a.test",))
        assert fresh_counter.get(("a.test",)) == counter.get(("a.test",)) + 1

    def test_volatile_families_not_in_state(self):
        registry = self.populated()
        registry.counter("wall_us_total", volatile=True).inc((), 5)
        assert "wall_us_total" not in registry.state()

    @staticmethod
    def populated():
        registry = MetricsRegistry()
        registry.counter("calls_total", ("host",)).inc(("a.test",), 4)
        registry.gauge("depth").set((), 3)
        return registry
