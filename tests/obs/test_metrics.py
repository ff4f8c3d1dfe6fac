"""Unit tests for the metrics registry and the Observability bundle."""

from __future__ import annotations

from repro.obs import Observability
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        metrics = MetricsRegistry()
        metrics.counter("net.messages")
        metrics.counter("net.messages", 3.0)
        assert metrics.counter_value("net.messages") == 4.0
        assert metrics.counter_value("never.recorded") == 0.0

    def test_gauge_overwrites(self):
        metrics = MetricsRegistry()
        metrics.gauge("ordserv.stream_length", 2.0)
        metrics.gauge("ordserv.stream_length", 5.0)
        assert metrics.snapshot()["gauges"]["ordserv.stream_length"] == 5.0

    def test_counters_matching_prefix(self):
        metrics = MetricsRegistry()
        metrics.counter("crypto.envelope_sign.ops", 2.0)
        metrics.counter("crypto.envelope_sign.s", 0.25)
        metrics.counter("net.messages")
        matched = metrics.counters_matching("crypto.")
        assert set(matched) == {"crypto.envelope_sign.ops", "crypto.envelope_sign.s"}

    def test_breakdown_reads_a_family_by_key(self):
        metrics = MetricsRegistry()
        metrics.counter("net.messages")
        metrics.counter("net.messages.read", 2.0)
        metrics.counter("net.messages.write")
        metrics.counter("net.bytes_total", 9.0)
        assert metrics.breakdown("net.messages") == {"read": 2.0, "write": 1.0}
        assert metrics.breakdown("net.bytes") == {}


class TestHistograms:
    def test_observe_tracks_count_sum_min_max_mean(self):
        histogram = Histogram()
        for value in (0.002, 0.5, 0.004):
            histogram.observe(value)
        assert histogram.count == 3
        assert abs(histogram.total - 0.506) < 1e-12
        assert histogram.minimum == 0.002
        assert histogram.maximum == 0.5
        assert abs(histogram.mean - 0.506 / 3) < 1e-12

    def test_empty_histogram_has_no_mean(self):
        assert Histogram().mean is None

    def test_values_land_in_power_of_four_buckets(self):
        histogram = Histogram()
        histogram.observe(0.5e-6)  # below the first bound
        histogram.observe(10.0)  # above the last bound -> overflow bucket
        assert histogram.buckets[0] == 1
        assert histogram.buckets[-1] == 1
        assert len(histogram.buckets) == len(DEFAULT_BUCKETS) + 1

    def test_equality_compares_contents(self):
        one, two = Histogram(), Histogram()
        one.observe(0.01)
        two.observe(0.01)
        assert one == two
        two.observe(0.02)
        assert one != two

    def test_wire_form_is_json_ready(self):
        histogram = Histogram()
        histogram.observe(0.01)
        wire = histogram.to_wire()
        assert wire["count"] == 1
        assert wire["sum"] == 0.01
        assert wire["bounds"] == list(DEFAULT_BUCKETS)
        assert sum(wire["buckets"]) == 1

    def test_registry_observe_creates_and_reuses(self):
        metrics = MetricsRegistry()
        metrics.observe("storage.mht_sweep_hashes", 6.0)
        metrics.observe("storage.mht_sweep_hashes", 8.0)
        assert metrics.histogram("storage.mht_sweep_hashes").count == 2
        assert metrics.histogram("never.observed") is None

    def test_snapshot_contains_all_three_families(self):
        metrics = MetricsRegistry()
        metrics.counter("a.count")
        metrics.gauge("b.level", 1.0)
        metrics.observe("c.duration", 0.1)
        snapshot = metrics.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["histograms"]["c.duration"]["count"] == 1


class TestObservabilityBundle:
    def test_tracing_defaults_off_and_can_be_enabled(self):
        assert not Observability().tracing
        assert Observability(tracing=True).tracing

    def test_attribution_block_shape(self):
        obs = Observability(tracing=True)
        obs.metrics.counter("crypto.envelope_sign.s", 0.25)
        obs.metrics.counter("crypto.envelope_sign.ops", 5.0)
        obs.metrics.counter("net.bytes_total", 1024.0)
        obs.tracer.add_span("get_vote", "phase", "s0", 0.0, 0.5)
        block = obs.attribution(makespan=1.0)
        assert block["phases_s"] == {"get_vote": 0.5}
        # Only the ``.s`` counters count as wall time, never the op counts.
        assert block["subsystems"]["crypto_wall_s"] == 0.25
        assert block["subsystems"]["net_bytes_total"] == 1024.0
        assert block["makespan_s"] == 1.0
        assert 0.0 <= block["coverage"] <= 1.0
        assert block["fingerprint"] == obs.tracer.fingerprint()

    def test_attribution_without_tracing_omits_trace_fields(self):
        block = Observability().attribution()
        assert "fingerprint" not in block
        assert "coverage" not in block
        assert "metrics" in block
