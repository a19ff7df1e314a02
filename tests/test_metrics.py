"""Unit tests for telemetry and latency summaries."""

import pytest

from repro.metrics.summary import LatencySummary, summarize_latencies
from repro.metrics.telemetry import Telemetry
from repro.sim.engine import Simulator


class TestTelemetry:
    def test_counters_accumulate(self):
        t = Telemetry(Simulator())
        t.count("x")
        t.count("x", 4)
        assert t.get("x") == 5
        assert t.get("missing") == 0

    def test_window_counts_delta_only(self):
        sim = Simulator()
        t = Telemetry(sim)
        t.count("bytes", 100)
        sim.call_in(10.0, lambda: None)
        sim.run()
        t.start_window()
        t.count("bytes", 50)
        assert t.window_count("bytes") == 50

    def test_window_count_without_window_is_total(self):
        t = Telemetry(Simulator())
        t.count("x", 3)
        assert t.window_count("x") == 3

    def test_samples_dropped_during_warmup(self):
        t = Telemetry(Simulator())
        t.observe("lat", 1.0)
        assert t.sample_list("lat") == []
        t.start_window()
        t.observe("lat", 2.0)
        assert t.sample_list("lat") == [2.0]

    def test_window_rate_gbps(self):
        sim = Simulator()
        t = Telemetry(sim)
        t.start_window()
        t.count("bytes", 125)  # 125 B over 10 ns = 100 Gbps
        sim.call_in(10.0, lambda: None)
        sim.run()
        assert t.window_rate_gbps("bytes") == pytest.approx(100.0)

    def test_rate_zero_before_time_passes(self):
        t = Telemetry(Simulator())
        t.start_window()
        t.count("bytes", 100)
        assert t.window_rate_gbps("bytes") == 0.0

    def test_start_window_clears_samples(self):
        sim = Simulator()
        t = Telemetry(sim)
        t.start_window()
        t.observe("lat", 1.0)
        t.start_window()
        assert t.sample_list("lat") == []

    def test_prewindow_samples_dropped_by_default(self):
        t = Telemetry(Simulator())
        t.observe("lat", 1.0)
        assert t.sample_list("lat") == []

    def test_rate_zero_elapsed_window(self):
        # window opened and bytes counted but the clock never advanced:
        # must return 0.0, not divide by zero
        sim = Simulator()
        t = Telemetry(sim)
        sim.call_in(5.0, lambda: None)
        sim.run()
        t.start_window()
        t.count("bytes", 10_000)
        assert t.window_elapsed_ns == 0.0
        assert t.window_rate_gbps("bytes") == 0.0

    def test_counter_deltas_across_repeated_windows(self):
        sim = Simulator()
        t = Telemetry(sim)
        t.count("bytes", 100)
        t.start_window()
        t.count("bytes", 40)
        assert t.window_count("bytes") == 40
        # reopening the window re-bases the delta at the new total
        t.start_window()
        assert t.window_count("bytes") == 0
        t.count("bytes", 7)
        assert t.window_count("bytes") == 7
        assert t.get("bytes") == 147  # absolute counter is never rewound

    def test_keeps_every_in_window_sample(self):
        # 150,000 samples, past what a 100k reservoir would keep, in a
        # permuted order: a sampled subset would almost surely move the p99
        t = Telemetry(Simulator())
        t.start_window()
        n = 150_000
        vals = [float((i * 7919) % n) for i in range(n)]
        for v in vals:
            t.observe("lat", v)
        assert t.sample_list("lat") == vals
        s = summarize_latencies(t.sample_list("lat"))
        assert s.count == n
        # the values are 0..n-1: the exact p99 interpolates at rank 0.99 (n - 1)
        assert s.p99_us == pytest.approx(0.99 * (n - 1) / 1e3)


class TestSummary:
    def test_summarize_converts_to_us(self):
        s = summarize_latencies([1_000.0, 3_000.0])
        assert s.count == 2
        assert s.mean_us == pytest.approx(2.0)
        assert s.max_us == pytest.approx(3.0)

    def test_summarize_empty(self):
        s = summarize_latencies([])
        assert s == LatencySummary(0, 0.0, 0.0, 0.0, 0.0)

    def test_summary_str(self):
        s = summarize_latencies([1_000.0])
        assert "p99" in str(s)

    def test_p99_above_p50(self):
        samples = [float(i) for i in range(1000)]
        s = summarize_latencies(samples)
        assert s.p99_us >= s.p50_us >= 0
