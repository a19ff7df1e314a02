"""Integration tests for the scenario harness (short windows)."""

import pytest

from repro.overlay.topology import DatapathKind
from repro.steering.vanilla import VanillaPolicy
from repro.workloads.scenario import Scenario, make_flow

WARM = 0.5e6
MEAS = 2e6


def vanilla_factory(cpus):
    return VanillaPolicy(cpus, app_core=0, role_cores={"first": 1})


class TestScenarioBasics:
    def test_invalid_proto_rejected(self):
        with pytest.raises(ValueError):
            Scenario(DatapathKind.NATIVE, "sctp", vanilla_factory)

    def test_run_without_senders_rejected(self):
        sc = Scenario(DatapathKind.NATIVE, "tcp", vanilla_factory)
        with pytest.raises(RuntimeError):
            sc.run()

    def test_wrong_proto_sender_rejected(self):
        sc = Scenario(DatapathKind.NATIVE, "tcp", vanilla_factory)
        with pytest.raises(RuntimeError):
            sc.add_udp_sender(1000)

    def test_make_flow_distinct_per_client(self):
        assert make_flow("tcp", 0) != make_flow("tcp", 1)

    def test_make_client_flow_uses_proto(self):
        sc = Scenario(DatapathKind.NATIVE, "udp", vanilla_factory)
        assert sc.make_client_flow(0).proto == "udp"


class TestTcpScenario:
    def test_native_tcp_delivers(self):
        sc = Scenario(DatapathKind.NATIVE, "tcp", vanilla_factory)
        sc.add_tcp_sender(65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        assert res.throughput_gbps > 1.0
        assert res.messages_delivered > 0

    def test_overlay_slower_than_native(self):
        results = {}
        for kind in (DatapathKind.NATIVE, DatapathKind.OVERLAY):
            sc = Scenario(kind, "tcp", vanilla_factory, seed=1)
            sc.add_tcp_sender(65536)
            results[kind] = sc.run(warmup_ns=WARM, measure_ns=MEAS).throughput_gbps
        assert results[DatapathKind.OVERLAY] < results[DatapathKind.NATIVE]

    def test_tcp_no_drops(self):
        sc = Scenario(DatapathKind.OVERLAY, "tcp", vanilla_factory)
        sc.add_tcp_sender(65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        assert res.counters.get("backlog_drops", 0) == 0
        assert res.counters.get("nic_ring_drops", 0) == 0

    def test_delivered_bytes_bounded_by_sent(self):
        sc = Scenario(DatapathKind.NATIVE, "tcp", vanilla_factory)
        sender = sc.add_tcp_sender(65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        assert res.counters["tcp_delivered_bytes"] <= sender.next_seq

    def test_kernel_core_is_bottleneck(self):
        sc = Scenario(DatapathKind.OVERLAY, "tcp", vanilla_factory)
        sc.add_tcp_sender(65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        assert res.cpu_utilization[1] > 0.95

    def test_latency_samples_collected(self):
        sc = Scenario(DatapathKind.NATIVE, "tcp", vanilla_factory)
        sc.add_tcp_sender(65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        assert res.latency.count > 0
        assert res.latency.p99_us >= res.latency.p50_us

    def test_deterministic_same_seed(self):
        def once():
            sc = Scenario(DatapathKind.OVERLAY, "tcp", vanilla_factory, seed=3)
            sc.add_tcp_sender(65536)
            return sc.run(warmup_ns=WARM, measure_ns=MEAS).throughput_gbps

        assert once() == once()

    def test_different_seeds_differ_slightly(self):
        """The seed moves the timeline, not the result's scale.  Goodput
        counts delivered chunks, so two seeds can tie on it; the event
        count and the latency summary show the timelines differ."""
        runs = []
        for seed in (1, 2):
            sc = Scenario(DatapathKind.OVERLAY, "tcp", vanilla_factory, seed=seed)
            sc.add_tcp_sender(65536)
            runs.append(sc.run(warmup_ns=WARM, measure_ns=MEAS))
        a, b = runs
        assert a.events_executed != b.events_executed
        assert a.latency.to_dict() != b.latency.to_dict()
        assert a.throughput_gbps == pytest.approx(b.throughput_gbps, rel=0.05)


class TestUdpScenario:
    def test_udp_goodput_counts_complete_datagrams(self):
        sc = Scenario(DatapathKind.OVERLAY, "udp", vanilla_factory)
        for _ in range(3):
            sc.add_udp_sender(65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        assert res.messages_delivered > 0
        # totals are self-consistent: bytes == complete datagrams * size
        assert (
            res.counters["udp_delivered_bytes"]
            == res.counters["udp_delivered_messages"] * 65536
        )

    def test_udp_overload_drops(self):
        from repro.netstack.costs import DEFAULT_COSTS

        costs = DEFAULT_COSTS.with_overrides(rx_ring_size=512, backlog_limit=300)
        sc = Scenario(DatapathKind.OVERLAY, "udp", vanilla_factory, costs=costs)
        for _ in range(3):
            sc.add_udp_sender(65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        total_drops = res.counters.get("nic_ring_drops", 0) + res.counters.get(
            "backlog_drops", 0
        )
        assert total_drops > 0  # vanilla overlay is overloaded by 3 clients

    def test_udp_goodput_below_offered(self):
        sc = Scenario(DatapathKind.OVERLAY, "udp", vanilla_factory)
        senders = [sc.add_udp_sender(65536) for _ in range(3)]
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        offered = sum(s.messages_sent for s in senders)
        assert res.counters["udp_delivered_messages"] < offered
