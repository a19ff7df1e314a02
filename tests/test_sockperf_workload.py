"""Integration tests for the sockperf micro-benchmark drivers.

Short-window runs asserting the paper's headline *shape*: who wins and
in what direction — the load-bearing claims of Figures 4 and 8.
"""

import pytest

from repro.workloads.sockperf import (
    ALL_SYSTEMS,
    CLIENTS,
    SYSTEMS,
    build_scenario,
    datapath_for,
    policy_factory,
    run_single_flow,
)

WARM = 1e6
MEAS = 3e6


@pytest.fixture(scope="module")
def tcp64():
    return {
        s: run_single_flow(s, "tcp", 65536, warmup_ns=WARM, measure_ns=MEAS)
        for s in SYSTEMS
    }


@pytest.fixture(scope="module")
def udp64():
    return {
        s: run_single_flow(s, "udp", 65536, warmup_ns=WARM, measure_ns=MEAS)
        for s in SYSTEMS
    }


class TestHeadlineShapesTcp:
    def test_overlay_well_below_native(self, tcp64):
        assert tcp64["vanilla"].throughput_gbps < 0.75 * tcp64["native"].throughput_gbps

    def test_rps_helps_slightly(self, tcp64):
        assert tcp64["vanilla"].throughput_gbps < tcp64["rps"].throughput_gbps
        assert tcp64["rps"].throughput_gbps < 1.35 * tcp64["vanilla"].throughput_gbps

    def test_falcon_beats_rps(self, tcp64):
        assert tcp64["falcon"].throughput_gbps > tcp64["rps"].throughput_gbps

    def test_mflow_beats_falcon(self, tcp64):
        assert tcp64["mflow"].throughput_gbps > tcp64["falcon"].throughput_gbps

    def test_mflow_beats_native(self, tcp64):
        """The paper's headline: 29.8 vs 26.6 Gbps."""
        assert tcp64["mflow"].throughput_gbps > tcp64["native"].throughput_gbps

    def test_mflow_large_gain_over_vanilla(self, tcp64):
        ratio = tcp64["mflow"].throughput_gbps / tcp64["vanilla"].throughput_gbps
        assert ratio > 1.5  # paper: +81%

    def test_mflow_merge_keeps_tcp_in_order(self, tcp64):
        assert tcp64["mflow"].counters.get("tcp_ooo_segments", 0) == 0


class TestHeadlineShapesUdp:
    def test_overlay_collapses_vs_native(self, udp64):
        assert udp64["vanilla"].throughput_gbps < 0.55 * udp64["native"].throughput_gbps

    def test_falcon_strong_udp_gain(self, udp64):
        ratio = udp64["falcon"].throughput_gbps / udp64["vanilla"].throughput_gbps
        assert ratio > 1.4  # paper: +80%

    def test_mflow_beats_falcon(self, udp64):
        assert udp64["mflow"].throughput_gbps > udp64["falcon"].throughput_gbps

    def test_mflow_stays_below_native(self, udp64):
        """Clients bottleneck before MFLOW's receive path does (paper §V-A)."""
        assert udp64["mflow"].throughput_gbps < udp64["native"].throughput_gbps

    def test_mflow_large_gain_over_vanilla(self, udp64):
        ratio = udp64["mflow"].throughput_gbps / udp64["vanilla"].throughput_gbps
        assert ratio > 1.8  # paper: +139%


class TestSmallMessages:
    def test_tcp_16b_client_bound_all_equal(self):
        vals = [
            run_single_flow(s, "tcp", 16, warmup_ns=WARM, measure_ns=MEAS).throughput_gbps
            for s in ("native", "vanilla", "mflow")
        ]
        assert max(vals) < 1.1 * min(vals)  # paper: no system helps at 16 B

    def test_throughput_rises_with_message_size(self):
        sizes = [1024, 16384, 65536]
        vals = [
            run_single_flow("native", "tcp", s, warmup_ns=WARM, measure_ns=MEAS).throughput_gbps
            for s in sizes
        ]
        assert vals == sorted(vals)


class TestDriverApi:
    def test_policy_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            policy_factory("bogus", "tcp")

    def test_all_systems_buildable(self):
        for system in ALL_SYSTEMS:
            sc = build_scenario(system, "tcp", 4096)
            assert sc.pipeline.head is not None

    def test_datapath_for(self):
        from repro.overlay.topology import DatapathKind

        assert datapath_for("native") is DatapathKind.NATIVE
        assert datapath_for("mflow") is DatapathKind.OVERLAY

    def test_udp_uses_three_clients(self):
        sc = build_scenario("vanilla", "udp", 4096)
        assert len(sc._senders) == CLIENTS["udp"] == 3
