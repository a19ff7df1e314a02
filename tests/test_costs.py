"""Unit tests for the cost model."""

import dataclasses

import pytest

from repro.netstack.costs import CostModel, DEFAULT_COSTS
from repro.workloads.sockperf import build_scenario


class TestCostModel:
    def test_defaults_validate(self):
        DEFAULT_COSTS.validate()

    def test_with_overrides_returns_copy(self):
        c = DEFAULT_COSTS.with_overrides(vxlan_decap_ns=1234.0)
        assert c.vxlan_decap_ns == 1234.0
        assert DEFAULT_COSTS.vxlan_decap_ns != 1234.0

    def test_overrides_preserve_other_fields(self):
        c = DEFAULT_COSTS.with_overrides(skb_alloc_ns=1.0)
        assert c.tcp_rcv_ns == DEFAULT_COSTS.tcp_rcv_ns

    @pytest.mark.parametrize(
        "field",
        [
            "driver_poll_per_pkt_ns",
            "skb_alloc_ns",
            "gro_per_seg_ns",
            "ip_rcv_ns",
            "vxlan_decap_ns",
            "tcp_rcv_ns",
            "udp_rcv_ns",
            "copy_per_byte_ns",
            "link_gbps",
        ],
    )
    def test_nonpositive_cost_rejected(self, field):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.with_overrides(**{field: 0.0}).validate()

    def test_zero_pacing_rate_rejected(self):
        # senders would divide by it when spacing frames
        with pytest.raises(ValueError, match="tcp_pacing_gbps"):
            DEFAULT_COSTS.with_overrides(tcp_pacing_gbps=0.0).validate()

    def test_negative_pacing_rate_rejected(self):
        # paced frames would be filed before the current time
        with pytest.raises(ValueError, match="tcp_pacing_gbps"):
            DEFAULT_COSTS.with_overrides(tcp_pacing_gbps=-1.0).validate()

    def test_negative_wire_delay_rejected(self):
        # arrivals would be filed before the frame was sent
        with pytest.raises(ValueError, match="wire_delay_ns"):
            DEFAULT_COSTS.with_overrides(wire_delay_ns=-5000.0).validate()

    def test_zero_wire_delay_accepted(self):
        DEFAULT_COSTS.with_overrides(wire_delay_ns=0.0).validate()

    def test_scenario_rejects_edge_costs_before_running(self):
        for bad in ({"tcp_pacing_gbps": 0.0}, {"wire_delay_ns": -5000.0}):
            with pytest.raises(ValueError):
                build_scenario("vanilla", "tcp", 4096, costs=DEFAULT_COSTS.with_overrides(**bad))

    def test_gro_cap_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.with_overrides(gro_max_segs_native=0).validate()

    def test_napi_budget_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.with_overrides(napi_budget=0).validate()

    def test_ring_holds_at_least_one_budget(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.with_overrides(rx_ring_size=8, napi_budget=64).validate()

    def test_heavyweight_relationships_hold(self):
        """The calibration encodes the paper's qualitative cost ordering."""
        c = DEFAULT_COSTS
        # VxLAN decap is the heavyweight device
        for lighter in (c.bridge_fwd_ns, c.veth_xmit_ns, c.veth_rx_ns, c.ip_rcv_ns):
            assert c.vxlan_decap_ns > lighter
        # skb allocation is the heavyweight per-packet function
        assert c.skb_alloc_ns > c.gro_per_seg_ns
        assert c.skb_alloc_ns > c.driver_poll_per_pkt_ns
        # encap GRO is less effective than native GRO
        assert c.gro_max_segs_encap < c.gro_max_segs_native

    def test_is_frozen_free_dataclass(self):
        # CostModel is intentionally mutable for experiments but must be a
        # dataclass with named fields (no dict-typos)
        names = {f.name for f in dataclasses.fields(CostModel)}
        assert "vxlan_decap_ns" in names
        assert "tcp_pacing_gbps" in names
