"""Unit tests for overlay devices, datapath construction and namespaces."""

import pytest

from helpers import Harness, make_skb
from repro.faults.plan import FaultPlan
from repro.netstack.costs import DEFAULT_COSTS
from repro.netstack.protocol.tcp import TcpDeliverStage, TcpReceiverStage
from repro.netstack.protocol.udp import UdpDeliverStage
from repro.netstack.stages import CountingSink
from repro.overlay.devices import (
    BridgeStage,
    OuterUdpDemuxStage,
    VethRxStage,
    VethXmitStage,
    VxlanDecapStage,
)
from repro.overlay.namespace import ContainerNamespace, OverlayNetwork
from repro.overlay.topology import DatapathKind, build_datapath_stages
from repro.workloads.options import RunOptions


class TestDevices:
    def test_vxlan_decapsulates(self):
        sink = CountingSink()
        h = Harness([VxlanDecapStage(), sink], mapping={"vxlan": 1})
        skb = make_skb(encap=True)
        assert skb.head.encap
        h.inject(skb)
        h.run()
        assert not sink.received[0].head.encap
        assert h.telemetry.get("vxlan_decapped") == skb.segs

    def test_vxlan_cost_is_heavyweight(self):
        sink = CountingSink()
        h = Harness([VxlanDecapStage(), sink], mapping={"vxlan": 1})
        h.inject(make_skb(encap=True))
        h.run()
        assert h.cpus[1].busy_ns["vxlan"] == pytest.approx(DEFAULT_COSTS.vxlan_decap_ns)

    @pytest.mark.parametrize(
        "stage_cls,name,attr",
        [
            (BridgeStage, "bridge", "bridge_fwd_ns"),
            (VethXmitStage, "veth_xmit", "veth_xmit_ns"),
            (VethRxStage, "veth_rx", "veth_rx_ns"),
            (OuterUdpDemuxStage, "udp_outer", "udp_rcv_outer_ns"),
        ],
    )
    def test_passthrough_devices(self, stage_cls, name, attr):
        sink = CountingSink()
        h = Harness([stage_cls(), sink], mapping={name: 1})
        h.inject(make_skb())
        h.run()
        assert len(sink.received) == 1
        assert h.cpus[1].busy_ns[name] == pytest.approx(getattr(DEFAULT_COSTS, attr))


class TestDatapathConstruction:
    def test_native_tcp_stage_order(self):
        names = [s.name for s in build_datapath_stages(DatapathKind.NATIVE, "tcp")]
        assert names == ["skb_alloc", "gro", "ip_rcv", "tcp_rcv", "tcp_deliver"]

    def test_overlay_tcp_stage_order(self):
        names = [s.name for s in build_datapath_stages(DatapathKind.OVERLAY, "tcp")]
        assert names == [
            "skb_alloc",
            "gro",
            "ip_outer",
            "udp_outer",
            "vxlan",
            "bridge",
            "veth_xmit",
            "veth_rx",
            "ip_inner",
            "tcp_rcv",
            "tcp_deliver",
        ]

    def test_overlay_udp_terminates_in_udp(self):
        names = [s.name for s in build_datapath_stages(DatapathKind.OVERLAY, "udp")]
        assert names[-2:] == ["udp_rcv", "udp_deliver"]

    def test_injected_instances_used(self):
        rcv = TcpReceiverStage()
        dlv = TcpDeliverStage()
        stages = build_datapath_stages(
            DatapathKind.NATIVE, "tcp", tcp_receiver=rcv, tcp_deliver=dlv
        )
        assert stages[-2] is rcv
        assert stages[-1] is dlv

    def test_udp_deliver_instance_used(self):
        dlv = UdpDeliverStage()
        stages = build_datapath_stages(DatapathKind.NATIVE, "udp", udp_deliver=dlv)
        assert stages[-1] is dlv

    def test_invalid_proto_rejected(self):
        with pytest.raises(ValueError):
            build_datapath_stages(DatapathKind.NATIVE, "sctp")

    def test_overlay_path_is_longer(self):
        native = build_datapath_stages(DatapathKind.NATIVE, "tcp")
        overlay = build_datapath_stages(DatapathKind.OVERLAY, "tcp")
        assert len(overlay) > len(native)


class TestNamespaces:
    def test_attach_allocates_private_ips(self):
        net = OverlayNetwork()
        a = net.attach("web")
        b = net.attach("db")
        assert a.private_ip != b.private_ip

    def test_duplicate_name_rejected(self):
        net = OverlayNetwork()
        net.attach("web")
        with pytest.raises(ValueError):
            net.attach("web")

    def test_lookup(self):
        net = OverlayNetwork()
        ns = net.attach("cache")
        assert net.lookup("cache") is ns
        with pytest.raises(KeyError):
            net.lookup("missing")

    def test_ephemeral_ports_monotonic(self):
        ns = ContainerNamespace("c", 42)
        p1, p2 = ns.ephemeral_port(), ns.ephemeral_port()
        assert p2 == p1 + 1


class TestNamespaceLifecycle:
    def test_freeze_restore_retire(self):
        ns = ContainerNamespace("c", 42)
        assert ns.state == "running"
        ns.freeze()
        assert ns.state == "frozen"
        ns.restore()
        assert ns.state == "running"
        ns.retire()
        assert ns.state == "retired"

    def test_double_freeze_raises(self):
        from repro.sim.engine import SimulationError

        ns = ContainerNamespace("c", 42)
        ns.freeze()
        with pytest.raises(SimulationError, match="cannot freeze"):
            ns.freeze()

    def test_restore_running_raises(self):
        from repro.sim.engine import SimulationError

        ns = ContainerNamespace("c", 42)
        with pytest.raises(SimulationError, match="cannot restore"):
            ns.restore()

    def test_retired_is_terminal(self):
        from repro.sim.engine import SimulationError

        ns = ContainerNamespace("c", 42)
        ns.retire()
        for op in (ns.freeze, ns.restore, ns.retire):
            with pytest.raises(SimulationError):
                op()

    def test_attach_frozen_destination(self):
        net = OverlayNetwork()
        dst = net.attach("dst", state="frozen")
        assert dst.state == "frozen"
        dst.restore()
        assert dst.state == "running"

    def test_attach_invalid_state_rejected(self):
        net = OverlayNetwork()
        with pytest.raises(ValueError):
            net.attach("x", state="retired")


class TestOverlayUnderFaults:
    """The overlay devices under wire fault plans: VxLAN decap and the
    bridge must keep conserving packets when the wire corrupts or
    reorders frames (satellite coverage riding the migration PR)."""

    WIN = {"warmup_ns": 0.5e6, "measure_ns": 2.0e6}

    def _run(self, plan, proto="tcp"):
        from repro.workloads.sockperf import run_single_flow

        return run_single_flow(
            "vanilla", proto, 65536, options=RunOptions(faults=plan), **self.WIN
        )

    def test_vxlan_decap_under_corrupt_wire(self):
        plan = FaultPlan(name="corrupt", corrupt_rate=0.02)
        res = self._run(plan)
        assert res.fault_counters.get("fault_corrupt_frames", 0) > 0
        # corrupted frames die on the wire: they never reach the decap
        # stage, and everything that did decap is accounted for
        arrivals = res.counters["nic_rx_packets"] + res.counters.get(
            "nic_ring_drops", 0
        )
        assert res.counters["vxlan_decapped"] <= arrivals
        # frames that survived the wire still decapsulate (the stock TCP
        # sender never retransmits, so delivery itself may stall — the
        # device layer must stay lossless regardless)
        assert res.counters["vxlan_decapped"] > 0
        assert res.conservation_violations == 0

    def test_vxlan_decap_under_reordering_wire(self):
        plan = FaultPlan(
            name="reorder", reorder_rate=0.05, reorder_delay_ns=30_000.0,
            jitter_ns=1_000.0,
        )
        res = self._run(plan)
        assert res.fault_counters.get("fault_reordered_frames", 0) > 0
        # reordering delays but never destroys frames: every frame the
        # NIC accepted crossed the bridge and was decapsulated
        assert res.counters["vxlan_decapped"] > 0
        assert res.conservation_violations == 0
        assert res.messages_delivered > 0

    def test_bridge_conserves_under_corrupt_udp(self):
        plan = FaultPlan(name="corrupt", corrupt_rate=0.02)
        res = self._run(plan, proto="udp")
        assert res.fault_counters.get("fault_corrupt_frames", 0) > 0
        assert res.conservation_violations == 0
        assert res.messages_delivered > 0

    def test_clean_plan_matches_no_plan(self):
        baseline = self._run(None)
        clean = self._run(FaultPlan(name="clean"))
        assert clean.throughput_gbps == baseline.throughput_gbps
        assert clean.messages_delivered == baseline.messages_delivered
        assert dict(clean.counters) == dict(baseline.counters)
