"""Unit tests for the pipeline dispatcher."""

import pytest

from helpers import Harness, TEST_UDP_FLOW, make_skb
from repro.netstack.costs import DEFAULT_COSTS
from repro.netstack.packet import Skb
from repro.netstack.pipeline import link_nodes
from repro.netstack.stages import CountingSink, PassthroughStage


def two_stage_harness(mapping=None, costs=None):
    sink = CountingSink()
    stages = [PassthroughStage("s1", "ip_rcv_ns"), PassthroughStage("s2", "bridge_fwd_ns"), sink]
    return Harness(stages, mapping=mapping, costs=costs), sink


class TestDispatch:
    def test_skb_walks_all_stages(self):
        h, sink = two_stage_harness()
        h.inject(make_skb())
        h.run()
        assert len(sink.received) == 1

    def test_stage_cost_charged_to_mapped_core(self):
        h, sink = two_stage_harness(mapping={"s1": 1, "s2": 2})
        h.inject(make_skb())
        h.run()
        assert h.cpus[1].busy_ns["s1"] > 0
        assert h.cpus[2].busy_ns["s2"] > 0

    def test_cross_core_handoff_charged(self):
        h, sink = two_stage_harness(mapping={"s1": 1, "s2": 2, "sink": 2})
        h.inject(make_skb())
        h.run()
        # s2 cost on core2 includes the handoff penalty
        expected = DEFAULT_COSTS.bridge_fwd_ns + DEFAULT_COSTS.handoff_cost_ns
        assert h.cpus[2].busy_ns["s2"] == pytest.approx(expected)
        # the dispatching side paid the steer-dispatch cost
        assert h.cpus[1].busy_ns["steer_dispatch"] == pytest.approx(
            DEFAULT_COSTS.steer_dispatch_ns
        )
        assert h.telemetry.get("handoffs") == 1
        # the dispatching core pays each handoff before its next item: no
        # steer_dispatch work item while it has queued work, and one item
        # for the last handoff, which leaves its queue empty
        h, sink = two_stage_harness(mapping={"s1": 1, "s2": 2, "sink": 2})
        for i in range(3):
            h.inject(make_skb(msg_id=i, start_seq=i * 2000))
        h.run()
        core = h.cpus[1]
        assert core.busy_ns["steer_dispatch"] == pytest.approx(
            3 * DEFAULT_COSTS.steer_dispatch_ns
        )
        assert core.items_executed == 3 + 1  # three s1 items, one payment
        assert h.telemetry.get("handoffs") == 3

    def test_timer_dispatch_files_its_steering_item(self):
        """A dispatch made outside any completion of the sending core (a
        timer's) has no next item to prefix: its steering cost is a
        steer_dispatch item, behind the work already queued there."""
        h, sink = two_stage_harness(mapping={"s1": 2, "s2": 2, "sink": 2})
        sender = h.cpus[1]
        sender.submit_call("busy", 500.0, lambda: None)
        h.inject(make_skb(), from_core=sender)
        assert sender._owed == 0.0 and sender.queue_depth == 1
        h.run()
        assert sender.busy_ns == {
            "busy": 500.0, "steer_dispatch": DEFAULT_COSTS.steer_dispatch_ns,
        }
        assert sender.items_executed == 2
        assert h.telemetry.get("handoffs") == 1

    def test_same_core_no_handoff(self):
        h, sink = two_stage_harness(mapping={"s1": 1, "s2": 1})
        h.inject(make_skb())
        h.run()
        assert h.cpus[1].busy_ns["s2"] == pytest.approx(DEFAULT_COSTS.bridge_fwd_ns)
        assert h.telemetry.get("handoffs") == 0

    def test_order_preserved_same_core(self):
        h, sink = two_stage_harness(mapping={"s1": 1, "s2": 1})
        for i in range(10):
            h.inject(make_skb(msg_id=i, start_seq=i * 2000))
        h.run()
        assert [s.head.msg_id for s in sink.received] == list(range(10))

    def test_order_preserved_across_cores(self):
        h, sink = two_stage_harness(mapping={"s1": 1, "s2": 2})
        for i in range(10):
            h.inject(make_skb(msg_id=i, start_seq=i * 2000))
        h.run()
        assert [s.head.msg_id for s in sink.received] == list(range(10))

    def test_inject_none_node_is_noop(self):
        h, sink = two_stage_harness()
        h.pipeline.inject(None, make_skb(), None)
        h.run()
        assert sink.received == []

    def test_backlog_limit_drops_droppable(self):
        costs = DEFAULT_COSTS.with_overrides(backlog_limit=5)
        h, sink = two_stage_harness(costs=costs)
        for i in range(50):
            h.inject(make_skb(flow=TEST_UDP_FLOW, msg_id=i))
        h.run()
        assert h.telemetry.get("backlog_drops") > 0
        assert len(sink.received) < 50

    def test_non_droppable_stage_never_drops(self):
        costs = DEFAULT_COSTS.with_overrides(backlog_limit=2)
        sink = CountingSink()
        s1 = PassthroughStage("s1", "ip_rcv_ns", droppable=False)
        s2 = PassthroughStage("s2", "bridge_fwd_ns", droppable=False)
        h = Harness([s1, s2, sink], costs=costs)
        for i in range(50):
            h.inject(make_skb(msg_id=i))
        h.run()
        assert len(sink.received) == 50

    def test_run_to_completion_front_continuation(self):
        """On one core, packet A finishes all stages before packet B starts
        its second stage (softirq run-to-completion)."""
        order = []

        class Tracer(PassthroughStage):
            def process(self, skb, ctx):
                order.append((self.name, skb.head.msg_id))
                return [skb]

        stages = [Tracer("t1", "ip_rcv_ns"), Tracer("t2", "bridge_fwd_ns"), CountingSink()]
        h = Harness(stages, mapping={"t1": 1, "t2": 1})
        h.inject(make_skb(msg_id=0))
        h.inject(make_skb(msg_id=1, start_seq=5000))
        h.run()
        assert order == [("t1", 0), ("t2", 0), ("t1", 1), ("t2", 1)]


class TestTopologyHelpers:
    def test_link_nodes_chains(self):
        stages = [PassthroughStage("a", "ip_rcv_ns"), PassthroughStage("b", "ip_rcv_ns")]
        head = link_nodes(stages)
        assert head.stage.name == "a"
        assert head.next.stage.name == "b"
        assert head.next.next is None

    def test_link_nodes_empty_rejected(self):
        with pytest.raises(ValueError):
            link_nodes([])

    def test_stage_names_and_find_node(self):
        h, sink = two_stage_harness()
        assert h.pipeline.stage_names() == ["s1", "s2", "sink"]
        assert h.pipeline.find_node("s2").stage.name == "s2"
        with pytest.raises(KeyError):
            h.pipeline.find_node("nope")

    def test_total_drops(self):
        h, _ = two_stage_harness()
        assert h.pipeline.total_drops() == 0


# The per-skb cost expressions of each in-tree stage as its ``cost()``
# method wrote them before stage costs became declared terms; the terms
# must give exactly these floats.
PINNED_COSTS = {
    "skb_alloc": lambda skb, c: c.skb_alloc_ns * len(skb.packets),
    "gro": lambda skb, c: c.gro_per_seg_ns * len(skb.packets),
    "ip_rcv": lambda skb, c: c.ip_rcv_ns,
    "ip_outer": lambda skb, c: c.ip_rcv_ns,
    "udp_outer": lambda skb, c: c.udp_rcv_outer_ns,
    "lb": lambda skb, c: c.lb_hash_ns,
    "vxlan": lambda skb, c: c.vxlan_decap_ns,
    "bridge": lambda skb, c: c.bridge_fwd_ns,
    "veth_xmit": lambda skb, c: c.veth_xmit_ns,
    "veth_rx": lambda skb, c: c.veth_rx_ns,
    "ip_inner": lambda skb, c: c.ip_rcv_inner_ns,
    "tcp_rcv": lambda skb, c: c.tcp_rcv_ns,
    "tcp_deliver": lambda skb, c: c.copy_per_skb_ns + skb.payload_bytes * c.copy_per_byte_ns,
    "udp_rcv": lambda skb, c: c.udp_rcv_ns * skb.segs,
    "udp_deliver": lambda skb, c: (
        c.udp_reassembly_per_frag_ns * skb.segs
        + c.copy_per_skb_ns
        + skb.payload_bytes * c.copy_per_byte_ns
    ),
    "mflow_split": lambda skb, c: c.mflow_split_ns * len(skb.packets),
    "mflow_merge": lambda skb, c: c.mflow_merge_per_skb_ns,
    "pkt_reorder": lambda skb, c: c.mflow_merge_per_skb_ns,
    "sink": lambda skb, c: 0.0,
}

#: counter key order (first-count order) of three short cells, as the
#: records held it while counters were bumped through ``Telemetry.count``
PINNED_COUNTER_ORDER = {
    "vanilla_tcp4k_x8": [
        "tcp_messages_sent", "nic_rx_packets", "nic_irqs", "skb_allocated", "gro_in",
        "vxlan_decapped", "handoffs", "tcp_delivered_bytes", "tcp_delivered_segments",
        "tcp_delivered_messages", "tcp_ooo_segments",
    ],
    "mflow_tcp64k": [
        "tcp_messages_sent", "nic_rx_packets", "nic_irqs", "mflow_split_packets",
        "handoffs", "skb_allocated", "gro_in", "vxlan_decapped", "tcp_delivered_bytes",
        "tcp_delivered_segments", "tcp_delivered_messages", "mflow_ooo_arrivals",
        "mflow_ooo_packets", "mflow_ooo_microflows",
    ],
    "mflow_udp64k": [
        "nic_rx_packets", "nic_irqs", "skb_allocated", "gro_in", "mflow_split_packets",
        "handoffs", "vxlan_decapped", "udp_rcv_segments", "udp_messages_sent",
        "udp_delivered_messages", "udp_delivered_bytes", "mflow_merge_skips",
        "mflow_ooo_arrivals", "mflow_ooo_packets", "mflow_ooo_microflows",
    ],
}


def _in_tree_stages():
    from repro.core.reassembly import PerPacketReorderStage, ReassemblyStage
    from repro.core.splitting import MicroflowSplitStage
    from repro.overlay.balancer import ConsistentHashBalancerStage, HashRing
    from repro.overlay.topology import DatapathKind, build_datapath_stages

    stages = {}
    for kind in DatapathKind:
        for proto in ("tcp", "udp"):
            for stage in build_datapath_stages(kind, proto):
                stages[stage.name] = stage
    stages["lb"] = ConsistentHashBalancerStage(HashRing())
    stages["mflow_split"] = MicroflowSplitStage(4, 2)
    stages["mflow_merge"] = ReassemblyStage(2)
    stages["pkt_reorder"] = PerPacketReorderStage()
    stages["sink"] = CountingSink()
    return stages


def _cost_skbs():
    """1 to 45 segments, encap on and off, full and mixed payloads."""
    from repro.netstack.packet import Packet

    skbs = []
    for segs in (1, 2, 3, 4, 7, 16, 45):
        for encap in (False, True):
            skbs.append(make_skb(size=1448 * segs, encap=encap))  # full frames
            skbs.append(make_skb(size=1448 * segs - 613, encap=encap))  # short tail
            payloads = [1 + (i * 977) % 1448 for i in range(segs)]
            skbs.append(Skb([Packet(TEST_UDP_FLOW, p, encap=encap) for p in payloads]))
    return skbs


class TestStageCostTerms:
    """Each stage's declared cost terms, evaluated by the pipeline's own
    dispatch, give exactly the float its old ``cost()`` expression gave."""

    COSTS = {
        "default": DEFAULT_COSTS,
        # awkward floats, so a changed association order would show
        "skewed": DEFAULT_COSTS.with_overrides(
            copy_per_byte_ns=0.1617, copy_per_skb_ns=180.3,
            udp_reassembly_per_frag_ns=40.07, udp_rcv_ns=119.9, gro_per_seg_ns=60.03,
            skb_alloc_ns=300.1, mflow_split_ns=45.01, vxlan_decap_ns=900.7,
        ),
    }

    @pytest.mark.parametrize("costs_name", sorted(COSTS))
    def test_every_stage_matches_its_pinned_expression(self, monkeypatch, costs_name):
        costs = self.COSTS[costs_name]
        stages = _in_tree_stages()
        assert set(stages) == set(PINNED_COSTS)
        skbs = _cost_skbs()
        for name, stage in stages.items():
            assert not hasattr(stage, "cost"), f"{name} still has a cost() method"
            h = Harness([stage], mapping={name: 1}, costs=costs)
            charged = []
            for core in h.cpus:  # delivery stages run on the app core
                monkeypatch.setattr(
                    core, "submit_call", lambda tag, cost, *a, **kw: charged.append(cost)
                )
            for skb in skbs:
                h.inject(skb)
            want = [PINNED_COSTS[name](skb, costs) for skb in skbs]
            assert charged == want, name
            # bit-identical, not just equal
            assert [c.hex() for c in map(float, charged)] == [
                w.hex() for w in map(float, want)
            ], name

    def test_fused_sub_stage_costs_equal_stage_by_stage(self, monkeypatch):
        """Every fused run's per-sub-stage cost is the stage's own
        expression for the run's skb (plus the handoff on the first
        sub-stage when the run's dispatch crossed cores)."""
        from repro.cpu.core import Core
        from repro.workloads.multiflow import build_multiflow_scenario
        from repro.workloads.sockperf import build_scenario

        runs = []
        submit_run = Core.submit_run

        def recorded(core, plan, costs, skb, front):
            want = [PINNED_COSTS[tag](skb, DEFAULT_COSTS) for tag in plan.tags]
            runs.append((plan.tags, list(costs), want))
            submit_run(core, plan, costs, skb, front)

        monkeypatch.setattr(Core, "submit_run", recorded)
        windows = {"warmup_ns": 100_000.0, "measure_ns": 200_000.0}
        build_multiflow_scenario("vanilla", 8, 4096, seed=5).run(**windows)
        build_scenario("mflow", "udp", 65536, seed=5).run(**windows)
        assert {len(tags) for tags, _, _ in runs} >= {2, 3}
        for tags, got, want in runs:
            assert got[1:] == want[1:], tags
            assert got[0] in (want[0], want[0] + DEFAULT_COSTS.handoff_cost_ns), tags

    @pytest.mark.parametrize("name", sorted(PINNED_COUNTER_ORDER))
    def test_counter_key_order_unchanged(self, name):
        from repro.workloads.multiflow import build_multiflow_scenario
        from repro.workloads.sockperf import build_scenario

        build = {
            "vanilla_tcp4k_x8": lambda: build_multiflow_scenario("vanilla", 8, 4096, seed=5),
            "mflow_tcp64k": lambda: build_scenario("mflow", "tcp", 65536, seed=5),
            "mflow_udp64k": lambda: build_scenario("mflow", "udp", 65536, seed=5),
        }[name]
        res = build().run(warmup_ns=300_000.0, measure_ns=1_000_000.0)
        assert list(res.counters) == PINNED_COUNTER_ORDER[name]
        assert type(res.counters) is dict
