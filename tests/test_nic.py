"""Unit tests for the NIC model and wire."""

import json

import pytest

from helpers import Harness, MapPolicy, TEST_FLOW, make_skb
from repro.netstack.costs import DEFAULT_COSTS
from repro.netstack.nic import Nic, Wire, _RxQueue
from repro.netstack.packet import FlowKey, Packet, fragment_message
from repro.netstack.stages import CountingSink
from repro.runner import scenario_result_to_dict
from repro.workloads.multiflow import build_multiflow_scenario


def nic_harness(costs=None, rss_indices=None):
    sink = CountingSink()
    h = Harness([sink], mapping={"sink": 1}, costs=costs)
    rss = [h.cpus[i] for i in rss_indices] if rss_indices else None
    nic = Nic(h.sim, h.costs, h.cpus[1], h.pipeline, h.telemetry, rss_cores=rss)
    return h, nic, sink


class TestNic:
    def test_packet_reaches_pipeline(self):
        h, nic, sink = nic_harness()
        nic.receive(Packet(TEST_FLOW, 1000))
        h.run()
        assert len(sink.received) == 1

    def test_wire_seq_stamped_in_arrival_order(self):
        h, nic, sink = nic_harness()
        for i in range(5):
            nic.receive(Packet(TEST_FLOW, 100, msg_id=i))
        h.run()
        assert [s.head.wire_seq for s in sink.received] == [0, 1, 2, 3, 4]

    def test_irq_and_driver_poll_charged_to_irq_core(self):
        h, nic, sink = nic_harness()
        nic.receive(Packet(TEST_FLOW, 1000))
        h.run()
        assert h.cpus[1].busy_ns["irq:pnic"] == pytest.approx(DEFAULT_COSTS.irq_cost_ns)
        assert h.cpus[1].busy_ns["driver_poll:pnic"] > 0

    def test_irq_coalesces_during_poll(self):
        h, nic, sink = nic_harness()
        for i in range(20):
            nic.receive(Packet(TEST_FLOW, 1000))
        h.run()
        # one IRQ covers the burst (NAPI polls the rest)
        assert h.telemetry.get("nic_irqs") < 20
        assert len(sink.received) == 20

    def test_ring_overflow_drops(self):
        costs = DEFAULT_COSTS.with_overrides(rx_ring_size=64, napi_budget=64)
        h, nic, sink = nic_harness(costs=costs)
        # deliver a burst far beyond the ring without letting the sim run
        for i in range(500):
            nic.receive(Packet(TEST_FLOW, 100))
        h.run()
        assert h.telemetry.get("nic_ring_drops") > 0
        assert nic.ring_drops() > 0

    def test_napi_budget_bounds_poll_batches(self):
        costs = DEFAULT_COSTS.with_overrides(napi_budget=4)
        h, nic, sink = nic_harness(costs=costs)
        for i in range(16):
            nic.receive(Packet(TEST_FLOW, 100))
        h.run()
        assert len(sink.received) == 16

    def test_rss_spreads_flows_across_queues(self):
        h, nic, sink = nic_harness(rss_indices=[1, 2])
        flows = [FlowKey(i, 2, "tcp", 1000 + i, 2000) for i in range(32)]
        for f in flows:
            nic.receive(Packet(f, 100))
        h.run()
        assert nic.n_queues == 2
        # both queue cores did driver work
        assert h.cpus[1].busy_ns.get("driver_poll:pnic", 0) > 0
        assert h.cpus[2].busy_ns.get("driver_poll:pnic", 0) > 0

    def test_same_flow_always_same_queue(self):
        h, nic, sink = nic_harness(rss_indices=[1, 2])
        q = nic.queue_for(Packet(TEST_FLOW, 100))
        for _ in range(10):
            assert nic.queue_for(Packet(TEST_FLOW, 100)) is q

    def test_policy_queue_alignment_honored(self):
        class Pinned(MapPolicy):
            def nic_queue_core_idx(self, flow):
                return 2

        sink = CountingSink()
        h = Harness([sink], policy=None, mapping={"sink": 2})
        h.policy = Pinned(h.cpus, {"sink": 2})
        h.pipeline.policy = h.policy
        nic = Nic(h.sim, h.costs, h.cpus[1], h.pipeline, h.telemetry,
                  rss_cores=[h.cpus[1], h.cpus[2]])
        assert nic.queue_for(Packet(TEST_FLOW, 100)).core.id == 2


class _NoMemo(dict):
    """An RX-queue memo that never remembers: every frame resolves anew."""

    def __setitem__(self, flow, queue):
        pass


class TestRxQueueMemo:
    """``Nic.receive`` memoises each flow's RX queue beside the policy's
    routes.  Oracle: the uncached ``Nic.queue_for`` asked at the moment
    each frame lands, on MFLOW's multi-queue pool layout (least-loaded
    placement) with one flow retired mid-run while its frames keep
    arriving, so the flow is placed a second time."""

    RETIRE_AT_NS = 150_000.0
    WINDOWS = {"warmup_ns": 100_000.0, "measure_ns": 300_000.0}

    def _scenario(self):
        sc = build_multiflow_scenario("mflow", 4, 65536, seed=3)
        victim = next(iter(sc._senders))
        sc.sim.call_at(self.RETIRE_AT_NS, sc.retire_flow, victim)
        return sc, victim

    def _payload(self, sc) -> str:
        res = sc.run(**self.WINDOWS)
        record = scenario_result_to_dict(res)
        record["events_executed"] = res.events_executed
        return json.dumps(record, sort_keys=True)

    def test_every_frame_lands_on_the_uncached_queue(self, monkeypatch):
        sc, victim = self._scenario()
        assert sc.nic.n_queues > 1
        landed = []
        receive = _RxQueue.receive

        def checked(queue, pkt):
            want = sc.nic.queue_for(pkt)  # the flow is placed by now: no side effect
            landed.append((sc.sim.now, pkt.flow, queue.core.id, want.core.id))
            receive(queue, pkt)

        monkeypatch.setattr(_RxQueue, "receive", checked)
        sc.run(**self.WINDOWS)
        wrong = [frame for frame in landed if frame[2] != frame[3]]
        assert not wrong, f"{len(wrong)} of {len(landed)} frames on a stale queue: {wrong[:3]}"
        # the retired flow came back on another queue, so a memo that
        # outlived the retirement would have shown above
        before = {q for t, flow, q, _ in landed if flow == victim and t < self.RETIRE_AT_NS}
        after = {q for t, flow, q, _ in landed if flow == victim and t >= self.RETIRE_AT_NS}
        assert len(before) == len(after) == 1 and before != after

    def test_payload_matches_memo_bypassed(self):
        memo, _ = self._scenario()
        bypassed, _ = self._scenario()
        bypassed.nic._rx_queues = _NoMemo()
        assert self._payload(memo) == self._payload(bypassed)
        assert memo.policy.rx_queues and not bypassed.nic._rx_queues


class TestWire:
    def test_delivery_after_serialization_and_propagation(self):
        h, nic, sink = nic_harness()
        wire = Wire(h.sim, h.costs, nic)
        pkt = Packet(TEST_FLOW, 1448)
        wire.send(pkt)
        h.run()
        assert len(sink.received) == 1
        assert pkt.arrival_ts >= h.costs.wire_delay_ns

    def test_line_rate_spacing(self):
        h, nic, sink = nic_harness()
        wire = Wire(h.sim, h.costs, nic)
        pkts = [Packet(TEST_FLOW, 1448) for _ in range(3)]
        for p in pkts:
            wire.send(p)
        h.run()
        gaps = [b.arrival_ts - a.arrival_ts for a, b in zip(pkts, pkts[1:])]
        per_pkt_ns = pkts[0].wire_bytes * 8.0 / h.costs.link_gbps
        for gap in gaps:
            assert gap == pytest.approx(per_pkt_ns)

    def test_bytes_carried_accounted(self):
        h, nic, sink = nic_harness()
        wire = Wire(h.sim, h.costs, nic)
        pkt = Packet(TEST_FLOW, 1000)
        wire.send(pkt)
        assert wire.bytes_carried == pkt.wire_bytes
