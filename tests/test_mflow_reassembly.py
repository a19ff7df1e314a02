"""Unit tests for batch-based flow reassembling."""

import pytest

from helpers import Harness, TEST_FLOW, TEST_UDP_FLOW
from repro.core.reassembly import PerPacketReorderStage, ReassemblyStage
from repro.core.splitting import MicroflowSplitStage
from repro.netstack.packet import FlowKey, Skb, fragment_message
from repro.netstack.stages import CountingSink


def tagged_skbs(n, batch, branches, flow=TEST_FLOW, start_wire=0):
    """n one-segment skbs pre-tagged the way the splitter would."""
    frags = fragment_message(flow, 0, 1448 * n)
    out = []
    for i, frag in enumerate(frags):
        frag.wire_seq = start_wire + i
        skb = Skb([frag])
        skb.microflow_id = i // batch
        skb.branch = (i // batch) % branches
        skb.flow_serial = i
        out.append(skb)
    return out


def merge_harness(branches=2, splitter=None, timeout=200_000.0, stall=2048):
    sink = CountingSink()
    merge = ReassemblyStage(branches, stall_skbs=stall, timeout_ns=timeout, splitter=splitter)
    h = Harness([merge, sink], mapping={"mflow_merge": 0, "sink": 0})
    return h, merge, sink


class TestInOrderMerge:
    def test_in_order_stream_passes_through(self):
        h, merge, sink = merge_harness()
        for skb in tagged_skbs(8, batch=2, branches=2):
            h.inject(skb)
        h.run()
        assert [s.flow_serial for s in sink.received] == list(range(8))
        assert merge.ooo_arrivals == 0

    def test_interleaved_branches_restored(self):
        h, merge, sink = merge_harness()
        skbs = tagged_skbs(8, batch=2, branches=2)
        # deliver branch 1's batch before branch 0 finishes: 0,2,3,1,...
        order = [skbs[0], skbs[2], skbs[3], skbs[1], skbs[4], skbs[6], skbs[7], skbs[5]]
        for skb in order:
            h.inject(skb)
        h.run()
        assert [s.flow_serial for s in sink.received] == list(range(8))

    def test_ooo_metrics_counted(self):
        h, merge, sink = merge_harness()
        skbs = tagged_skbs(4, batch=2, branches=2)
        for skb in [skbs[2], skbs[0], skbs[1], skbs[3]]:
            h.inject(skb)
        h.run()
        assert merge.ooo_arrivals >= 1
        assert merge.ooo_packets >= 1
        assert merge.ooo_microflows >= 1

    def test_flows_merge_independently(self):
        other = FlowKey(9, 2, "tcp", 9, 9)
        h, merge, sink = merge_harness()
        a = tagged_skbs(4, batch=2, branches=2)
        b = tagged_skbs(4, batch=2, branches=2, flow=other, start_wire=100)
        for x, y in zip(a, b):
            h.inject(x)
            h.inject(y)
        h.run()
        for flow in (TEST_FLOW, other):
            serials = [s.flow_serial for s in sink.received if s.flow == flow]
            assert serials == list(range(4))


class TestCompletionTracking:
    def _with_splitter(self, n, batch=2, branches=2):
        splitter = MicroflowSplitStage(batch, branches)
        sink = CountingSink()
        merge = ReassemblyStage(branches, splitter=splitter, timeout_ns=1e9)
        h = Harness(
            [splitter, merge, sink],
            mapping={"mflow_split": 1, "mflow_merge": 0, "sink": 0},
        )
        frags = fragment_message(TEST_FLOW, 0, 1448 * n)
        for i, f in enumerate(frags):
            f.wire_seq = i
        return h, merge, sink, [Skb([f]) for f in frags]

    def test_advances_at_boundary_without_timeout(self):
        """When micro-flow k has fully arrived, the merge moves to k+1
        immediately even though k+2 (same branch) hasn't appeared."""
        h, merge, sink, skbs = self._with_splitter(4, batch=2, branches=2)
        for skb in skbs:
            h.inject(skb)
        h.run(until_ns=1e6)  # far below the 1s timeout
        assert len(sink.received) == 4
        assert merge.merge_skips == 0

    def test_incomplete_microflow_waits(self):
        """Drop the tail of micro-flow 0 between split and merge: the
        merge must hold micro-flow 1 back (the splitter says mf 0 has two
        segments, only one ever arrives)."""
        from repro.netstack.stages import Stage

        class DropSerial(Stage):
            name = "dropper"
            droppable = False

            def process(self, skb, ctx):
                return [] if skb.flow_serial == 1 else [skb]

        splitter = MicroflowSplitStage(2, 2)
        sink = CountingSink()
        merge = ReassemblyStage(2, splitter=splitter, timeout_ns=1e9)
        h = Harness(
            [splitter, DropSerial(), merge, sink],
            mapping={"mflow_split": 1, "dropper": 1, "mflow_merge": 0, "sink": 0},
        )
        frags = fragment_message(TEST_FLOW, 0, 1448 * 4)
        for i, f in enumerate(frags):
            f.wire_seq = i
            h.inject(Skb([f]))
        h.run(until_ns=1e6)
        assert [s.flow_serial for s in sink.received] == [0]
        assert merge.parked_total() == 2


class TestLossRecovery:
    def test_stall_threshold_advances(self):
        h, merge, sink = merge_harness(stall=3, timeout=1e9)
        skbs = tagged_skbs(8, batch=2, branches=2)
        # lose micro-flow 0 entirely (skbs 0,1); deliver the rest
        for skb in skbs[2:]:
            h.inject(skb)
        h.run()
        assert merge.merge_skips >= 1
        assert [s.flow_serial for s in sink.received] == list(range(2, 8))

    def test_timeout_advances(self):
        h, merge, sink = merge_harness(timeout=10_000.0, stall=10_000)
        skbs = tagged_skbs(4, batch=2, branches=2)
        for skb in skbs[2:]:  # micro-flow 0 lost
            h.inject(skb)
        h.run(until_ns=1e6)
        assert [s.flow_serial for s in sink.received] == [2, 3]
        assert merge.merge_skips >= 1

    def test_udp_fast_path_skips_lost_microflow(self):
        h, merge, sink = merge_harness(timeout=1e9, stall=10_000)
        skbs = tagged_skbs(6, batch=2, branches=2, flow=TEST_UDP_FLOW)
        # micro-flow 0 partially lost: only skb 0 arrives, then mf 1 fully
        h.inject(skbs[0])
        for skb in skbs[2:4]:
            h.inject(skb)
        h.run(until_ns=1e6)
        # fast path advanced past the incomplete micro-flow 0
        assert [s.flow_serial for s in sink.received] == [0, 2, 3]

    def test_late_straggler_released_immediately(self):
        h, merge, sink = merge_harness(timeout=5_000.0, stall=10_000)
        skbs = tagged_skbs(6, batch=2, branches=2)
        h.inject(skbs[2])
        h.inject(skbs[3])
        h.run(until_ns=50_000.0)  # timeout passes micro-flow 0
        h.inject(skbs[0])  # straggler from the skipped micro-flow
        h.run()
        assert 0 in [s.flow_serial for s in sink.received]
        assert h.telemetry.get("mflow_late_stragglers") >= 1


class TestProgressClock:
    def test_state_initialized_at_first_arrival(self):
        """Regression: a flow whose first packet arrives late must start
        its progress clock at that arrival, not at sim time zero —
        otherwise the merge progress timeout fires spuriously."""
        h, merge, sink = merge_harness(timeout=1e9)
        h.sim.call_at(500_000.0, lambda: None)
        h.run()  # advance well past t=0 before the first packet shows up
        assert h.sim.now == 500_000.0
        skb = tagged_skbs(1, batch=2, branches=2)[0]
        h.inject(skb)
        h.run()
        state = dict(merge.iter_flows())[TEST_FLOW]
        assert state.last_progress_ns >= 500_000.0

    def test_late_first_arrival_not_skipped_by_timer(self):
        """With the clock fixed, a micro-flow that starts late gets its
        full timeout of patience before the liveness escape fires."""
        h, merge, sink = merge_harness(timeout=100_000.0, stall=10_000)
        h.sim.call_at(400_000.0, lambda: None)
        h.run()
        # half of micro-flow 0 arrives at t=400us and waits for its tail
        skbs = tagged_skbs(4, batch=2, branches=2)
        h.inject(skbs[0])
        h.run(until_ns=450_000.0)  # less than timeout after arrival
        assert merge.merge_skips == 0
        h.inject(skbs[1])  # the tail shows up within the timeout
        h.run(until_ns=600_000.0)
        assert [s.flow_serial for s in sink.received] == [0, 1]
        assert merge.merge_skips == 0

    def test_per_flow_skip_counter_tracks_merge_skips(self):
        h, merge, sink = merge_harness(stall=3, timeout=1e9)
        skbs = tagged_skbs(8, batch=2, branches=2)
        for skb in skbs[2:]:  # micro-flow 0 lost entirely
            h.inject(skb)
        h.run()
        state = dict(merge.iter_flows())[TEST_FLOW]
        assert state.skips == merge.merge_skips >= 1


class TestLossEscapesUnderUdpLoss:
    """Merge liveness escapes driven by deterministically injected UDP
    loss: delivery must keep its ordering invariants while the counter
    skips over the gaps."""

    def _run_with_loss(self, lost_serials, n=24, batch=2, branches=2):
        h, merge, sink = merge_harness(timeout=50_000.0, stall=10_000)
        skbs = tagged_skbs(n, batch=batch, branches=branches, flow=TEST_UDP_FLOW)
        for skb in skbs:
            if skb.flow_serial not in lost_serials:
                h.inject(skb)
        h.run(until_ns=5e6)
        return h, merge, sink

    def test_skips_counted_and_delivery_continues(self):
        lost = {4, 5}  # micro-flow 2 never arrives
        h, merge, sink = self._run_with_loss(lost)
        assert h.telemetry.get("mflow_merge_skips") >= 1
        assert merge.merge_skips >= 1
        delivered = [s.flow_serial for s in sink.received]
        assert set(delivered) == set(range(24)) - lost

    def test_delivered_serials_unique(self):
        h, merge, sink = self._run_with_loss({7, 10, 11})
        delivered = [s.flow_serial for s in sink.received]
        assert len(delivered) == len(set(delivered))

    def test_in_microflow_order_preserved(self):
        """Whatever the counter skips, the segments of each surviving
        micro-flow must still come out in wire order."""
        h, merge, sink = self._run_with_loss({2, 9})
        per_mf = {}
        for s in sink.received:
            per_mf.setdefault(s.microflow_id, []).append(s.flow_serial)
        for mf, serials in per_mf.items():
            assert serials == sorted(serials), f"micro-flow {mf} out of order"

    def test_stage_level_conservation(self):
        """Injected minus lost equals delivered plus still-parked."""
        lost = {0, 1, 13}
        h, merge, sink = self._run_with_loss(lost)
        injected = 24 - len(lost)
        assert len(sink.received) + merge.parked_total() == injected


class TestPerPacketReorder:
    def test_restores_order(self):
        sink = CountingSink()
        h = Harness(
            [PerPacketReorderStage(), sink],
            mapping={"pkt_reorder": 0, "sink": 0},
        )
        skbs = tagged_skbs(6, batch=1, branches=2)
        order = [skbs[1], skbs[0], skbs[3], skbs[2], skbs[4], skbs[5]]
        for skb in order:
            h.inject(skb)
        h.run()
        assert [s.flow_serial for s in sink.received] == list(range(6))

    def test_charges_reorder_penalty(self):
        stage = PerPacketReorderStage()
        sink = CountingSink()
        h = Harness([stage, sink], mapping={"pkt_reorder": 0, "sink": 0})
        skbs = tagged_skbs(4, batch=1, branches=2)
        for skb in [skbs[1], skbs[0], skbs[2], skbs[3]]:
            h.inject(skb)
        h.run()
        assert stage.ooo_arrivals == 1
        assert h.cpus[0].busy_ns.get("pkt_reorder_ooo", 0) > 0

    def test_invalid_branch_count_rejected(self):
        with pytest.raises(ValueError):
            ReassemblyStage(0)
