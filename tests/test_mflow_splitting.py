"""Unit tests for micro-flow splitting."""

import pytest

from helpers import Harness, TEST_FLOW
from repro.core.splitting import MicroflowSplitStage
from repro.netstack.costs import DEFAULT_COSTS
from repro.netstack.packet import FlowKey, Skb, fragment_message
from repro.netstack.stages import CountingSink


def split_harness(batch=4, branches=2, per_flow=True):
    sink = CountingSink()
    split = MicroflowSplitStage(batch, branches, per_flow=per_flow)
    h = Harness([split, sink], mapping={"mflow_split": 1, "sink": 1})
    return h, split, sink


def one_seg_skbs(n, flow=TEST_FLOW):
    frags = fragment_message(flow, 0, 1448 * n)
    return [Skb([f]) for f in frags]


class TestSplitting:
    def test_batch_assignment(self):
        h, split, sink = split_harness(batch=4, branches=2)
        for skb in one_seg_skbs(10):
            h.inject(skb)
        h.run()
        mfs = [s.microflow_id for s in sink.received]
        assert mfs == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_branch_round_robin(self):
        h, split, sink = split_harness(batch=2, branches=3)
        for skb in one_seg_skbs(8):
            h.inject(skb)
        h.run()
        branches = [s.branch for s in sink.received]
        assert branches == [0, 0, 1, 1, 2, 2, 0, 0]

    def test_flow_serial_monotone(self):
        h, split, sink = split_harness()
        for skb in one_seg_skbs(5):
            h.inject(skb)
        h.run()
        serials = [s.flow_serial for s in sink.received]
        assert serials == [0, 1, 2, 3, 4]

    def test_multi_seg_skb_stays_in_one_microflow(self):
        h, split, sink = split_harness(batch=4, branches=2)
        frags = fragment_message(TEST_FLOW, 0, 1448 * 8)
        h.inject(Skb(frags[0:3]))  # 3 segs
        h.inject(Skb(frags[3:6]))  # crosses the batch=4 boundary as a unit
        h.run()
        assert sink.received[0].microflow_id == 0
        assert sink.received[1].microflow_id == 0  # started at serial 3 < 4

    def test_per_flow_counters_independent(self):
        other = FlowKey(9, 2, "tcp", 9, 9)
        h, split, sink = split_harness(batch=2, branches=2)
        for skb in one_seg_skbs(3):
            h.inject(skb)
        for skb in one_seg_skbs(3, flow=other):
            h.inject(skb)
        h.run()
        by_flow = {}
        for s in sink.received:
            by_flow.setdefault(s.flow, []).append(s.microflow_id)
        assert by_flow[TEST_FLOW] == [0, 0, 1]
        assert by_flow[other] == [0, 0, 1]

    def test_aggregate_mode_shares_counter(self):
        other = FlowKey(9, 2, "tcp", 9, 9)
        h, split, sink = split_harness(batch=2, branches=2, per_flow=False)
        h.inject(one_seg_skbs(1)[0])
        h.inject(one_seg_skbs(1, flow=other)[0])
        h.inject(one_seg_skbs(2)[1])
        h.run()
        assert [s.microflow_id for s in sink.received] == [0, 0, 1]

    def test_size_bookkeeping(self):
        h, split, sink = split_harness(batch=4, branches=2)
        for skb in one_seg_skbs(6):
            h.inject(skb)
        h.run()
        assert split.microflow_size(TEST_FLOW, 0) == 4
        assert split.microflow_size(TEST_FLOW, 1) == 2
        assert split.microflow_closed(TEST_FLOW, 0)
        assert not split.microflow_closed(TEST_FLOW, 1)

    def test_forget_microflow(self):
        h, split, sink = split_harness(batch=2, branches=2)
        for skb in one_seg_skbs(2):
            h.inject(skb)
        h.run()
        split.forget_microflow(TEST_FLOW, 0)
        assert split.microflow_size(TEST_FLOW, 0) == 0

    def test_microflows_emitted(self):
        h, split, sink = split_harness(batch=4, branches=2)
        for skb in one_seg_skbs(9):
            h.inject(skb)
        h.run()
        assert split.microflows_emitted(TEST_FLOW) == 3

    def test_split_cost_charged(self):
        h, split, sink = split_harness()
        h.inject(one_seg_skbs(1)[0])
        h.run()
        assert h.cpus[1].busy_ns["mflow_split"] == pytest.approx(
            DEFAULT_COSTS.mflow_split_ns
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MicroflowSplitStage(0, 2)
        with pytest.raises(ValueError):
            MicroflowSplitStage(4, 0)
