"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import Harness, TEST_FLOW
from repro.core.reassembly import ReassemblyStage
from repro.core.splitting import MicroflowSplitStage
from repro.netstack.packet import FlowKey, Skb, fragment_message
from repro.netstack.stages import CountingSink
from repro.sim.engine import Simulator
from repro.sim.queues import RingBuffer
from repro.steering.base import stable_flow_hash

flows = st.builds(
    FlowKey,
    src=st.integers(0, 2**16),
    dst=st.integers(0, 2**16),
    proto=st.sampled_from(["tcp", "udp"]),
    sport=st.integers(0, 2**16 - 1),
    dport=st.integers(0, 2**16 - 1),
)


class TestFragmentationProperties:
    @given(size=st.integers(1, 300_000), start=st.integers(0, 2**24))
    @settings(max_examples=60)
    def test_fragments_cover_exactly(self, size, start):
        frags = fragment_message(TEST_FLOW, 0, size, start_seq=start)
        assert sum(f.payload for f in frags) == size
        # contiguous, non-overlapping byte ranges
        pos = start
        for f in frags:
            assert f.seq == pos
            pos += f.payload
        assert pos == start + size

    @given(size=st.integers(1, 300_000))
    @settings(max_examples=60)
    def test_exactly_one_message_completion(self, size):
        frags = fragment_message(TEST_FLOW, 0, size)
        assert sum(f.messages_completed for f in frags) == 1
        assert frags[-1].messages_completed == 1

    @given(size=st.integers(1, 300_000))
    @settings(max_examples=60)
    def test_no_fragment_exceeds_mss(self, size):
        for f in fragment_message(TEST_FLOW, 0, size):
            assert 1 <= f.payload <= 1448


class TestHashProperties:
    @given(flow=flows)
    @settings(max_examples=100)
    def test_hash_stable_and_bounded(self, flow):
        h = stable_flow_hash(flow)
        assert h == stable_flow_hash(flow)
        assert 0 <= h < 2**64


class TestQueueProperties:
    @given(items=st.lists(st.integers(), min_size=1, max_size=60), cap=st.integers(1, 20))
    @settings(max_examples=60)
    def test_ring_never_exceeds_capacity(self, items, cap):
        ring = RingBuffer("r", cap)
        for x in items:
            ring.push(x)
            assert len(ring) <= cap
        accepted = ring.total_enqueued
        assert accepted == min(len(items), cap) or accepted <= len(items)
        assert ring.drops == len(items) - accepted


class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.call_in(d, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestSplitMergeRoundTrip:
    @given(
        n_packets=st.integers(1, 120),
        batch=st.integers(1, 64),
        branches=st.integers(1, 4),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_then_merge_is_identity(self, n_packets, batch, branches, seed):
        """THE core invariant (paper §III-B): for a lossless path, split →
        parallel processing → merge delivers every packet exactly once, in
        the original order — for any batch size and branch count."""
        import numpy as np

        splitter = MicroflowSplitStage(batch, branches)
        merge = ReassemblyStage(branches, splitter=splitter, timeout_ns=1e12)
        sink = CountingSink()
        # branch cores chosen per skb.branch: emulate with a mapping policy
        from helpers import MapPolicy
        from repro.netstack.packet import Skb

        class BranchPolicy(MapPolicy):
            def kernel_core_for(self, stage_name, skb, from_core):
                if stage_name == "mflow_split":
                    return self.cpus[1]
                if stage_name == "mflow_merge" or stage_name == "sink":
                    return self.cpus[0]
                # mid stage runs on the skb's branch core
                b = skb.branch if skb.branch is not None else 0
                return self.cpus[2 + b]

        from repro.netstack.stages import PassthroughStage

        mid = PassthroughStage("mid", "ip_rcv_ns")
        h = Harness([splitter, mid, merge, sink], n_cores=2 + branches, policy=None)
        h.policy = BranchPolicy(h.cpus)
        h.pipeline.policy = h.policy
        # jitter the branch cores' speeds so they race
        rng = np.random.default_rng(seed)
        for c in h.cpus.cores[2:]:
            c.speed = float(rng.uniform(0.5, 2.0))
        frags = fragment_message(TEST_FLOW, 0, 1448 * n_packets)
        for i, f in enumerate(frags):
            f.wire_seq = i
            h.inject(Skb([f]))
        h.run()
        serials = [s.flow_serial for s in sink.received]
        assert serials == list(range(n_packets))


class TestTcpReceiverProperty:
    @given(order_seed=st.integers(0, 1000), n=st.integers(2, 30))
    @settings(max_examples=40, deadline=None)
    def test_any_arrival_order_delivers_in_sequence(self, order_seed, n):
        """The TCP receiver's OOO queue restores byte order for any
        permutation of segment arrivals."""
        import numpy as np

        from repro.netstack.protocol.tcp import TcpReceiverStage

        rcv = TcpReceiverStage()
        sink = CountingSink()
        h = Harness([rcv, sink], mapping={"tcp_rcv": 1, "sink": 1})
        frags = fragment_message(TEST_FLOW, 0, 1448 * n)
        order = np.random.default_rng(order_seed).permutation(n)
        for idx in order:
            h.inject(Skb([frags[idx]]))
        h.run()
        seqs = [s.seq for s in sink.received]
        assert seqs == sorted(seqs)
        assert len(seqs) == n
