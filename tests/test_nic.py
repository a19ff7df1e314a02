"""Unit tests for the NIC model and wire."""

import functools
import json
import pickle

import pytest

from helpers import Harness, MapPolicy, TEST_FLOW
from repro.cpu.softirq import SOFTIRQ_ENTRY_COST_NS
from repro.netstack.costs import DEFAULT_COSTS
from repro.netstack.nic import Nic, Wire, _RxQueue
from repro.netstack.packet import FlowKey, Packet
from repro.netstack.stages import CountingSink
from repro.runner import scenario_result_to_dict
from repro.workloads.multiflow import build_multiflow_scenario
from repro.workloads.sockperf import build_scenario


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
    placement) with one flow re-placed mid-run: the policy drops the
    flow's placement and pool claims while its sender keeps sending, so
    its next frame places it a second time."""

    REPLACE_AT_NS = 150_000.0
    WINDOWS = {"warmup_ns": 100_000.0, "measure_ns": 300_000.0}

    def _scenario(self):
        sc = build_multiflow_scenario("mflow", 4, 65536, seed=3)
        victim = next(iter(sc._senders))
        sc.sim.call_at(self.REPLACE_AT_NS, sc.policy.retire_flow, victim, sc.pipeline)
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
        # the flow came back on another queue, so a memo that outlived
        # the re-placement would have shown above
        before = {q for t, flow, q, _ in landed if flow == victim and t < self.REPLACE_AT_NS}
        after = {q for t, flow, q, _ in landed if flow == victim and t >= self.REPLACE_AT_NS}
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


def _eager(nic):
    """Force one wheel entry per frame: the reference path that every run
    option takes.  It rules out fused stage runs too, which changes no
    simulated result."""
    nic.pipeline.reference_path = True


def _by_ring(landed):
    """Landings ``(ring core, wire_seq, arrival_ts, now)`` split by ring,
    each ring's in landing order."""
    rings = {}
    for core, *frame in landed:
        rings.setdefault(core, []).append(tuple(frame))
    return rings


class _Killed(BaseException):
    """Escapes the run loop right after a mid-run snapshot."""


class _SnapshotOnce:
    """A checkpointer that pickles the scenario once, between two events
    after ``at_ns``, and then kills the run."""

    def __init__(self, sc, at_ns):
        self.sc = sc
        self.at_ns = at_ns
        self.blob = None

    def begin(self, sim):
        pass

    def due(self, now_ns):
        return self.blob is None and now_ns >= self.at_ns

    def save(self, sim):
        sim.checkpointer = None
        self.blob = pickle.dumps(self.sc)
        raise _Killed


class TestLazyArrivals:
    """Frames land lazily (docs/ENGINE.md, "Lazy NIC arrivals").  Oracle:
    the same scenario with one wheel entry per frame.  Both runs must
    agree on the whole record, ``events_executed``, and, ring by ring,
    each frame's ``wire_seq``, ``arrival_ts`` and landing time in landing
    order (rings are independent, so landings on different rings may
    interleave differently); the lazy run must file fewer arrival
    entries than frames."""

    WINDOWS = {"warmup_ns": 100_000.0, "measure_ns": 300_000.0}

    def _instrument(self, m):
        """Record every landing; count the frames' own wheel entries."""
        landed, entries = [], []
        receive, arrive = _RxQueue.receive, Nic._arrive

        def recorded(queue, pkt):
            landed.append((queue.core.id, pkt.wire_seq, pkt.arrival_ts, queue.nic.sim.now))
            receive(queue, pkt)

        @functools.wraps(arrive)  # keeps entries picklable by name
        def counted(nic, pkt):
            entries.append(pkt.wire_seq)
            arrive(nic, pkt)

        m.setattr(_RxQueue, "receive", recorded)
        m.setattr(Nic, "_arrive", counted)
        return landed, entries

    def _run(self, monkeypatch, build, run, eager):
        with monkeypatch.context() as m:
            landed, entries = self._instrument(m)
            sc = build()
            if eager:
                _eager(sc.nic)
            res = run(sc)
        record = scenario_result_to_dict(res)
        record["events_executed"] = res.events_executed
        return sc, json.dumps(record, sort_keys=True), _by_ring(landed), entries

    def _compare(self, monkeypatch, build, run=None):
        run = run or (lambda sc: sc.run(**self.WINDOWS))
        sc, lazy, landed, entries = self._run(monkeypatch, build, run, eager=False)
        _, eager, eager_landed, eager_entries = self._run(monkeypatch, build, run, eager=True)
        assert lazy == eager
        assert landed == eager_landed
        frames = sum(len(ring) for ring in landed.values())
        assert len(eager_entries) == frames
        assert 0 < len(entries) < frames, "no frame landed lazily"
        # the stop landed every frame that had arrived by then
        assert all(f[0] > sc.sim.now for q in sc.nic._queues for f in q.pending)
        return sc, json.loads(lazy), landed

    def test_rss_vanilla_layout(self, monkeypatch):
        _, _, landed = self._compare(
            monkeypatch, lambda: build_multiflow_scenario("vanilla", 8, 4096, seed=5)
        )
        assert len(landed) > 1  # the flows spread over several rings

    def test_mflow_pool_with_a_flow_retired(self, monkeypatch):
        handed_back = []
        forget = _RxQueue.forget_flow

        def counted(queue, flow):
            now = queue.nic.sim.now
            handed_back.append(sum(1 for f in queue.pending if f[2].flow == flow and f[0] > now))
            forget(queue, flow)

        def build():
            sc = build_multiflow_scenario("mflow", 4, 65536, seed=3)
            victim = next(iter(sc._senders))
            sc.sim.call_at(150_000.0, sc.retire_flow, victim)
            return sc

        monkeypatch.setattr(_RxQueue, "forget_flow", counted)
        # the per-frame reference path never fuses; the lazy run fuses, and
        # the retirement cuts the runs that hold the flow's packets
        self._compare(monkeypatch, build)
        # the lazy run handed in-flight frames back to be re-placed
        assert handed_back[0] > 0

    def test_flow_re_placed_while_its_frame_wakes_the_irq(self, monkeypatch):
        """The flow moves to another queue while its next frame, the one
        whose entry wakes the armed IRQ, is on the wire: that entry stays
        the frame's own arrival and resolves the new queue when it fires;
        the frame queued behind it gets its own entry."""

        class Movable(MapPolicy):
            core = 1

            def nic_queue_core_idx(self, flow):
                return self.core

        def run(eager):
            with monkeypatch.context() as m:
                landed, _ = self._instrument(m)
                sink = CountingSink()
                h = Harness([sink], mapping={"sink": 3})
                policy = h.policy = h.pipeline.policy = Movable(h.cpus, {"sink": 3})
                nic = Nic(h.sim, h.costs, h.cpus[1], h.pipeline, h.telemetry,
                          rss_cores=[h.cpus[1], h.cpus[2]])
                if eager:
                    _eager(nic)
                wire = Wire(h.sim, h.costs, nic)
                first, woken, behind = (Packet(TEST_FLOW, 1000) for _ in range(3))
                h.sim.call_at(0.0, wire.send, first)  # places the flow on core 1
                # long after, the ring is idle and its IRQ armed again
                h.sim.call_at(50_000.0, wire.send, woken)
                h.sim.call_at(50_000.0, wire.send, behind)

                def move():
                    policy.core = 2
                    policy._forget_flow(TEST_FLOW)

                # both frames are still on the wire (1 us of propagation)
                assert h.costs.wire_delay_ns > 1.0
                h.sim.call_at(50_001.0, move)
                h.run()
            return _by_ring(landed), len(sink.received)

        lazy = run(eager=False)
        assert lazy == run(eager=True)
        rings, received = lazy
        assert received == 3
        assert [frame[0] for frame in rings[1]] == [0]
        assert [frame[0] for frame in rings[2]] == [1, 2]

    def test_udp_mflow(self, monkeypatch):
        self._compare(monkeypatch, lambda: build_scenario("mflow", "udp", 65536, seed=5))

    def test_ring_tail_drops(self, monkeypatch):
        costs = DEFAULT_COSTS.with_overrides(rx_ring_size=8, napi_budget=8)
        _, record, _ = self._compare(
            monkeypatch, lambda: build_scenario("mflow", "udp", 65536, seed=5, costs=costs)
        )
        assert record["counters"]["nic_ring_drops"] > 0

    @pytest.mark.parametrize("delay_ns, in_batch", [(200.0, True), (0.0, False)])
    def test_frame_arriving_as_napi_polls(self, monkeypatch, delay_ns, in_batch):
        """Without jitter, frame B arrives on the very nanosecond NAPI
        polls.  The poll takes it exactly when B's arrival entry would
        have been filed before the poll's: B left the sender before the
        IRQ work that raised NAPI completed (``delay_ns`` 200), not after
        (``delay_ns`` 0)."""
        costs = DEFAULT_COSTS.with_overrides(wire_delay_ns=delay_ns)
        header = Packet(TEST_FLOW, 1).wire_bytes - 1
        ser_ns = 100 * 8 / costs.link_gbps  # a 100-byte frame: 8 ns, exactly
        poll_ns = ser_ns + delay_ns + costs.irq_cost_ns + SOFTIRQ_ENTRY_COST_NS

        def run(eager):
            polls, batches = [], []
            poll, emit = _RxQueue._poll, _RxQueue._emit

            def polled(queue, core):
                polls.append(queue.nic.sim.now)
                return poll(queue, core)

            def emitted(queue, batch, core):
                batches.append([p.wire_seq for p in batch])
                emit(queue, batch, core)

            with monkeypatch.context() as m:
                m.setattr(_RxQueue, "_poll", polled)
                m.setattr(_RxQueue, "_emit", emitted)
                h, nic, sink = nic_harness(costs=costs)
                if eager:
                    _eager(nic)
                wire = Wire(h.sim, h.costs, nic)
                a, b = Packet(TEST_FLOW, 100 - header), Packet(TEST_FLOW, 100 - header)
                h.sim.call_at(0.0, wire.send, a)
                h.sim.call_at(poll_ns - ser_ns - delay_ns, wire.send, b)
                h.run()
            assert polls[0] == b.arrival_ts == poll_ns  # the tie
            return polls, batches, h.telemetry.get("nic_irqs"), len(sink.received)

        lazy = run(eager=False)
        assert lazy == run(eager=True)
        _, batches, irqs, received = lazy
        assert batches[0] == ([0, 1] if in_batch else [0])
        assert irqs == (1 if in_batch else 2) and received == 2

    def test_windows_sliced_into_many_runs(self, monkeypatch):
        def sliced(sc, step_ns=3_217.0):
            warmup, measure = self.WINDOWS["warmup_ns"], self.WINDOWS["measure_ns"]
            sc._begin_run(warmup, measure)
            t = 0.0
            while t < warmup + measure:
                if t == warmup:
                    sc._begin_measure_window()
                t = min(t + step_ns, warmup if t < warmup else warmup + measure)
                sc.sim.run(until_ns=t)
                # every stop sees each frame that has arrived by then
                assert all(f[0] > t for q in sc.nic._queues for f in q.pending)
            sc._run_phase = "done"
            return sc._collect(measure)

        self._compare(
            monkeypatch, lambda: build_multiflow_scenario("vanilla", 8, 4096, seed=5), sliced
        )

    def test_checkpoint_restored_mid_run(self, monkeypatch):
        pending_at_snapshot = []

        def killed_and_restored(sc):
            sc.sim.checkpointer = snap = _SnapshotOnce(sc, 250_000.0)
            with pytest.raises(_Killed):
                sc.run(**self.WINDOWS)
            restored = pickle.loads(snap.blob)
            pending_at_snapshot.append(sum(len(q.pending) for q in restored.nic._queues))
            return restored._finish_run()

        def build():
            return build_multiflow_scenario("vanilla", 8, 4096, seed=5)

        _, lazy, landed, _ = self._run(monkeypatch, build, killed_and_restored, eager=False)
        _, eager, eager_landed, _ = self._run(
            monkeypatch, build, lambda sc: sc.run(**self.WINDOWS), eager=True
        )
        assert lazy == eager
        assert landed == eager_landed
        assert pending_at_snapshot[0] > 0, "the snapshot held no frame in flight"
