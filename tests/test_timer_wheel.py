"""Tests for the hierarchical timer wheel and the skb pool.

Exercises the paths a single sorted heap never had: same-timestamp FIFO
for entries that lived in *different* wheel levels, overflow-heap
promotion when the window jumps, the bare ``(time, seq, fn, args)``
entry layout every scheduling call files, recycled-skb poisoning, and
checkpoint round-trips with every level populated.
"""

import pickle
from itertools import chain

import pytest

from helpers import Harness, make_skb
from repro.netstack.stages import CountingSink, PassthroughStage
from repro.sim.engine import SimulationError, Simulator

#: one L0 slot is 1024 ns; one L1 slot is 256 L0 slots (262144 ns); the
#: wheel horizon (L1 window) is 256 L1 slots ~ 67.1 ms
L0_NS = 1024.0
L1_NS = 262_144.0
HORIZON_NS = 256 * L1_NS


class Recorder:
    """Picklable callback target: appends labels to a log."""

    def __init__(self):
        self.log = []

    def hit(self, label):
        self.log.append(label)


def _log_filed_levels(sim):
    """Wrap ``sim._sched`` so that, right after each entry is filed, the
    wheel level now holding it is read off the wheel and logged under the
    entry's label (its string argument, else its callback's name)."""
    levels = {}
    sched = sim._sched

    def sched_and_locate(time_ns, fn, args):
        sched(time_ns, fn, args)
        seq = sim._seq - 1
        wheel = (
            ("active", sim._active),
            ("l0", chain.from_iterable(sim._slot0)),
            ("l1", chain.from_iterable(sim._slot1)),
            ("far", sim._far),
        )
        label = args[0] if args and isinstance(args[0], str) else fn.__name__
        levels[label] = next(name for name, entries in wheel
                             if any(entry[1] == seq for entry in entries))

    sim._sched = sched_and_locate
    return levels


class TestSameTimestampFifoAcrossLevels:
    def test_fire_order_is_schedule_order_regardless_of_level(self):
        """Four events at the exact same timestamp, filed (in schedule
        order) into the overflow heap, L1, L0, and the active heap, must
        still fire in schedule order."""
        sim = Simulator()
        rec = Recorder()
        T = 104_900_000.0  # ~104.9 ms: beyond the horizon at t=0

        sim.call_at(T, self._fire_a, sim, rec, T)  # seq 0 -> overflow
        sim.call_at(50_000_000.0, self._sched_b, sim, rec, T)
        sim.call_at(104_860_000.0, self._sched_c, sim, rec, T)
        sim.run()
        assert rec.log == ["A", "B", "C", "D"]
        assert sim.now == T

    def test_levels_actually_used(self):
        """Same scenario, reading the wheel right after each schedule:
        each wheel level must receive at least one entry (guards against
        the test silently degenerating into a single-level schedule)."""
        sim = Simulator()
        levels = _log_filed_levels(sim)
        rec = Recorder()
        T = 104_900_000.0
        sim.call_at(T, self._fire_a, sim, rec, T)
        sim.call_at(50_000_000.0, self._sched_b, sim, rec, T)
        sim.call_at(104_860_000.0, self._sched_c, sim, rec, T)
        sim.run()
        assert rec.log == ["A", "B", "C", "D"]
        assert levels["_fire_a"] == "far", "A must start on the overflow heap"
        assert levels["B"] == "l1", "B must be filed into an L1 slot"
        assert levels["C"] == "l0", "C must be filed into an L0 slot"
        assert levels["D"] == "active", "D (scheduled at now) must land in the active heap"

    # callbacks are methods of the test class so they stay picklable and
    # self-contained; labels mirror their intended fire order
    def _fire_a(self, sim, rec, T):
        rec.hit("A")
        sim.call_at(T, rec.hit, "D")  # same-time schedule from inside T

    def _sched_b(self, sim, rec, T):
        sim.call_at(T, rec.hit, "B")  # ~55 ms out: lands in L1

    def _sched_c(self, sim, rec, T):
        sim.call_at(T, rec.hit, "C")  # same L1 interval as T: lands in L0


class TestOverflowPromotion:
    def test_far_future_event_fires(self):
        sim = Simulator()
        rec = Recorder()
        T = 3 * HORIZON_NS  # ~201 ms, far beyond the wheel
        sim.call_at(T, rec.hit, "far")
        sim.run()
        assert rec.log == ["far"]
        assert sim.now == T

    def test_window_jump_promotes_everything_it_covers(self, monkeypatch):
        """When the wheel is empty and the window jumps to the overflow
        horizon, every entry the advanced window now covers must be
        promoted — including ones several L1 slots past the jump target."""
        jumps = []
        advance = Simulator._advance_l1

        def observed(sim):
            # with L1 empty, an advance can only jump to the overflow horizon
            jumping = not sim._n1 and bool(sim._far)
            moved = advance(sim)
            if moved and jumping:
                jumps.append(sim._cur1)
            return moved

        monkeypatch.setattr(Simulator, "_advance_l1", observed)
        sim = Simulator()
        rec = Recorder()
        base = 70_000_000.0  # first far event (~70 ms)
        times = [
            base,
            base + 100.0,            # same L0 slot as base
            base + 60_000_000.0,     # ~229 L1 slots later: promoted to L1
            base + 70_000_000.0,     # ~267 L1 slots later: stays on overflow
        ]
        for i, t in enumerate(times):
            sim.call_at(t, rec.hit, i)
        sim.run()
        assert rec.log == [0, 1, 2, 3]
        assert sim.now == times[-1]
        assert jumps, "the window never jumped to the overflow horizon"

    def test_dense_then_sparse_interleaving(self):
        """Mixing sub-slot, L0, L1, and overflow timers preserves global
        (time, seq) order end to end."""
        sim = Simulator()
        rec = Recorder()
        times = [
            10.0, 1_500.0, 300_000.0, 5_000_000.0,
            66_000_000.0, 68_000_000.0, 200_000_000.0,
        ]
        # schedule in reverse so schedule order disagrees with fire order
        for t in reversed(times):
            sim.call_at(t, rec.hit, t)
        sim.run()
        assert rec.log == times


class TestZeroDelaySelfReschedule:
    def test_call_in_zero_makes_progress(self):
        sim = Simulator()
        rec = Recorder()

        def tick(n):
            rec.hit(n)
            if n > 0:
                sim.call_in(0, tick, n - 1)

        sim.call_soon(tick, 5)
        sim.run()
        assert rec.log == [5, 4, 3, 2, 1, 0]
        assert sim.now == 0.0

    def test_zero_delay_is_fifo_with_queued_same_time_events(self):
        """A zero-delay reschedule runs *after* already-queued events at
        the same timestamp (seq order), never before."""
        sim = Simulator()
        rec = Recorder()

        def first():
            rec.hit("first")
            sim.call_in(0, rec.hit, "resched")

        sim.call_soon(first)
        sim.call_soon(rec.hit, "second")
        sim.run()
        assert rec.log == ["first", "second", "resched"]

    def test_sched_zero_delay_self_reschedule(self):
        """The zero-delay pattern fires in the same order and keeps only
        bare entry tuples on the active heap."""
        sim = Simulator()
        rec = Recorder()

        def tick(n):
            rec.hit(n)
            if n > 0:
                sim.call_in(0.0, tick, n - 1)
                assert sim._active == [(sim.now, sim._seq - 1, tick, (n - 1,))]

        sim.call_soon(tick, 3)
        assert sim._active == [(0.0, 0, tick, (3,))]
        sim.run()
        assert rec.log == [3, 2, 1, 0]


class TestMixedEntries:
    """Every scheduling call, whatever its front door, files the same bare
    ``(time, seq, fn, args)`` entry on one wheel."""

    def _entries(self, sim):
        out = list(sim._active) + list(sim._far)
        for slots in (sim._slot0, sim._slot1):
            for s in slots:
                out.extend(s)
        return out

    def test_sched_creates_no_event(self):
        """No scheduling call allocates anything but the entry tuple: the
        wheel holds exactly ``(time, seq, fn, args)`` with the caller's
        own callback, and the call hands nothing back."""
        sim = Simulator()
        rec = Recorder()
        hit = rec.hit
        expected = []
        for t in (0.0, 10.0, 5_000.0, 1_000_000.0, 200_000_000.0):
            assert sim.call_at(t, hit, t) is None
            expected.append((t, len(expected), hit, (t,)))
        assert sim.call_in(3.0, hit, "in") is None
        expected.append((3.0, len(expected), hit, ("in",)))
        assert sim.call_soon(hit, "soon") is None
        expected.append((0.0, len(expected), hit, ("soon",)))
        entries = self._entries(sim)
        assert all(type(e) is tuple and len(e) == 4 for e in entries)
        assert sorted(entries) == sorted(expected)
        assert sim.pending == len(expected)
        sim.run()
        assert len(rec.log) == 7 and sim.pending == 0

    def test_mixed_entries_fire_in_time_seq_order(self):
        """Entries filed through different front doors onto every level
        fire in global ``(time, seq)`` order."""
        sim = Simulator()
        rec = Recorder()
        times = [0.0, 7.0, 7.0, 2_048.0, 2_048.0, 300_000.0, 300_000.0,
                 HORIZON_NS * 2, HORIZON_NS * 2, 7.0]
        expected = []
        for i, t in enumerate(times):
            label = (t, i)
            expected.append(label)
            if i % 2:
                sim.call_at(t, rec.hit, label)
            else:
                sim.call_in(t, rec.hit, label)
        sim.run()
        assert rec.log == sorted(expected)


class TestRecycleSafety:
    def test_recycled_skb_reinjection_raises(self):
        h = Harness([PassthroughStage("s1", "ip_rcv_ns"), CountingSink()])
        skb = h.pipeline.alloc_skb(make_skb().packets[0])
        h.pipeline.recycle_skb(skb)
        assert skb.packets is None and skb.gen == 1
        with pytest.raises(SimulationError, match="recycled skb"):
            h.inject(skb)

    def test_skb_pool_reuse_resets_identity(self):
        h = Harness([PassthroughStage("s1", "ip_rcv_ns"), CountingSink()])
        first = h.pipeline.alloc_skb(make_skb(size=100).packets[0])
        first.trace_id = 7
        first.microflow_id = 3
        h.pipeline.recycle_skb(first)
        again = h.pipeline.alloc_skb(make_skb(size=200, msg_id=1).packets[0])
        assert again is first, "free list must hand back the recycled object"
        assert again.gen == 1
        assert again.trace_id is None and again.microflow_id is None
        assert again.segs == 1 and again.payload_bytes == 200


class TestWheelCheckpointRoundTrip:
    def _populate(self):
        """A simulator with live entries on every level — the worst case
        for a snapshot."""
        sim = Simulator()
        rec = Recorder()
        sim.call_in(10.0, rec.hit, "warm")  # fires pre-snapshot
        sim.call_at(100.0, rec.hit, "active-ish")
        sim.call_at(5_000.0, rec.hit, "l0")
        sim.call_at(1_000_000.0, rec.hit, "l1")
        sim.call_at(200_000_000.0, rec.hit, "far")
        sim.call_in(2_000_000.0, rec.hit, "l1-in")
        sim.run(until_ns=50.0)  # past the warmup event only
        assert rec.log == ["warm"]
        return sim, rec

    def test_pickle_restore_fires_identically(self):
        sim, rec = self._populate()
        clone = pickle.loads(pickle.dumps(sim))
        # the clone's callbacks target the *cloned* recorder: fish it out
        # of a still-pending overflow entry before running
        crec = clone._far[0][2].__self__
        assert isinstance(crec, Recorder) and crec is not rec
        sim.run()
        clone.run()
        expected = ["active-ish", "l0", "l1", "l1-in", "far"]
        assert rec.log[1:] == expected
        assert crec.log[1:] == expected
        assert clone.now == sim.now
        assert clone.events_executed == sim.events_executed
        assert clone.pending == sim.pending == 0

    def test_snapshot_preserves_counters_exactly(self):
        sim, _ = self._populate()
        clone = pickle.loads(pickle.dumps(sim))
        for attr in ("_npending", "_cur0", "_cur1", "_n1",
                     "_seq", "_now", "events_executed"):
            assert getattr(clone, attr) == getattr(sim, attr), attr
        assert len(clone._far) == len(sim._far)
