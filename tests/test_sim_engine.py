"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_in_executes_at_right_time():
    sim = Simulator()
    seen = []
    sim.call_in(100.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100.0]


def test_events_execute_in_time_order():
    sim = Simulator()
    order = []
    sim.call_in(300.0, order.append, "c")
    sim.call_in(100.0, order.append, "a")
    sim.call_in(200.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_in(50.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_call_soon_runs_after_pending_same_time():
    sim = Simulator()
    order = []
    sim.call_in(0.0, order.append, "first")
    sim.call_soon(order.append, "second")
    sim.run()
    assert order == ["first", "second"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)


def test_call_at_in_past_rejected():
    sim = Simulator()
    sim.call_in(100.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(50.0, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    seen = []
    sim.call_in(100.0, seen.append, 1)
    sim.call_in(500.0, seen.append, 2)
    sim.run(until_ns=250.0)
    assert seen == [1]
    assert sim.now == 250.0
    sim.run()
    assert seen == [1, 2]
    assert sim.now == 500.0


def test_run_until_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until_ns=1000.0)
    assert sim.now == 1000.0


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    ev = sim.call_in(10.0, seen.append, "x")
    ev.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.call_in(10.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def outer():
        sim.call_in(50.0, lambda: seen.append(sim.now))

    sim.call_in(10.0, outer)
    sim.run()
    assert seen == [60.0]


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.call_in(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_live_pending_excludes_cancelled():
    sim = Simulator()
    events = [sim.call_in(float(i + 1), lambda: None) for i in range(10)]
    events[0].cancel()
    events[1].cancel()
    assert sim.pending == 10  # over-reports by design (lazy deletion)
    assert sim.live_pending == 8


def test_heap_compacts_when_mostly_cancelled():
    sim = Simulator()
    n = Simulator.COMPACT_MIN_EVENTS + 36
    events = [sim.call_in(float(i + 1), lambda: None) for i in range(n)]
    to_cancel = n // 2 + 1
    for ev in events[:to_cancel]:
        ev.cancel()
    # more than half the heap is dead -> it was rebuilt in place
    assert sim.pending == n - to_cancel
    assert sim.live_pending == sim.pending


def test_small_heaps_are_not_compacted():
    sim = Simulator()
    events = [sim.call_in(float(i + 1), lambda: None) for i in range(8)]
    for ev in events:
        ev.cancel()
    assert sim.pending == 8  # below COMPACT_MIN_EVENTS: lazy deletion only
    assert sim.live_pending == 0


def test_events_survive_compaction():
    sim = Simulator()
    seen = []
    n = Simulator.COMPACT_MIN_EVENTS + 36
    events = [sim.call_in(float(i + 1), seen.append, i) for i in range(n)]
    for ev in events[: n // 2 + 1]:
        ev.cancel()
    # events scheduled after the rebuild must land in the same heap
    sim.call_in(0.5, seen.append, "early")
    sim.run()
    assert seen[0] == "early"
    assert seen[1:] == list(range(n // 2 + 1, n))
    assert sim.live_pending == 0


def test_not_reentrant():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.call_in(1.0, reenter)
    with pytest.raises(SimulationError):
        sim.run()
