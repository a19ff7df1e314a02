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


def test_call_family_returns_no_handle():
    """Events are bare wheel entries: scheduling hands back nothing to
    hold, and ``pending`` counts exactly the entries still to fire."""
    sim = Simulator()
    seen = []
    assert sim.call_in(10.0, seen.append, "in") is None
    assert sim.call_at(5.0, seen.append, "at") is None
    assert sim.call_soon(seen.append, "soon") is None
    assert sim.pending == 3
    sim.run(until_ns=7.0)
    assert sim.pending == 1
    sim.run()
    assert seen == ["soon", "at", "in"]
    assert sim.pending == 0


def test_not_reentrant():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.call_in(1.0, reenter)
    with pytest.raises(SimulationError):
        sim.run()
