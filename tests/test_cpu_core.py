"""Unit tests for the CPU core model."""

import pytest

from repro.cpu.core import Core, WorkItem
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def make_core(speed=1.0, jitter=0.0, seed=0):
    sim = Simulator()
    rng = RngStreams(seed).stream("core") if jitter > 0 else None
    return sim, Core(sim, 0, speed=speed, jitter_sigma=jitter, rng=rng)


class TestCoreExecution:
    def test_work_executes_after_cost(self):
        sim, core = make_core()
        done = []
        core.submit_call("t", 100.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [100.0]

    def test_serial_execution(self):
        sim, core = make_core()
        done = []
        core.submit_call("a", 100.0, lambda: done.append(("a", sim.now)))
        core.submit_call("b", 50.0, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done == [("a", 100.0), ("b", 150.0)]

    def test_speed_scales_duration(self):
        sim, core = make_core(speed=2.0)
        done = []
        core.submit_call("t", 100.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [50.0]

    def test_completion_may_submit_more_work(self):
        sim, core = make_core()
        done = []

        def first():
            core.submit_call("t", 30.0, lambda: done.append(sim.now))

        core.submit_call("t", 70.0, first)
        sim.run()
        assert done == [100.0]

    def test_zero_cost_work_allowed(self):
        sim, core = make_core()
        done = []
        core.submit_call("t", 0.0, lambda: done.append(True))
        sim.run()
        assert done == [True]

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            WorkItem("t", -1.0, lambda: None)

    @pytest.mark.parametrize("method", ["submit_call", "submit_front_call"])
    def test_negative_cost_rejected_with_warm_item_pool(self, method):
        """A recycled item skips WorkItem.__init__, so the cost check
        must not live only there: a negative cost would schedule the
        completion into the past."""
        sim, core = make_core()
        submit = getattr(core, method)
        with pytest.raises(ValueError):
            submit("x", -5.0, lambda: None)
        submit("x", 10.0, lambda: None)
        sim.run()
        assert core._item_pool, "one completed item now sits in the free list"
        with pytest.raises(ValueError, match="negative work cost"):
            submit("x", -5.0, lambda: None)
        assert core.queue_depth == 0 and not core.busy

    def test_submit_front_runs_before_queued_work(self):
        sim, core = make_core()
        order = []

        def first():
            # continuation jumps ahead of "b"
            core.submit_front_call("cont", 10.0, lambda: order.append("cont"))

        core.submit_call("a", 10.0, first)
        core.submit_call("b", 10.0, lambda: order.append("b"))
        sim.run()
        assert order == ["cont", "b"]

    def test_submit_front_on_idle_core_executes(self):
        sim, core = make_core()
        done = []
        core.submit_front_call("t", 5.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [5.0]


class TestCoreAccounting:
    def test_busy_time_per_tag(self):
        sim, core = make_core()
        core.submit_call("alloc", 100.0, lambda: None)
        core.submit_call("alloc", 50.0, lambda: None)
        core.submit_call("gro", 25.0, lambda: None)
        sim.run()
        assert core.busy_ns["alloc"] == pytest.approx(150.0)
        assert core.busy_ns["gro"] == pytest.approx(25.0)
        assert core.total_busy_ns() == pytest.approx(175.0)

    def test_items_executed(self):
        sim, core = make_core()
        for _ in range(7):
            core.submit_call("t", 1.0, lambda: None)
        sim.run()
        assert core.items_executed == 7

    def test_queue_depth_and_busy_flags(self):
        sim, core = make_core()
        assert not core.busy
        core.submit_call("t", 100.0, lambda: None)
        core.submit_call("t", 100.0, lambda: None)
        assert core.busy
        assert core.queue_depth == 1  # one running, one queued
        sim.run()
        assert not core.busy
        assert core.queue_depth == 0

    def test_every_item_returns_to_the_free_list(self):
        """Both submission paths draw from the free list and every
        completion returns its item, holding no callback references."""
        sim, core = make_core()
        for _ in range(3):
            core.submit_call("t", 10.0, lambda: None)
            core.submit_front_call("t", 10.0, lambda: None)
        sim.run()
        pool = core._item_pool
        assert len(pool) == 6 and core.items_executed == 6
        assert all(item.fn is None and item.args is None for item in pool)
        for _ in range(6):
            core.submit_call("t", 10.0, lambda: None)
        assert not pool, "warm submissions reuse pooled items"
        sim.run()
        assert len(pool) == 6


class TestCoreJitter:
    def test_generator_matches_scalar_draws(self):
        """A bare Generator is buffered, with the scalar-draw sequence."""
        import math

        sim, core = make_core(jitter=0.2, seed=3)
        for _ in range(700):  # spans a buffer refill
            core.submit_call("t", 100.0, lambda: None)
        sim.run()
        ref = RngStreams(3).stream("core")
        mu = -0.5 * 0.2 * 0.2
        expected = 0.0
        for _ in range(700):
            expected += 100.0 * math.exp(mu + 0.2 * ref.standard_normal())
        assert core.busy_ns["t"] == expected

    def test_a_claimed_stream_admits_no_second_core(self):
        """A stream has one consumer: a second core attaching raises."""
        sim = Simulator()
        normals = RngStreams(9).normals("core0.jitter")
        Core(sim, 0, jitter_sigma=0.1, rng=normals)
        with pytest.raises(ValueError, match="already has a consumer"):
            Core(sim, 1, jitter_sigma=0.1, rng=normals)

    def test_jitter_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Core(sim, 0, jitter_sigma=0.1)

    def test_jitter_varies_durations(self):
        sim, core = make_core(jitter=0.2, seed=3)
        times = []
        for _ in range(20):
            core.submit_call("t", 100.0, lambda: times.append(sim.now))
        sim.run()
        durations = [b - a for a, b in zip([0.0] + times, times)]
        assert len(set(round(d, 6) for d in durations)) > 10

    def test_jitter_mean_close_to_one(self):
        sim, core = make_core(jitter=0.1, seed=5)
        n = 2000
        for _ in range(n):
            core.submit_call("t", 100.0, lambda: None)
        sim.run()
        mean_duration = core.total_busy_ns() / n
        assert mean_duration == pytest.approx(100.0, rel=0.02)

    def test_invalid_speed_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Core(sim, 0, speed=0.0)

    def test_negative_jitter_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Core(sim, 0, jitter_sigma=-0.1)
