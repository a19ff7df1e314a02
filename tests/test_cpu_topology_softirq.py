"""Unit tests for CpuSet windows and the softirq machinery."""

import pytest

from repro.cpu.core import Core
from repro.cpu.softirq import Softirq
from repro.cpu.topology import CpuSet
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


class TestCpuSet:
    def test_indexing_and_len(self):
        sim = Simulator()
        cpus = CpuSet(sim, 4)
        assert len(cpus) == 4
        assert cpus[2].id == 2
        assert [c.id for c in cpus] == [0, 1, 2, 3]

    def test_needs_at_least_one_core(self):
        with pytest.raises(ValueError):
            CpuSet(Simulator(), 0)

    def test_speeds_length_validated(self):
        with pytest.raises(ValueError):
            CpuSet(Simulator(), 2, speeds=[1.0])

    def test_utilization_over_window(self):
        sim = Simulator()
        cpus = CpuSet(sim, 2)
        cpus.start_window()
        cpus[0].submit_call("t", 500.0, lambda: None)
        sim.run(until_ns=1000.0)
        utils = cpus.utilization()
        assert utils[0] == pytest.approx(0.5)
        assert utils[1] == 0.0

    def test_window_excludes_prior_busy_time(self):
        sim = Simulator()
        cpus = CpuSet(sim, 1)
        cpus[0].submit_call("t", 500.0, lambda: None)
        sim.run(until_ns=1000.0)
        cpus.start_window()
        sim.run(until_ns=2000.0)
        assert cpus.utilization()[0] == pytest.approx(0.0)

    def test_utilization_breakdown_by_tag(self):
        sim = Simulator()
        cpus = CpuSet(sim, 1)
        cpus.start_window()
        cpus[0].submit_call("alloc", 250.0, lambda: None)
        cpus[0].submit_call("gro", 250.0, lambda: None)
        sim.run(until_ns=1000.0)
        row = cpus.utilization_breakdown()[0]
        assert row["alloc"] == pytest.approx(0.25)
        assert row["gro"] == pytest.approx(0.25)

    def test_window_edges_inside_items_split_them(self):
        """An item in flight at either edge counts only its part inside
        the window, so a saturated core reads exactly 1."""
        sim = Simulator()
        cpus = CpuSet(sim, 1)
        cpus[0].submit_call("a", 100.0, lambda: None)  # runs 0..100
        cpus[0].submit_call("b", 100.0, lambda: None)  # runs 100..200
        sim.run(until_ns=30.0)
        cpus.start_window()
        sim.run(until_ns=120.0)
        assert cpus.utilization() == [pytest.approx(1.0)]
        assert cpus.utilization_breakdown() == [
            {"a": pytest.approx(70 / 90), "b": pytest.approx(20 / 90)}
        ]

    def test_empty_window_zero_utilization(self):
        sim = Simulator()
        cpus = CpuSet(sim, 1)
        cpus.start_window()
        assert cpus.utilization() == [0.0]

    def test_jittered_cpuset_requires_rngs(self):
        sim = Simulator()
        cpus = CpuSet(sim, 2, jitter_sigma=0.1, rngs=RngStreams(0))
        assert all(c.jitter_sigma == 0.1 for c in cpus)

    def test_each_machine_names_its_own_streams(self):
        sim, rngs = Simulator(), RngStreams(0)
        receiver = CpuSet(sim, 2, jitter_sigma=0.1, rngs=rngs)
        client = CpuSet(sim, 2, jitter_sigma=0.1, rngs=rngs, stream_prefix="client0.")
        assert client[1]._normals is rngs.normals("client0.core1.jitter")
        assert client[1]._normals is not receiver[1]._normals
        with pytest.raises(ValueError, match="already has a consumer"):
            CpuSet(sim, 2, jitter_sigma=0.1, rngs=rngs, stream_prefix="client0.")


class TestSoftirq:
    def _setup(self):
        sim = Simulator()
        core = Core(sim, 0)
        return sim, core

    def test_handler_runs_on_core(self):
        sim, core = self._setup()
        runs = []
        sirq = Softirq("test", lambda c: runs.append(c.id) and False)
        sirq.raise_on(core)
        sim.run()
        assert runs == [0]

    def test_raise_coalesces_while_pending(self):
        sim, core = self._setup()
        runs = []

        def handler(c):
            runs.append(sim.now)
            return False

        sirq = Softirq("test", handler)
        sirq.raise_on(core)
        sirq.raise_on(core)
        sirq.raise_on(core)
        sim.run()
        assert len(runs) == 1
        assert sirq.raises == 1

    def test_handler_true_reraises(self):
        sim, core = self._setup()
        state = {"left": 3}

        def handler(c):
            state["left"] -= 1
            return state["left"] > 0

        sirq = Softirq("test", handler)
        sirq.raise_on(core)
        sim.run()
        assert state["left"] == 0

    def test_pending_flag_lifecycle(self):
        sim, core = self._setup()
        sirq = Softirq("test", lambda c: False)
        assert not sirq.pending_on(core)
        sirq.raise_on(core)
        assert sirq.pending_on(core)
        sim.run()
        assert not sirq.pending_on(core)
