"""Deterministic fault injection: plans, injectors, degradation, identity.

The two hard guarantees under test:

* **zero-fault bit-identity** — attaching an inert plan (or the named
  ``clean`` plan) is indistinguishable, counter for counter and event
  for event, from attaching no plan at all;
* **schedule determinism** — the same seed + plan replays the same fault
  schedule, serially or across engine workers, while a different
  ``seed_salt`` decorrelates it.
"""

import pytest

from repro.faults import (
    PLANS,
    FaultInjectors,
    FaultPlan,
    FlowHealthMonitor,
    clone_packet,
)
from repro.metrics.telemetry import Telemetry
from repro.netstack.packet import FlowKey, fragment_message
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MSEC
from repro.steering.base import PoolAllocator
from repro.workloads.options import RunOptions
from repro.workloads.sockperf import run_single_flow

QUICK = {"warmup_ns": 0.2 * MSEC, "measure_ns": 1.0 * MSEC}
WIN = {"warmup_ns": 1.0 * MSEC, "measure_ns": 3.0 * MSEC}


def result_fingerprint(res):
    """Everything that must match for two runs to count as identical."""
    return (
        res.throughput_gbps,
        res.messages_delivered,
        res.events_executed,
        dict(res.counters),
        dict(res.drops),
    )


def nic_arrivals(res):
    """Frames that reached the NIC (accepted + shed at the ring)."""
    return res.counters["nic_rx_packets"] + res.counters.get("nic_ring_drops", 0)


# ---------------------------------------------------------------- plan basics
class TestFaultPlan:
    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.active
        assert plan.describe() == "no faults (inert)"

    def test_property_flags(self):
        assert FaultPlan(loss_rate=0.1).wire_active
        assert FaultPlan(bandwidth_gbps=10.0).bandwidth_clamped
        assert FaultPlan(nic_ring_size=64).nic_active
        assert FaultPlan(irq_delay_ns=1000.0).nic_active
        assert FaultPlan(
            stall_cores=(1,), stall_period_ns=100.0, stall_duration_ns=50.0
        ).cpu_active
        assert FaultPlan(blackout_branch=0, blackout_duration_ns=1e6).blackout_active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_rate": 1.5},
            {"dup_rate": -0.1},
            {"jitter_ns": -1.0},
            {"nic_ring_size": -4},
            {"watchdog_period_ns": 0.0},
            {"stall_cores": (1,), "stall_period_ns": 100.0, "stall_duration_ns": 200.0},
            {"start_ns": 10.0, "stop_ns": 5.0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs).validate()

    def test_dict_roundtrip(self):
        plan = PLANS["chaos"]
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict({"loss_rate": 0.1, "gremlins": True})

    def test_registry_plans_are_valid(self):
        for name, plan in PLANS.items():
            assert plan.name == name
            plan.validate()

    def test_resolve_variants(self):
        """A fault plan resolves in RunOptions: an inert plan is no plan,
        and a spec dict is rebuilt and validated."""
        assert RunOptions().faults is None
        assert RunOptions(faults=FaultPlan()).faults is None
        assert RunOptions(faults=PLANS["clean"]).faults is None
        assert RunOptions(faults=PLANS["loss1"]).faults is PLANS["loss1"]
        assert RunOptions.from_params({"faults": {"loss_rate": 0.5}}).faults.loss_rate == 0.5
        assert RunOptions.from_params({"faults": None}).faults is None
        with pytest.raises(ValueError, match="loss_rate"):
            RunOptions(faults=FaultPlan(loss_rate=1.5))
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            RunOptions.from_params({"faults": {"gremlins": True}})
        with pytest.raises(TypeError, match="to_dict"):
            RunOptions.from_params({"faults": "loss1"})  # a name is the CLI's form


# ------------------------------------------------------- zero-fault identity
class TestZeroFaultIdentity:
    @pytest.mark.parametrize("system,proto", [("vanilla", "tcp"), ("mflow", "udp")])
    def test_inert_plan_is_bit_identical(self, system, proto):
        base = run_single_flow(system, proto, 16384, seed=3, **QUICK)
        inert = run_single_flow(
            system, proto, 16384, seed=3, options=RunOptions(faults=FaultPlan()), **QUICK
        )
        named = run_single_flow(
            system, proto, 16384, seed=3, options=RunOptions(faults=PLANS["clean"]), **QUICK
        )
        assert result_fingerprint(base) == result_fingerprint(inert)
        assert result_fingerprint(base) == result_fingerprint(named)
        assert base.fault_plan == inert.fault_plan == named.fault_plan == ""
        assert not base.fault_counters and not named.fault_counters


# -------------------------------------------------------------- wire faults
class TestWireInjection:
    def test_loss_drops_frames(self):
        res = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["loss5"]), **QUICK
        )
        assert res.fault_counters["fault_lost_frames"] > 0
        clean = run_single_flow("vanilla", "udp", 16384, seed=0, **QUICK)
        # lost frames still occupy the link (the sender transmitted them),
        # so the NIC sees a correspondingly smaller arrival stream
        lost = res.fault_counters["fault_lost_frames"]
        assert nic_arrivals(res) <= nic_arrivals(clean) - lost * 0.9
        assert res.conservation_violations == 0

    def test_dup_delivers_extra_frames(self):
        res = run_single_flow(
            "vanilla", "udp", 16384, seed=0,
            options=RunOptions(faults=FaultPlan(name="d", dup_rate=0.05)), **QUICK,
        )
        dups = res.fault_counters["fault_dup_frames"]
        assert dups > 0
        clean = run_single_flow("vanilla", "udp", 16384, seed=0, **QUICK)
        # duplicates ride the original's serialization slot, so the NIC
        # sees a correspondingly larger arrival stream
        assert nic_arrivals(res) >= nic_arrivals(clean) + dups * 0.9
        assert res.conservation_violations == 0

    def test_corrupt_counted_separately_from_loss(self):
        res = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["corrupt1"]), **QUICK
        )
        assert res.fault_counters["fault_corrupt_frames"] > 0
        assert "fault_lost_frames" not in res.fault_counters

    def test_reorder_marks_frames(self):
        res = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["jitter"]), **QUICK
        )
        assert res.fault_counters["fault_reordered_frames"] > 0

    def test_bandwidth_clamp_caps_throughput(self):
        clean = run_single_flow("vanilla", "udp", 16384, seed=0, **QUICK)
        slow = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["slow-link"]), **QUICK
        )
        assert slow.throughput_gbps < clean.throughput_gbps
        assert slow.throughput_gbps <= PLANS["slow-link"].bandwidth_gbps * 1.05


# ---------------------------------------------------------- NIC + CPU faults
class TestNicAndCpuInjection:
    def test_ring_squeeze_forces_ring_drops(self):
        res = run_single_flow(
            "vanilla", "udp", 16384, seed=0,
            options=RunOptions(faults=FaultPlan(name="rs", nic_ring_size=8)), **QUICK,
        )
        assert res.counters.get("nic_ring_drops", 0) > 0

    def test_irq_delay_counted_and_slows_delivery(self):
        res = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["irq-delay"]), **QUICK
        )
        assert res.fault_counters["fault_delayed_irqs"] > 0

    def test_core_stall_appears_in_breakdown(self):
        res = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["noisy-core"]), **QUICK
        )
        assert res.fault_counters["fault_core_stalls"] > 0
        stalled = [b for b in res.cpu_breakdown if "fault_stall" in b]
        assert stalled, "stall work must be visible in the core breakdown"

    def test_stall_slows_victim_core_work(self):
        clean = run_single_flow("vanilla", "udp", 16384, seed=0, **QUICK)
        noisy = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["noisy-core"]), **QUICK
        )
        assert noisy.throughput_gbps < clean.throughput_gbps


# -------------------------------------------------------------- determinism
class TestDeterminism:
    def test_same_seed_same_plan_identical(self):
        a = run_single_flow(
            "mflow", "udp", 16384, seed=5, options=RunOptions(faults=PLANS["chaos"]), **QUICK
        )
        b = run_single_flow(
            "mflow", "udp", 16384, seed=5, options=RunOptions(faults=PLANS["chaos"]), **QUICK
        )
        assert result_fingerprint(a) == result_fingerprint(b)
        assert a.fault_counters == b.fault_counters

    def test_seed_salt_decorrelates(self):
        base = PLANS["loss5"]
        a = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=base), **QUICK
        )
        salted = FaultPlan.from_dict({**base.to_dict(), "seed_salt": 99})
        b = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=salted), **QUICK
        )
        # same loss probability, different draw stream -> different schedule
        assert a.fault_counters != b.fault_counters or (
            result_fingerprint(a) != result_fingerprint(b)
        )

    def test_engine_jobs_agnostic(self, tmp_path):
        """A faulted spec produces the same record at --jobs 1 and --jobs 2."""
        from repro.runner import RunEngine, RunSpec

        def specs():
            return [
                RunSpec.make(
                    "sockperf",
                    {
                        "system": system,
                        "proto": "udp",
                        "size": 16384,
                        "faults": PLANS["loss1"].to_dict(),
                    },
                    warmup_ns=QUICK["warmup_ns"],
                    measure_ns=QUICK["measure_ns"],
                    tags=("t", system),
                )
                for system in ("vanilla", "mflow")
            ]

        serial = RunEngine(jobs=1, results_dir=str(tmp_path / "a"), use_cache=False)
        parallel = RunEngine(jobs=2, results_dir=str(tmp_path / "b"), use_cache=False)
        rs = serial.run("faults-serial", specs())
        rp = parallel.run("faults-parallel", specs())
        for a, b in zip(rs, rp):
            assert a.spec_key == b.spec_key
            assert a.measurements["counters"] == b.measurements["counters"]
            assert a.measurements["fault_counters"] == b.measurements["fault_counters"]
            assert a.measurements["throughput_gbps"] == b.measurements["throughput_gbps"]


# ----------------------------------------------------- conservation watchdog
class TestConservationWatchdog:
    @pytest.mark.parametrize("plan", ["loss5", "dup1", "corrupt1", "jitter"])
    def test_no_unaccounted_packets_under_wire_faults(self, plan):
        res = run_single_flow(
            "vanilla", "udp", 16384, seed=0, options=RunOptions(faults=PLANS[plan]), **QUICK
        )
        assert res.conservation_checks > 0
        assert res.conservation_violations == 0

    def test_tcp_dup_absorbed_by_receiver(self):
        res = run_single_flow(
            "vanilla", "tcp", 16384, seed=0, options=RunOptions(faults=PLANS["dup1"]), **QUICK
        )
        assert res.fault_counters.get("fault_dup_frames", 0) > 0
        assert res.conservation_violations == 0

    def test_watchdog_flags_a_planted_leak(self):
        """Deleting delivered packets from the ledger must trip the check."""
        sim = Simulator()
        telemetry = Telemetry(sim)
        from repro.faults.watchdog import ConservationWatchdog

        wd = ConservationWatchdog(
            sim, telemetry, "udp", lambda: 50_000, in_flight_slack=0
        )
        telemetry.count("nic_rx_packets", 50_000)  # received but never accounted
        report = wd.check_now()
        assert not report.ok()
        assert wd.violations and wd.violations[0]["unaccounted"] > 0


# ------------------------------------------------------ injector unit pieces
class TestInjectorUnits:
    def _injectors(self, plan):
        sim = Simulator()
        return FaultInjectors(plan, sim, RngStreams(0), Telemetry(sim)), sim

    def test_window_gating(self):
        inj, sim = self._injectors(
            FaultPlan(loss_rate=1.0, start_ns=100.0, stop_ns=200.0)
        )
        assert not inj.in_window(50.0)
        assert inj.in_window(150.0)
        assert not inj.in_window(200.0)

    def test_clone_packet_is_independent(self):
        flow = FlowKey(1, 2, "udp", 10, 20)
        pkt = fragment_message(flow, 7, 1000)[0]
        pkt.send_ts = 123.0
        copy = clone_packet(pkt)
        assert copy is not pkt
        assert (copy.flow, copy.msg_id, copy.payload) == (flow, 7, pkt.payload)
        assert copy.send_ts == 123.0

    def test_total_loss_drops_everything(self):
        inj, _ = self._injectors(FaultPlan(loss_rate=1.0))
        pkt = fragment_message(FlowKey(1, 2, "udp", 10, 20), 0, 1000)[0]
        assert inj.wire_frame_fate(pkt) == []

    def test_link_clamp_only_in_window(self):
        inj, sim = self._injectors(
            FaultPlan(bandwidth_gbps=5.0, start_ns=1_000.0)
        )
        assert inj.link_gbps(100.0) == 100.0  # before the window opens
        sim.call_at(2_000.0, lambda: None)
        sim.run()
        assert inj.link_gbps(100.0) == 5.0


# ----------------------------------------------- degradation and readmission
class TestGracefulDegradation:
    def test_loss_quarantines_instead_of_stalling(self):
        res = run_single_flow(
            "mflow", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["loss1"]), **WIN
        )
        assert res.counters.get("mflow_merge_skips", 0) > 0
        degraded = [
            e for e in res.degradation_events if e["event"] == "mflow_degraded"
        ]
        assert degraded, "sustained loss must quarantine the sick flows"
        assert res.counters["mflow_degraded"] == len(degraded)
        assert res.conservation_violations == 0
        assert res.messages_delivered > 0  # degraded, not stalled

    def test_blackout_recovery_readmits(self):
        plan = FaultPlan(
            name="bb",
            blackout_branch=1,
            blackout_start_ns=1_500_000.0,
            blackout_duration_ns=1_000_000.0,
        )
        res = run_single_flow(
            "mflow", "udp", 16384, seed=0, options=RunOptions(faults=plan),
            warmup_ns=1.0 * MSEC, measure_ns=9.0 * MSEC,
        )
        assert res.fault_counters["fault_branch_blackout"] > 0
        kinds = [e["event"] for e in res.degradation_events]
        assert "mflow_degraded" in kinds
        assert "mflow_readmitted" in kinds
        assert res.counters["mflow_readmitted"] >= 1
        assert res.conservation_violations == 0

    def test_monitor_quarantines_via_policy(self):
        """Unit-level: a skip storm on one flow degrades only that flow."""
        sick_flow = FlowKey(1, 2, "udp", 10, 20)

        class FakeState:
            skips = 5
            parked = 0

        class FakePolicy:
            stall_skbs = 2048

            def __init__(self):
                self.merge_stage = self
                self.quarantined = set()

            def iter_flows(self):
                return [(sick_flow, FakeState())]

            def branch_cores_for(self, flow):
                return []

            def quarantine_flow(self, flow):
                self.quarantined.add(flow)
                return True

            def readmit_flow(self, flow):
                self.quarantined.discard(flow)
                return True

            def is_quarantined(self, flow):
                return flow in self.quarantined

        sim = Simulator()
        policy = FakePolicy()
        mon = FlowHealthMonitor(policy, sim, Telemetry(sim), skip_storm_threshold=3)
        mon.check_once()
        assert sick_flow in policy.quarantined
        assert mon.events[0]["reason"] == "merge_skip_storm"
        # stays quarantined while sick, readmits after the clean streak
        for _ in range(mon.readmit_clean_checks):
            mon.check_once()  # skips frozen at 5: no new skips since transition
        assert sick_flow not in policy.quarantined
        assert mon.events[-1]["event"] == "mflow_readmitted"


# ----------------------------------------------------------- flow retirement
class TestFlowRetirement:
    def test_pool_allocator_release(self):
        alloc = PoolAllocator([1, 2])
        core = alloc.take(1.0)
        assert alloc.load[core] == 1.0
        alloc.release(core, 1.0)
        assert alloc.load[core] == 0.0
        alloc.release(core, 5.0)  # over-release clamps at zero
        assert alloc.load[core] == 0.0
        with pytest.raises(KeyError):
            alloc.release(99, 1.0)

    def test_mflow_retire_releases_claims(self):
        from repro.core.config import MflowConfig
        from repro.core.mflow import MflowPolicy
        from repro.cpu.topology import CpuSet

        sim = Simulator()
        cpus = CpuSet(sim, 8)
        config = MflowConfig.device_scaling(split_cores=[2, 3], batch_size=64)
        policy = MflowPolicy(cpus, config, app_core=0, core_pool=[2, 3, 4, 5])
        flow = FlowKey(1, 2, "udp", 10, 20)
        policy._plan_for_flow(flow)
        assert sum(policy._allocator.load.values()) > 0.0
        assert policy.retire_flow(flow) is True
        assert sum(policy._allocator.load.values()) == 0.0
        assert flow not in policy._flow_plans
        # retiring an unknown flow is a harmless no-op
        assert policy.retire_flow(flow) is False

    def test_retire_clears_split_and_merge_state(self):
        from repro.core.reassembly import ReassemblyStage
        from repro.core.splitting import MicroflowSplitStage

        split = MicroflowSplitStage(2, 2)
        merge = ReassemblyStage(2, splitter=split)
        flow = FlowKey(1, 2, "udp", 10, 20)
        merge._state(flow, now=10.0)
        assert dict(merge.iter_flows())
        merge.retire_flow(flow)
        split.retire_flow(flow)
        assert not dict(merge.iter_flows())


# ------------------------------------------------------- chaos acceptance
@pytest.mark.chaos
class TestChaosAcceptance:
    def test_mflow_survives_one_percent_loss(self):
        """The ISSUE acceptance bar: ≥1% loss, MFLOW completes with zero
        unaccounted packets and degraded flows keep delivering."""
        res = run_single_flow(
            "mflow", "udp", 16384, seed=0, options=RunOptions(faults=PLANS["loss1"]), **WIN
        )
        assert res.fault_counters["fault_lost_frames"] > 0
        assert res.conservation_checks >= 2
        assert res.conservation_violations == 0
        assert res.messages_delivered > 0
        assert any(
            e["event"] == "mflow_degraded" for e in res.degradation_events
        )

    def test_chaos_matrix_quick_smoke(self):
        from repro.experiments import chaos_matrix

        result = chaos_matrix.run(quick=True, systems=["vanilla", "mflow"])
        text = result.table()
        assert "vanilla" in text and "mflow" in text
        for fault in ("clean", "loss", "jitter", "stall"):
            assert fault in result.raw
            for system, res in result.raw[fault].items():
                assert res.conservation_violations == 0, (fault, system)
        # the clean column carries no fault ledger at all
        for res in result.raw["clean"].values():
            assert res.fault_plan == "" and not res.fault_counters
