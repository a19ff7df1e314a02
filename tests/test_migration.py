"""Live container migration: plans, hash ring, balancer, cutover, records.

The hard guarantees under test:

* **inert bit-identity** — attaching an inert :class:`MigrationPlan` (or
  ``None``) leaves the scenario's object graph and every record byte
  untouched: no balancer stage, no namespaces, no scheduled events;
* **ride-through** — every overlay steering system survives the
  ``default`` mid-run cutover with zero connection drops, and the
  ``drop-blackout`` plan recovers purely on TCP retransmission;
* **determinism** — the hash ring is a pure function of its membership,
  and a repoint moves exactly the migrated backend's flows.
"""

import json

import pytest

from helpers import Harness, TEST_FLOW, make_skb
from repro.faults.plan import PLANS as FAULT_PLANS
from repro.migration import PLANS, MigrationPlan
from repro.netstack.packet import FlowKey
from repro.netstack.stages import CountingSink
from repro.overlay.balancer import ConsistentHashBalancerStage, HashRing
from repro.runner import scenario_result_from_dict, scenario_result_to_dict
from repro.sim.engine import SimulationError
from repro.sim.units import MSEC
from repro.steering.base import stable_flow_hash
from repro.workloads.options import RunOptions
from repro.workloads.sockperf import build_scenario, run_single_flow

#: the default plan fires at 2.5 ms, inside this measure window
WIN = {"warmup_ns": 1.0 * MSEC, "measure_ns": 3.0 * MSEC}
CUTOVER = RunOptions(migration=PLANS["default"])

OVERLAY_SYSTEMS = ["vanilla", "rss", "rps", "falcon", "mflow"]


def fingerprint(res) -> str:
    return json.dumps(scenario_result_to_dict(res), sort_keys=True)


# ---------------------------------------------------------------- plan basics
class TestMigrationPlan:
    def test_default_plan_is_inert(self):
        plan = MigrationPlan()
        assert not plan.active
        assert plan.describe() == "no migration (inert)"

    def test_resolve_variants(self):
        """A migration plan resolves in RunOptions: an inert plan is no
        plan, and a spec dict is rebuilt and validated."""
        assert RunOptions().migration is None
        assert RunOptions(migration=MigrationPlan()).migration is None
        assert RunOptions(migration=PLANS["default"]).migration is PLANS["default"]
        via_dict = RunOptions.from_params({"migration": PLANS["default"].to_dict()})
        assert via_dict.migration == PLANS["default"]
        with pytest.raises(ValueError, match="vnodes"):
            RunOptions(migration=MigrationPlan(start_ns=1.0, vnodes=0))
        with pytest.raises(ValueError, match="unknown MigrationPlan fields"):
            RunOptions.from_params({"migration": {"bogus": 1}})

    def test_registry_plans_are_valid_and_active(self):
        for name, plan in PLANS.items():
            plan.validate()
            assert plan.active, f"registry plan {name} must schedule a cutover"
            assert plan.name == name

    def test_dict_roundtrip(self):
        plan = PLANS["fast-cutover"]
        assert MigrationPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            MigrationPlan.from_dict({"start_ns": 1.0, "warp_factor": 9})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_ns": -1.0},
            {"transfer_gbps": 0.0},
            {"probe_interval_ns": 0.0},
            {"buffer_packets": -1},
            {"vnodes": 0},
            {"source": "same", "dest": "same"},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            MigrationPlan(**kwargs).validate()


# ------------------------------------------------------------------ hash ring
class TestHashRing:
    def test_membership_is_the_whole_state(self):
        """Two rings with the same membership agree on every lookup,
        regardless of the order the membership was reached in."""
        a, b = HashRing(vnodes=16), HashRing(vnodes=16)
        for backend in ["c1", "c2", "c3"]:
            a.add(backend)
        for backend in ["c3", "c1", "c2"]:
            b.add(backend)
        a.remove("c2")
        b.remove("c2")
        for key in range(0, 2**64, 2**58):
            assert a.node_for(key) == b.node_for(key)

    def test_consistent_hashing_minimal_disruption(self):
        ring = HashRing(vnodes=32)
        for backend in ["c1", "c2", "c3"]:
            ring.add(backend)
        keys = [stable_flow_hash(FlowKey(1, 2, "tcp", 1000 + i, 80)) for i in range(200)]
        before = {k: ring.node_for(k) for k in keys}
        ring.remove("c2")
        moved = [k for k in keys if before[k] != ring.node_for(k)]
        # only keys that lived on the removed backend may move
        assert all(before[k] == "c2" for k in moved)

    def test_empty_ring_raises(self):
        with pytest.raises(KeyError):
            HashRing().node_for(0)

    def test_duplicate_and_missing_backends(self):
        ring = HashRing()
        ring.add("c1")
        with pytest.raises(ValueError):
            ring.add("c1")
        with pytest.raises(KeyError):
            ring.remove("c2")

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


# ------------------------------------------------------------- balancer stage
class TestBalancerStage:
    def _harness(self, buffer_packets=4096):
        ring = HashRing(vnodes=8)
        ring.add("c-src")
        lb = ConsistentHashBalancerStage(ring, buffer_packets=buffer_packets)
        sink = CountingSink()
        h = Harness([lb, sink], mapping={"lb": 1})
        return h, lb, sink

    def test_forwards_and_pins_sticky(self):
        h, lb, sink = self._harness()
        h.inject(make_skb(msg_id=0))
        h.run()
        assert len(sink.received) == 1
        assert lb.packets_forwarded == 1
        assert lb.backend_for(TEST_FLOW) == "c-src"

    def test_drain_buffers_in_fifo_order(self):
        h, lb, sink = self._harness()
        lb.begin_drain("c-src")
        for i in range(3):
            h.inject(make_skb(msg_id=i, start_seq=i * 2000))
        h.run()
        assert not sink.received
        assert lb.packets_buffered == 3
        assert lb.buffered_count() == 3
        released = lb.release("c-src")
        assert [s.head.msg_id for s in released] == [0, 1, 2]
        assert lb.buffered_count() == 0

    def test_full_buffer_drops_and_recycles(self):
        h, lb, sink = self._harness(buffer_packets=2)
        lb.begin_drain("c-src")
        for i in range(5):
            h.inject(make_skb(msg_id=i, start_seq=i * 2000))
        h.run()
        assert lb.packets_buffered == 2
        assert lb.packets_dropped == 3
        assert h.telemetry.get("lb_blackout_dropped") > 0

    def test_zero_buffer_drops_everything(self):
        h, lb, sink = self._harness(buffer_packets=0)
        lb.begin_drain("c-src")
        h.inject(make_skb())
        h.run()
        assert lb.packets_dropped == 1
        assert lb.packets_buffered == 0

    def test_repoint_moves_only_source_flows(self):
        h, lb, sink = self._harness()
        lb.ring.add("c-other")
        flows = [FlowKey(1, 2, "tcp", 1000 + i, 80) for i in range(50)]
        for f in flows:
            lb.backend_for(f)
        pinned_src = [f for f in flows if lb.backend_for(f) == "c-src"]
        pinned_other = {f: lb.backend_for(f) for f in flows if lb.backend_for(f) != "c-src"}
        moved = lb.repoint("c-src", "c-dst")
        assert moved == len(pinned_src)
        for f in pinned_src:
            assert lb.backend_for(f) != "c-src"
        for f, backend in pinned_other.items():
            assert lb.backend_for(f) == backend

    def test_mark_restore_counts_per_flow(self):
        h, lb, sink = self._harness()
        h.inject(make_skb(msg_id=0))
        h.run()
        assert lb.post_restore_forwarded == {}
        lb.mark_restore()
        h.inject(make_skb(msg_id=1, start_seq=2000))
        h.run()
        assert lb.post_restore_forwarded == {TEST_FLOW: 1}


# ------------------------------------------------------------- inert identity
class TestInertIdentity:
    @pytest.mark.parametrize("system,proto", [("mflow", "tcp"), ("vanilla", "udp")])
    def test_inert_plan_is_bit_identical(self, system, proto):
        baseline = run_single_flow(system, proto, 65536, **WIN)
        inert = run_single_flow(
            system, proto, 65536, options=RunOptions(migration=MigrationPlan()), **WIN
        )
        none = run_single_flow(system, proto, 65536, options=RunOptions(migration=None), **WIN)
        assert fingerprint(baseline) == fingerprint(inert) == fingerprint(none)

    def test_inert_scenario_builds_no_migration_graph(self):
        sc = build_scenario("vanilla", "tcp", 65536, options=RunOptions(migration=MigrationPlan()))
        assert sc.options.migration is None
        assert sc.network is None
        assert sc.balancer is None
        assert sc.migration is None
        with pytest.raises(KeyError):
            sc.pipeline.find_node("lb")

    def test_native_rejects_migration(self):
        with pytest.raises(ValueError, match="overlay"):
            build_scenario("native", "tcp", 65536, options=CUTOVER)


# -------------------------------------------------------------- ride-through
@pytest.mark.chaos
class TestCutoverRideThrough:
    @pytest.mark.parametrize("system", OVERLAY_SYSTEMS)
    def test_default_plan_zero_connection_drops(self, system):
        res = run_single_flow(system, "tcp", 65536, options=CUTOVER, **WIN)
        mig = res.migration
        assert mig is not None
        assert mig["phase"] == "restored"
        assert mig["connection_drops"] == 0
        assert mig["unrecovered_flows"] == []
        assert mig["packets_dropped"] == 0
        assert mig["packets_replayed"] == mig["packets_buffered"]
        assert mig["flows_repointed"] == 1
        assert len(mig["snapshot_digest"]) == 64
        assert mig["snapshot_bytes"] > 0
        assert mig["source_state"] == "retired"
        assert mig["dest_state"] == "running"
        assert mig["recovery_ns"], "every flow must report a recovery time"
        assert res.conservation_violations == 0
        assert res.messages_delivered > 0

    def test_udp_clients_ride_through(self):
        res = run_single_flow("mflow", "udp", 65536, options=CUTOVER, **WIN)
        mig = res.migration
        assert mig["connection_drops"] == 0
        # three UDP clients, all re-pointed and all recovered
        assert mig["flows_repointed"] == 3
        assert len(mig["recovery_ns"]) == 3
        assert res.conservation_violations == 0

    def test_timeline_ordering(self):
        res = run_single_flow("vanilla", "tcp", 65536, options=CUTOVER, **WIN)
        mig = res.migration
        plan = PLANS["default"]
        assert mig["drain_start_ns"] == plan.start_ns
        assert mig["freeze_ns"] == plan.start_ns + plan.drain_ns
        assert mig["restore_ns"] == pytest.approx(
            mig["freeze_ns"] + mig["blackout_ns"]
        )
        assert mig["blackout_ns"] >= plan.min_downtime_ns

    def test_drop_blackout_recovers_via_retransmit(self):
        res = run_single_flow(
            "vanilla", "tcp", 65536, options=RunOptions(migration=PLANS["drop-blackout"]), **WIN
        )
        mig = res.migration
        assert mig["packets_buffered"] == 0
        assert mig["packets_replayed"] == 0
        assert mig["packets_dropped"] > 0
        assert mig["tcp_retransmit_segments"] > 0
        assert mig["connection_drops"] == 0
        assert res.conservation_violations == 0

    def test_ride_through_under_wire_loss(self):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(name="loss", loss_rate=0.01)
        res = run_single_flow(
            "mflow", "tcp", 65536,
            options=RunOptions(faults=plan, migration=PLANS["default"]), **WIN
        )
        assert res.migration["connection_drops"] == 0
        assert res.conservation_violations == 0

    def test_pre_frozen_source_fails_loudly(self):
        """A cutover against an already-frozen source is a scripting bug
        and must raise, not silently double-freeze."""
        sc = build_scenario("vanilla", "tcp", 65536, options=CUTOVER)
        sc.network.lookup("c-src").freeze()
        with pytest.raises(SimulationError, match="cannot freeze"):
            sc.run(**WIN)

    def test_determinism_same_seed_same_cutover(self):
        a = run_single_flow("mflow", "tcp", 65536, options=CUTOVER, **WIN)
        b = run_single_flow("mflow", "tcp", 65536, options=CUTOVER, **WIN)
        assert fingerprint(a) == fingerprint(b)


# ------------------------------------------------------------------- records
class TestRecords:
    def test_migration_payload_roundtrips(self):
        res = run_single_flow("vanilla", "tcp", 65536, options=CUTOVER, **WIN)
        data = scenario_result_to_dict(res)
        assert "migration" in data
        clone = scenario_result_from_dict(data)
        assert clone.migration == res.migration

    def test_no_migration_key_when_absent(self):
        res = run_single_flow("vanilla", "tcp", 65536, **WIN)
        data = scenario_result_to_dict(res)
        assert "migration" not in data
        assert "health_counts" not in data
        assert scenario_result_from_dict(data).migration is None

    def test_health_counts_in_records(self):
        """Satellite: the health monitor's per-flow quarantine/readmission
        tallies surface in run records."""
        res = run_single_flow(
            "mflow", "udp", 16384, options=RunOptions(faults=FAULT_PLANS["loss1"]), **WIN
        )
        assert res.health_counts, "sustained loss must quarantine flows"
        for label, counts in res.health_counts.items():
            assert set(counts) == {"quarantined", "readmitted"}
            assert counts["quarantined"] >= 1
        data = scenario_result_to_dict(res)
        assert data["health_counts"] == res.health_counts
        assert scenario_result_from_dict(data).health_counts == res.health_counts

    def test_migration_summary_is_json_safe(self):
        res = run_single_flow("mflow", "tcp", 65536, options=CUTOVER, **WIN)
        json.dumps(res.migration)  # raises on any non-JSON type


# ------------------------------------------------------------------ teardown
class TestFlowTeardown:
    def test_retire_flow_releases_everything(self):
        sc = build_scenario("mflow", "tcp", 65536)
        sc.run(**WIN)
        flows = list(sc._senders)
        for flow in flows:
            sc.retire_flow(flow)
        assert not sc._senders
        assert list(sc.tcp_receiver.iter_flows()) == []
        merge = getattr(sc.policy, "merge_stage", None)
        if merge is not None:
            assert list(merge.iter_flows()) == []

    @pytest.mark.parametrize("proto", ["tcp", "udp"])
    def test_retired_sender_stops(self, monkeypatch, proto):
        """After retirement the flow's sender starts no new message, and
        every frame it had already put on the wire still lands."""
        from collections import Counter

        from repro.netstack.nic import Wire, _RxQueue
        from repro.workloads.multiflow import build_multiflow_scenario

        retire_at = 150_000.0
        if proto == "tcp":
            sc = build_multiflow_scenario("vanilla", 4, 65536, seed=3)
        else:
            sc = build_scenario("vanilla", "udp", 65536, seed=3)
        victim = next(iter(sc._senders))
        sender = sc._senders[victim]
        syscalls, sent_after, landed, sent = [], [], Counter(), Counter()
        submit = sender.app_core.submit_call

        def app_submit(tag, *args, **kw):
            syscalls.append(sc.sim.now)
            submit(tag, *args, **kw)

        wire_send, receive = Wire.send, _RxQueue.receive

        def counted_send(wire, pkt):
            sent[pkt.flow] += 1
            if pkt.flow == victim and sc.sim.now >= retire_at:
                sent_after.append(pkt)
            wire_send(wire, pkt)

        def counted_receive(queue, pkt):
            landed[pkt.flow] += 1
            receive(queue, pkt)

        monkeypatch.setattr(sender.app_core, "submit_call", app_submit)
        monkeypatch.setattr(Wire, "send", counted_send)
        monkeypatch.setattr(_RxQueue, "receive", counted_receive)
        sc.sim.call_at(retire_at, sc.retire_flow, victim)
        sc.run(warmup_ns=100_000.0, measure_ns=300_000.0)
        assert syscalls and max(syscalls) < retire_at
        if proto == "tcp":
            assert sent_after, "no paced frame was still due at retirement"
        assert landed[victim] == sent[victim] > 0

    def test_retire_flow_is_idempotent_per_flow(self):
        sc = build_scenario("vanilla", "udp", 16384)
        sc.run(**WIN)
        for flow in list(sc._senders):
            sc.retire_flow(flow)
            sc.retire_flow(flow)  # second retire finds nothing, breaks nothing
        assert not sc._senders


# -------------------------------------------------------------- experiment
class TestMigrationMatrix:
    def test_specs_shape(self):
        from repro.experiments import migration_matrix

        specs = migration_matrix.specs(quick=True)
        assert len(specs) == len(migration_matrix.FAULTS) * len(migration_matrix.SYSTEMS)
        for spec in specs:
            # params are stored canonically as sorted (key, value) tuples
            mig = dict(dict(spec.params)["migration"])
            assert mig["name"] == "default"
            assert spec.tags[0] == "migration"

    def test_single_cell_reduction(self):
        from repro.experiments import migration_matrix
        from repro.faults.plan import FaultPlan

        specs = migration_matrix.specs(
            quick=True, systems=["vanilla"],
            faults={"clean": FaultPlan(name="clean")},
        )
        records = migration_matrix.execute("migration-test", specs)
        result = migration_matrix.reduce(records)
        assert result.connection_drops("clean", "vanilla") == 0
        assert result.total_connection_drops() == 0
        table = result.table()
        assert "conn_drops" in table and "vanilla" in table


# ------------------------------------------------------------------------ CLI
class TestMigrateCli:
    def test_list_plans(self, capsys):
        from repro.cli import main

        assert main(["migrate", "--list"]) == 0
        out = capsys.readouterr().out
        for name in PLANS:
            assert name in out

    def test_migrate_run(self, capsys):
        from repro.cli import main

        rc = main([
            "migrate", "--system", "vanilla", "--plan", "default",
            "--warmup-ms", "1", "--measure-ms", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ride-through OK" in out
        assert "blackout" in out

    def test_throughput_accepts_migration_plan(self, capsys):
        from repro.cli import main

        rc = main([
            "throughput", "--system", "vanilla", "--migration-plan", "default",
            "--warmup-ms", "1", "--measure-ms", "3",
        ])
        assert rc == 0
        assert "migration plan: default" in capsys.readouterr().out
