"""The live-migration cutover, executed as simulator events.

A :class:`MigrationController` runs one :class:`~repro.migration.plan
.MigrationPlan` against a scenario, in four phases:

1. **drain** (``start_ns``): the ingress balancer stops admitting
   packets toward the source container and buffers them instead, so
   packets already inside the host's stack clear it before the dump.
2. **freeze** (``start_ns + drain_ns``): the source namespace freezes
   (double-freeze raises), any skbs still parked in host-side GRO for
   the container's flows are flushed downstream into the blackout
   buffer, and the container's stack state — TCP sockets with their
   OOO queues, partial UDP reassembly, MFLOW merge state with parked
   skbs — is snapshotted with :func:`repro.resilience.freeze_blob`
   (the PR-5 checkpoint pickler).  The blob's size drives the transfer
   model: ``blackout = min_downtime_ns + bytes*8/transfer_gbps``.
3. **restore**: the blob's digest is verified with
   :func:`repro.resilience.thaw_blob`, the destination namespace comes
   alive, the source retires, the hash ring re-points exactly the
   flows that lived on the source, and the blackout buffer replays
   into the datapath in arrival order.
4. **probe**: after the restore, per-flow recovery is polled every
   ``probe_interval_ns`` — a TCP flow has recovered when ``rcv_nxt``
   advances past its freeze-time value (end-to-end delivery progress),
   a UDP flow when the balancer forwards post-restore traffic for it.

Modelling note — zero-copy restore: the simulation keeps one detailed
receiver host (the paper's testbed shape), so the source and the
destination container share the simulated datapath and the state
"transfer" is physically a no-op.  The blob is still built from the
live state and digest-verified at restore, so the snapshot cost model
and the checkpoint machinery are exercised for real; packets that were
already past the balancer when the freeze hit keep flowing during the
blackout, exactly like bytes that had already crossed into the host
kernel before a real CRIU dump.  The per-stage ``detach_flow`` /
``attach_flow`` surgical APIs exist for teardown paths and tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.faults.health import flow_label
from repro.migration.plan import MigrationPlan
from repro.netstack.packet import FlowKey
from repro.resilience.checkpoint import freeze_blob, thaw_blob


class MigrationController:
    """Executes one scripted container cutover against a scenario."""

    def __init__(self, scenario, plan: MigrationPlan):
        self.scenario = scenario
        self.plan = plan
        self.sim = scenario.sim
        self.telemetry = scenario.telemetry
        self.balancer = scenario.balancer
        self.source_ns = scenario.network.lookup(plan.source)
        self.dest_ns = scenario.network.lookup(plan.dest)
        #: cutover state machine: idle -> draining -> blackout -> restored
        self.phase = "idle"
        self.drain_start_ns: Optional[float] = None
        self.freeze_ns: Optional[float] = None
        self.restore_ns: Optional[float] = None
        self.blackout_ns = 0.0
        self.snapshot_bytes = 0
        self.snapshot_digest = ""
        self.buffered_replayed = 0
        self.flows_repointed = 0
        self.gro_flushed_at_freeze = 0
        self._blob: Optional[bytes] = None
        self._rcv_nxt_at_freeze: Dict[FlowKey, int] = {}
        self._merge_skips_at_drain = 0
        #: flow label -> ns from restore to first observed recovery signal
        self.recovery_ns: Dict[str, float] = {}
        self._pending_recovery: Set[FlowKey] = set()

    # ------------------------------------------------------------------ arm
    def arm(self) -> None:
        """Schedule the cutover (call once, before the run starts)."""
        self.sim.call_at(self.plan.start_ns, self._begin_drain)

    def _container_flows(self) -> List[FlowKey]:
        """Every flow served by the migrating container (deterministic
        order: the scenario's senders dict preserves creation order)."""
        return list(self.scenario._senders.keys())

    # ---------------------------------------------------------------- phases
    def _begin_drain(self) -> None:
        self.phase = "draining"
        self.drain_start_ns = self.sim.now
        merge = getattr(self.scenario.policy, "merge_stage", None)
        self._merge_skips_at_drain = merge.merge_skips if merge is not None else 0
        self.balancer.begin_drain(self.plan.source)
        self.telemetry.count("migration_drain_started")
        self.sim.call_in(self.plan.drain_ns, self._freeze)

    def _freeze(self) -> None:
        sc = self.scenario
        self.source_ns.freeze()  # raises SimulationError on double-freeze
        self.phase = "blackout"
        self.freeze_ns = self.sim.now
        flows = self._container_flows()
        # Quiesce host-side GRO for the container's flows: anything still
        # held is pushed downstream now, landing in the balancer's
        # blackout buffer in arrival order.  (The GRO flush timeout is
        # far shorter than any sane drain window, so this is usually a
        # no-op — it exists so pathological plans stay lossless.)
        gro_node = sc.pipeline.find_node("gro")
        for flow in flows:
            for skb in gro_node.stage.flush_flow(flow):
                self.gro_flushed_at_freeze += 1
                sc.pipeline.inject(gro_node.next, skb, None)
        # Snapshot the container's stack state with the checkpoint
        # pickler.  The state objects stay live (see the module
        # docstring); the blob sizes the transfer and pins a digest.
        root: Dict[str, object] = {"container": self.plan.source}
        if sc.tcp_receiver is not None:
            tcp_states = {}
            for flow, st in sc.tcp_receiver.iter_flows():
                tcp_states[flow] = st
                self._rcv_nxt_at_freeze[flow] = st.rcv_nxt
            root["tcp"] = tcp_states
        if sc.udp_deliver is not None:
            root["udp_partial"] = {
                key: entry
                for key, entry in sc.udp_deliver._partial.items()
                if key[0] in flows
            }
        merge = getattr(sc.policy, "merge_stage", None)
        if merge is not None:
            root["merge"] = dict(merge.iter_flows())
        self._blob = freeze_blob(root, meta={"container": self.plan.source})
        self.snapshot_bytes = len(self._blob)
        self.telemetry.count("migration_frozen")
        self.telemetry.count("migration_snapshot_bytes", self.snapshot_bytes)
        self.blackout_ns = (
            self.plan.min_downtime_ns
            + self.snapshot_bytes * 8.0 / self.plan.transfer_gbps
        )
        self.sim.call_in(self.blackout_ns, self._restore)

    def _restore(self) -> None:
        sc = self.scenario
        # Verify the snapshot survived the "transfer" bit for bit before
        # the destination comes alive — a corrupt blob must fail loudly,
        # not restore garbage.
        header, _root = thaw_blob(self._blob)
        self.snapshot_digest = header["payload_sha256"]
        self._blob = None
        self.dest_ns.restore()
        self.source_ns.retire()
        self.restore_ns = self.sim.now
        self.phase = "restored"
        self.flows_repointed = self.balancer.repoint(self.plan.source, self.plan.dest)
        self.balancer.mark_restore()
        # Replay the blackout buffer in arrival order.  The skbs already
        # paid the lb hash cost when they arrived, so they re-enter the
        # datapath at the balancer's successor.
        lb_node = sc.pipeline.find_node(self.balancer.name)
        replayed = self.balancer.release(self.plan.source)
        for skb in replayed:
            self.balancer.packets_forwarded += 1
            self.balancer.post_restore_forwarded[skb.flow] = (
                self.balancer.post_restore_forwarded.get(skb.flow, 0) + 1
            )
            sc.pipeline.inject(lb_node.next, skb, None)
        self.buffered_replayed = len(replayed)
        self.telemetry.count("migration_restored")
        self.telemetry.count("migration_replayed_skbs", len(replayed))
        self._pending_recovery = set(self._container_flows())
        self.sim.call_in(self.plan.probe_interval_ns, self._probe_recovery)

    # -------------------------------------------------------------- recovery
    def _flow_recovered(self, flow: FlowKey) -> bool:
        if flow.proto == "tcp":
            st = dict(self.scenario.tcp_receiver.iter_flows()).get(flow)
            return st is not None and st.rcv_nxt > self._rcv_nxt_at_freeze.get(flow, 0)
        return self.balancer.post_restore_forwarded.get(flow, 0) > 0

    def _probe_recovery(self) -> None:
        now = self.sim.now
        for flow in sorted(self._pending_recovery, key=flow_label):
            if self._flow_recovered(flow):
                self._pending_recovery.discard(flow)
                self.recovery_ns[flow_label(flow)] = now - self.restore_ns
                self.telemetry.count("migration_flows_recovered")
        if self._pending_recovery:
            self.sim.call_in(self.plan.probe_interval_ns, self._probe_recovery)

    # --------------------------------------------------------------- summary
    def connection_drops(self) -> int:
        """Flows that never made delivery progress after the freeze.

        Run-end verdict: a TCP flow whose ``rcv_nxt`` is still at its
        freeze-time value lost its connection across the cutover; a UDP
        flow counts as dropped when the balancer never forwarded a
        single post-restore packet for it.
        """
        if self.freeze_ns is None:
            return 0
        return sum(1 for f in self._container_flows() if not self._flow_recovered(f))

    def summary(self) -> Dict[str, object]:
        """The run record's ``migration`` payload (JSON-safe)."""
        merge = getattr(self.scenario.policy, "merge_stage", None)
        retransmits = sum(
            getattr(s, "retransmit_segments", 0)
            for s in self.scenario._senders.values()
        )
        return {
            "plan": self.plan.to_dict(),
            "phase": self.phase,
            "drain_start_ns": self.drain_start_ns,
            "freeze_ns": self.freeze_ns,
            "restore_ns": self.restore_ns,
            "blackout_ns": self.blackout_ns,
            "snapshot_bytes": self.snapshot_bytes,
            "snapshot_digest": self.snapshot_digest,
            "gro_flushed_at_freeze": self.gro_flushed_at_freeze,
            "packets_buffered": self.balancer.packets_buffered,
            "packets_dropped": self.balancer.packets_dropped,
            "packets_replayed": self.buffered_replayed,
            "flows_repointed": self.flows_repointed,
            "flows_rerouted": self.balancer.flows_rerouted,
            "tcp_retransmit_segments": retransmits,
            "connection_drops": self.connection_drops(),
            "recovery_ns": dict(self.recovery_ns),
            "unrecovered_flows": sorted(
                flow_label(f) for f in self._pending_recovery
            ),
            "merge_skips_after_drain": (
                merge.merge_skips - self._merge_skips_at_drain
                if merge is not None
                else 0
            ),
            "source_state": self.source_ns.state,
            "dest_state": self.dest_ns.state,
        }
