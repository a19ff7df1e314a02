"""Runtime fault injectors: a compiled :class:`FaultPlan`.

One :class:`FaultInjectors` instance per scenario owns all fault state:
a dedicated RNG substream (``"faults/<salt>"`` — independent of every
other stream, so enabling faults never perturbs workload randomness),
the plan's time window, and the per-layer hook entry points:

* :meth:`wire_frame_fate` — called by :class:`~repro.netstack.nic.Wire`
  for each frame; decides corrupt/loss/dup/reorder/jitter in one fixed
  draw order so schedules replay bit-identically for a given seed+plan;
* :meth:`apply_to_nic` — ring shrink and softirq-starvation knobs,
  applied once at scenario build time;
* :meth:`irq_fire_delay` — extra latency before the IRQ top half runs;
* :meth:`schedule_core_stalls` — periodic "noisy neighbour" busy windows
  submitted as tagged work (shows up as ``fault_stall`` in breakdowns);
* :meth:`blackout_drop` — post-split branch blackout, suppressed for
  quarantined flows (their traffic no longer crosses the dead branch).

Every injected event increments a ``fault_*`` telemetry counter so the
runner's JSON artifacts carry the full fault ledger.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.netstack.packet import FlowKey, Packet
from repro.faults.plan import FaultPlan


def clone_packet(pkt: Packet) -> Packet:
    """An independent copy of a wire frame (for duplication injection).

    Arrival metadata (``arrival_ts``/``wire_seq``) is stamped per copy by
    the NIC, so only the sender-side fields are carried over.
    """
    copy = Packet(
        pkt.flow,
        pkt.payload,
        seq=pkt.seq,
        msg_id=pkt.msg_id,
        frag_index=pkt.frag_index,
        frag_count=pkt.frag_count,
        encap=pkt.encap,
        messages_completed=pkt.messages_completed,
    )
    copy.send_ts = pkt.send_ts
    return copy


class FaultInjectors:
    """Compiled fault plan bound to one scenario's sim / RNG / telemetry."""

    def __init__(self, plan: FaultPlan, sim, rngs, telemetry):
        plan.validate()
        self.plan = plan
        self.sim = sim
        self.telemetry = telemetry
        #: dedicated substream: fault draws never touch workload streams
        self._rng = rngs.stream(f"faults/{plan.seed_salt}")
        self.active = plan.active
        self.wire_active = plan.wire_active
        self._quarantine_check: Optional[Callable[[FlowKey], bool]] = None
        #: stall ticks stop re-arming past this horizon (set by the scenario)
        self.stall_horizon_ns: float = float("inf")
        #: optional FlightRecorder — None (the default) disables all probes
        self.obs = None

    # -------------------------------------------------------------- windowing
    def in_window(self, now: Optional[float] = None) -> bool:
        t = self.sim.now if now is None else now
        if t < self.plan.start_ns:
            return False
        return self.plan.stop_ns <= 0.0 or t < self.plan.stop_ns

    # ------------------------------------------------------------------- wire
    def wire_frame_fate(self, pkt: Packet) -> List[Tuple[Packet, float]]:
        """Decide one frame's fate: ``[(frame, extra_delay_ns), ...]``.

        Empty list = dropped.  Draw order is fixed (corrupt, loss, dup,
        then per-delivery jitter/reorder) and draws happen only for
        enabled faults, so a plan consumes a deterministic number of
        variates per frame.
        """
        p = self.plan
        rng = self._rng
        if p.corrupt_rate > 0.0 and rng.random() < p.corrupt_rate:
            self.telemetry.count("fault_corrupt_frames")
            self._probe("fault_corrupt")
            return []
        if p.loss_rate > 0.0 and rng.random() < p.loss_rate:
            self.telemetry.count("fault_lost_frames")
            self._probe("fault_loss")
            return []
        deliveries = [pkt]
        if p.dup_rate > 0.0 and rng.random() < p.dup_rate:
            self.telemetry.count("fault_dup_frames")
            self._probe("fault_dup")
            deliveries.append(clone_packet(pkt))
        out: List[Tuple[Packet, float]] = []
        for frame in deliveries:
            extra = 0.0
            if p.jitter_ns > 0.0:
                extra += float(rng.random()) * p.jitter_ns
            if p.reorder_rate > 0.0 and rng.random() < p.reorder_rate:
                extra += p.reorder_delay_ns
                self.telemetry.count("fault_reordered_frames")
                self._probe("fault_reorder", delay_ns=p.reorder_delay_ns)
            out.append((frame, extra))
        return out

    def _probe(self, name: str, core: int = -1, **fields) -> None:
        if self.obs is not None:
            self.obs.instant(name, core=core, **fields)

    def link_gbps(self, configured_gbps: float) -> float:
        """The effective line rate under the plan's bandwidth clamp."""
        p = self.plan
        if p.bandwidth_gbps > 0.0 and self.in_window():
            return min(configured_gbps, p.bandwidth_gbps)
        return configured_gbps

    # -------------------------------------------------------------------- NIC
    def apply_to_nic(self, nic) -> None:
        """Build-time NIC degradation: ring shrink + softirq entry cost."""
        p = self.plan
        for queue in nic._queues:
            if p.nic_ring_size > 0:
                queue.ring.size = min(queue.ring.size, p.nic_ring_size)
            if p.softirq_entry_extra_ns > 0.0:
                queue.napi.entry_cost_ns += p.softirq_entry_extra_ns

    def irq_fire_delay(self) -> float:
        """Extra ns between frame arrival and the IRQ top half (0 = none)."""
        if self.plan.irq_delay_ns > 0.0 and self.in_window():
            self.telemetry.count("fault_delayed_irqs")
            self._probe("fault_irq_delay", delay_ns=self.plan.irq_delay_ns)
            return self.plan.irq_delay_ns
        return 0.0

    # -------------------------------------------------------------------- CPU
    def schedule_core_stalls(self, cpus) -> None:
        """Arm the periodic noisy-neighbour stall on each targeted core."""
        p = self.plan
        if not (p.stall_cores and p.stall_period_ns > 0.0 and p.stall_duration_ns > 0.0):
            return
        for idx in p.stall_cores:
            if 0 <= idx < len(cpus):
                self.sim.call_at(max(p.start_ns, 0.0), self._stall_tick, cpus[idx])

    def _stall_tick(self, core) -> None:
        p = self.plan
        if self.sim.now >= self.stall_horizon_ns:
            return
        if p.stop_ns > 0.0 and self.sim.now >= p.stop_ns:
            return
        if self.in_window():
            self.telemetry.count("fault_core_stalls")
            self._probe("fault_core_stall", core=core.id,
                        duration_ns=p.stall_duration_ns)
            core.submit_call("fault_stall", p.stall_duration_ns, _noop)
        self.sim.call_in(p.stall_period_ns, self._stall_tick, core)

    # --------------------------------------------------------- branch blackout
    def set_quarantine_check(self, check: Callable[[FlowKey], bool]) -> None:
        """Blackout drops are suppressed for flows ``check`` deems
        quarantined: their traffic was re-steered off the dead branch."""
        self._quarantine_check = check

    def blackout_live(self) -> bool:
        p = self.plan
        if not p.blackout_active:
            return False
        now = self.sim.now
        return p.blackout_start_ns <= now < p.blackout_start_ns + p.blackout_duration_ns

    def blackout_drop(self, skb) -> bool:
        """True when ``skb`` vanishes into the blacked-out branch."""
        if skb.branch != self.plan.blackout_branch or not self.blackout_live():
            return False
        if self._quarantine_check is not None and self._quarantine_check(skb.flow):
            return False
        self.telemetry.count("fault_branch_blackout", skb.segs)
        self._probe("fault_blackout_drop", branch=skb.branch, segs=skb.segs)
        return True

    # ---------------------------------------------------------------- summary
    def summary(self) -> dict:
        """The run's fault ledger: every ``fault_*`` telemetry counter."""
        return {
            k: v for k, v in self.telemetry.counters.items() if k.startswith("fault_")
        }


def _noop() -> None:
    return None
