"""Stage base class and the generic kernel stages.

Concrete overlay devices (VxLAN, bridge, veth) are in
:mod:`repro.overlay.devices`; transport endpoints in
:mod:`repro.netstack.protocol`; MFLOW's split/merge nodes in
:mod:`repro.core`.  This module holds the shared machinery plus the
protocol-neutral stages: skb allocation, GRO, and IP receive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.cpu.core import Core
from repro.netstack.costs import CostModel
from repro.netstack.packet import Skb

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netstack.pipeline import Pipeline, StageNode


class StageContext:
    """Execution context handed to ``Stage.process``.

    ``sim``, ``costs`` and ``telemetry`` are copied from the pipeline at
    construction (a pipeline never swaps them), so stages read plain
    slots on the hot path.  ``counters`` is the telemetry's counter dict,
    which per-packet sites bump in place (``counters[name] += n``).
    """

    __slots__ = ("pipeline", "node", "core", "sim", "costs", "telemetry", "counters")

    def __init__(self, pipeline: "Pipeline", node: "StageNode", core: Core):
        self.pipeline = pipeline
        self.node = node
        self.core = core
        self.sim = pipeline.sim
        self.costs: CostModel = pipeline.costs
        self.telemetry = pipeline.telemetry
        self.counters = pipeline.telemetry.counters


class Stage:
    """A named processing stage with a per-skb CPU cost.

    Subclasses override :meth:`process`, which returns the skbs to
    forward to the next node; a stage that absorbs the skb (socket
    delivery) or forwards asynchronously itself (MFLOW merge) returns an
    empty list.

    The cost is data: up to three cost-model field names, ``cost_base``
    (per skb), ``cost_per_seg`` (per wire packet) and ``cost_per_byte``
    (per payload byte), None where the stage has no such term.  Each
    :class:`~repro.netstack.pipeline.StageNode` resolves them to floats
    once, and the pipeline charges ``per_seg * segs + base + bytes *
    per_byte``, evaluating only the terms present, left to right (a
    stage with no term costs 0).  See docs/ENGINE.md, "Stage costs are
    data".

    ``droppable`` marks stages whose dispatch tail-drops the skb when the
    target core's run queue is at the backlog limit.  That is every
    stage on the UDP path and every stage before ``tcp_rcv`` on the TCP
    path; the TCP receive and delivery stages (and MFLOW's merge) are
    exempt, because the sender window bounds what reaches them.

    ``pure`` marks a stage whose ``process`` touches only its own skb
    and telemetry counters, never reads the clock or schedules, returns
    ``[skb]``, and changes neither which packets the skb holds nor their
    payloads (all that any cost reads).  The pipeline charges a run of
    pure stages on one core (plus the stage after them) as one fused
    work item; see docs/ENGINE.md.
    """

    name: str = "stage"
    droppable: bool = True
    pure: bool = False
    cost_base: Optional[str] = None
    cost_per_seg: Optional[str] = None
    cost_per_byte: Optional[str] = None

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class PassthroughStage(Stage):
    """A stage that charges a flat per-skb cost and forwards unchanged.

    The cost is the cost-model field ``cost_attr`` (its only term),
    whatever the skb, so a fused run fixes it when it is planned.
    """

    pure = True

    def __init__(self, name: str, cost_attr: str, droppable: bool = True):
        self.name = name
        self.cost_base = cost_attr
        self.droppable = droppable

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        return [skb]


class SkbAllocStage(Stage):
    """Per-packet skb construction — the heavyweight first-stage function.

    Cost is charged per wire packet (``segs`` is always 1 here: GRO runs
    after allocation), making this the function the paper identifies as
    unsplittable by FALCON and addressable only by MFLOW's IRQ splitting.
    """

    name = "skb_alloc"
    pure = True
    cost_per_seg = "skb_alloc_ns"

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        ctx.counters["skb_allocated"] += len(skb.packets)
        return [skb]


class GroStage(Stage):
    """Generic Receive Offload.

    Merges *consecutive, in-order* same-flow TCP skbs into super-skbs, up
    to a cap that differs for plain and VxLAN-encapsulated traffic (encap
    GRO is markedly less effective — this is part of why overlay loses so
    much throughput).  UDP skbs pay the inspection cost but never merge
    (paper footnote 2).

    Held skbs are flushed when the merge cap is reached, when a
    non-mergeable skb arrives, or after a flush timeout — mirroring
    napi_gro_flush at the end of a poll batch.
    """

    cost_per_seg = "gro_per_seg_ns"

    def __init__(self, name: str = "gro"):
        self.name = name
        self._held: Dict[object, Skb] = {}
        self._last_touch: Dict[object, float] = {}
        self._timer_armed: Dict[object, bool] = {}

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        packets = skb.packets
        ctx.counters["gro_in"] += len(packets)
        if skb.flow.proto != "tcp":
            return [skb]  # GRO is ineffective for UDP: pay cost, no merge
        costs = ctx.costs
        cap = costs.gro_max_segs_encap if packets[0].encap else costs.gro_max_segs_native
        if cap <= 1:
            return [skb]
        # GRO contexts are per-core (per NAPI instance): two splitting
        # cores never share a held skb, so micro-flows cannot merge across
        # branches at batch boundaries.
        key = (ctx.core.id, skb.flow)
        held = self._held.get(key)
        out: List[Skb] = []
        if held is not None:
            merged = held.packets
            tail = merged[-1]
            # Skb.can_merge: the key holds the flow, so this skb directly
            # continues the held byte stream within the cap
            if len(merged) + len(packets) <= cap and packets[0].seq == tail.seq + tail.payload:
                merged.extend(packets)
                # the merged skb's packets now live in `held`; the husk is dead
                ctx.pipeline.recycle_skb(skb)
                self._last_touch[key] = ctx.sim._now
                tail = merged[-1]
                if len(merged) >= cap or tail.frag_index == tail.frag_count - 1:
                    # cap reached, or PSH at a message boundary: flush now
                    out.append(self._take(key))
                return out
            out.append(self._take(key))
        tail = packets[-1]
        if tail.frag_index == tail.frag_count - 1:
            # single-segment message (PSH set): no holding
            out.append(skb)
            return out
        self._held[key] = skb
        self._last_touch[key] = ctx.sim._now
        self._arm_flush(key, ctx)
        return out

    def _take(self, key: object) -> Skb:
        self._last_touch.pop(key, None)
        return self._held.pop(key)

    def _arm_flush(self, key: object, ctx: StageContext) -> None:
        """Idle-timeout flush: fires ``gro_flush_timeout_ns`` after the last
        merge into the held skb, re-arming itself while merging continues
        (models napi gro_flush_timeout)."""
        if self._timer_armed.get(key):
            return
        self._timer_armed[key] = True
        # the timer callback is a bound method (not a closure) so a live
        # event heap stays picklable for checkpoints
        ctx.sim.call_in(
            ctx.costs.gro_flush_timeout_ns,
            self._flush_check, key, ctx.pipeline, ctx.node, ctx.core,
        )

    def _flush_check(self, key: object, pipeline, node, core) -> None:
        sim = pipeline.sim
        timeout = pipeline.costs.gro_flush_timeout_ns
        held = self._held.get(key)
        if held is None:
            self._timer_armed.pop(key, None)
            return
        now = sim._now
        idle = now - self._last_touch.get(key, now)
        # the 1 ns slack guards against float-precision re-arm loops
        if idle >= timeout - 1.0:
            self._timer_armed.pop(key, None)
            pipeline.inject(node.next, self._take(key), core)
        else:
            sim.call_in(
                max(timeout - idle, 1.0), self._flush_check, key, pipeline, node, core
            )

    def held_count(self) -> int:
        """Number of flows with an skb currently parked in GRO."""
        return len(self._held)

    def flush_flow(self, flow) -> List[Skb]:
        """Detach every held skb for ``flow`` (freeze-time quiesce).

        The caller decides what to do with them — the migration
        controller injects them downstream so they reach the balancer's
        blackout buffer in arrival order before the container freezes.
        Armed flush timers find their key gone and disarm themselves.
        """
        keys = sorted((k for k in self._held if k[1] == flow), key=lambda k: k[0])
        return [self._take(k) for k in keys]

    def release_flow(self, flow, pipeline) -> int:
        """Recycle every held skb for a retired flow back to the skb pool."""
        flushed = self.flush_flow(flow)
        for skb in flushed:
            pipeline.recycle_skb(skb)
        return len(flushed)


class IpRcvStage(PassthroughStage):
    """IP receive (routing decision + header validation), per skb."""

    def __init__(self, name: str = "ip_rcv", cost_attr: str = "ip_rcv_ns"):
        super().__init__(name, cost_attr)


class CountingSink(Stage):
    """Terminal stage for tests: counts and stores what reaches it."""

    name = "sink"
    droppable = False

    def __init__(self, name: str = "sink"):
        self.name = name
        self.received: List[Skb] = []

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        self.received.append(skb)
        ctx.telemetry.count(f"{self.name}_skbs")
        ctx.telemetry.count(f"{self.name}_bytes", skb.payload_bytes)
        return []
