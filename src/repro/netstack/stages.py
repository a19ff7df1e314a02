"""Stage base class and the generic kernel stages.

Concrete overlay devices (VxLAN, bridge, veth) are in
:mod:`repro.overlay.devices`; transport endpoints in
:mod:`repro.netstack.protocol`; MFLOW's split/merge nodes in
:mod:`repro.core`.  This module holds the shared machinery plus the
protocol-neutral stages: skb allocation, GRO, and IP receive.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.cpu.core import Core
from repro.netstack.costs import CostModel
from repro.netstack.packet import Skb

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netstack.pipeline import Pipeline, StageNode


class StageContext:
    """Execution context handed to ``Stage.process``.

    ``sim``, ``costs`` and ``telemetry`` are copied from the pipeline at
    construction (a pipeline never swaps them), so stages read plain
    slots on the hot path.
    """

    __slots__ = ("pipeline", "node", "core", "sim", "costs", "telemetry")

    def __init__(self, pipeline: "Pipeline", node: "StageNode", core: Core):
        self.pipeline = pipeline
        self.node = node
        self.core = core
        self.sim = pipeline.sim
        self.costs: CostModel = pipeline.costs
        self.telemetry = pipeline.telemetry


class Stage:
    """A named processing stage with a per-skb CPU cost.

    Subclasses override :meth:`cost` and :meth:`process`.  ``process``
    returns the skbs to forward to the next node; a stage that absorbs
    the skb (socket delivery) or forwards asynchronously itself (MFLOW
    merge) returns an empty list.

    ``droppable`` marks stages whose dispatch tail-drops the skb when the
    target core's run queue is at the backlog limit.  That is every
    stage on the UDP path and every stage before ``tcp_rcv`` on the TCP
    path; the TCP receive and delivery stages (and MFLOW's merge) are
    exempt, because the sender window bounds what reaches them.

    ``cost`` must depend only on the skb and the cost model.  ``pure``
    marks a stage whose ``process`` touches only its own skb and
    telemetry counters, never reads the clock or schedules, returns
    ``[skb]``, and changes nothing any stage's ``cost`` reads.  The
    pipeline charges a run of pure stages on one core (plus the stage
    after them) as one fused work item; see docs/ENGINE.md.
    """

    name: str = "stage"
    droppable: bool = True
    pure: bool = False

    def cost(self, skb: Skb, costs: CostModel) -> float:
        raise NotImplementedError

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class PassthroughStage(Stage):
    """A stage that charges a flat per-skb cost and forwards unchanged.

    The cost is the cost-model field ``cost_attr``, whatever the skb, so
    a fused run reads it once when it is planned.
    """

    pure = True

    def __init__(self, name: str, cost_attr: str, droppable: bool = True):
        self.name = name
        self.cost_attr = cost_attr
        self.droppable = droppable

    def cost(self, skb: Skb, costs: CostModel) -> float:
        return getattr(costs, self.cost_attr)

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

    def cost(self, skb: Skb, costs: CostModel) -> float:
        return costs.skb_alloc_ns * len(skb.packets)

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        ctx.telemetry.count("skb_allocated", len(skb.packets))
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

    def __init__(self, name: str = "gro"):
        self.name = name
        self._held: Dict[object, Skb] = {}
        self._last_touch: Dict[object, float] = {}
        self._timer_armed: Dict[object, bool] = {}

    def cost(self, skb: Skb, costs: CostModel) -> float:
        return costs.gro_per_seg_ns * len(skb.packets)

    def _cap(self, skb: Skb, costs: CostModel) -> int:
        return costs.gro_max_segs_encap if skb.head.encap else costs.gro_max_segs_native

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        ctx.telemetry.count("gro_in", len(skb.packets))
        if skb.flow.proto != "tcp":
            return [skb]  # GRO is ineffective for UDP: pay cost, no merge
        cap = self._cap(skb, ctx.costs)
        if cap <= 1:
            return [skb]
        # GRO contexts are per-core (per NAPI instance): two splitting
        # cores never share a held skb, so micro-flows cannot merge across
        # branches at batch boundaries.
        key = (ctx.core.id, skb.flow)
        held = self._held.get(key)
        out: List[Skb] = []
        if held is not None:
            if held.can_merge(skb, cap):
                held.merge(skb)
                # the merged skb's packets now live in `held`; the husk is dead
                ctx.pipeline.recycle_skb(skb)
                self._last_touch[key] = ctx.sim.now
                if held.segs >= cap or _ends_message(held):
                    # cap reached, or PSH at a message boundary: flush now
                    out.append(self._take(key))
                return out
            out.append(self._take(key))
        if _ends_message(skb):
            out.append(skb)  # single-segment message (PSH set): no holding
            return out
        self._held[key] = skb
        self._last_touch[key] = ctx.sim.now
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
        idle = sim.now - self._last_touch.get(key, sim.now)
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


def _ends_message(skb: Skb) -> bool:
    """True when the skb's last segment closes a message (TCP PSH flag —
    GRO flushes on PSH, so merging never spans sockperf messages)."""
    last = skb.packets[-1]
    return last.frag_index == last.frag_count - 1


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

    def cost(self, skb: Skb, costs: CostModel) -> float:
        return 0.0

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        self.received.append(skb)
        ctx.telemetry.count(f"{self.name}_skbs")
        ctx.telemetry.count(f"{self.name}_bytes", skb.payload_bytes)
        return []
