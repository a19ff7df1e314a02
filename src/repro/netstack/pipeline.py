"""The stage graph and its steering-aware dispatcher.

A receive datapath is a linked list of :class:`StageNode` s (built by
:mod:`repro.overlay.topology`).  The :class:`Pipeline` moves skbs from
node to node: for each hop it asks the steering policy which core should
execute the stage, charges the stage cost (plus a handoff penalty when
the skb crosses cores) as a work item on that core, runs the stage's
logic on completion, and forwards the outputs.

This is where every scheme in the paper plugs in: vanilla/RSS/RPS/FALCON
differ only in the ``core_for`` answer; MFLOW additionally inserts split
and merge nodes into the graph (see :mod:`repro.core`).

Hot-path notes: the steering decision is made exactly once per hop (the
forwarding loop passes the chosen core straight into :meth:`_dispatch`);
the :class:`~repro.netstack.stages.StageContext` handed to stages is a
single reused instance (stages must read, not retain, it — every
in-tree stage extracts what it needs); and datapath skbs come from a
free list with poisoned recycling (:meth:`alloc_skb` /
:meth:`recycle_skb`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.cpu.core import Core
from repro.metrics.telemetry import Telemetry
from repro.netstack.costs import CostModel
from repro.netstack.packet import Packet, Skb
from repro.netstack.stages import Stage, StageContext
from repro.sim.engine import SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.steering.base import SteeringPolicy


class StageNode:
    """One position in the datapath: a stage plus its successor."""

    __slots__ = ("stage", "next")

    def __init__(self, stage: Stage, next_node: Optional["StageNode"] = None):
        self.stage = stage
        self.next = next_node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self.next.stage.name if self.next else None
        return f"<StageNode {self.stage.name} -> {nxt}>"


def link_nodes(stages: List[Stage]) -> StageNode:
    """Wire stages into a chain and return the head node."""
    if not stages:
        raise ValueError("datapath needs at least one stage")
    nodes = [StageNode(s) for s in stages]
    for a, b in zip(nodes, nodes[1:]):
        a.next = b
    return nodes[0]


class Pipeline:
    """Dispatches skbs through a stage graph under a steering policy."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        policy: "SteeringPolicy",
        telemetry: Telemetry,
    ):
        self.sim = sim
        self.costs = costs
        self.policy = policy
        self.telemetry = telemetry
        self.head: Optional[StageNode] = None
        #: queue-overflow drops, per stage name
        self.drops: Dict[str, int] = {}
        #: optional FlightRecorder — None (the default) disables all probes
        self.obs = None
        #: optional JourneyTracker for latency decomposition (None = off)
        self.journeys = None
        #: optional StageHistograms — exact per-hop latency counts
        #: (see repro.obs.hist; recording never perturbs the timeline)
        self.hist = None
        #: reused execution context handed to every Stage.process call
        self._ctx = StageContext(self, None, None)
        #: recycled datapath skbs (see alloc_skb/recycle_skb)
        self._skb_pool: List[Skb] = []

    def set_head(self, head: StageNode) -> None:
        self.head = head

    # ------------------------------------------------------------- skb pool
    def alloc_skb(self, pkt: Packet) -> Skb:
        """A fresh 1-segment skb for ``pkt``, from the free list if possible."""
        pool = self._skb_pool
        if pool:
            skb = pool.pop()
            skb.packets = [pkt]
            skb.flow = pkt.flow
            skb.microflow_id = None
            skb.branch = None
            skb.flow_serial = None
            skb.alloc_ts = 0.0
            skb.q_ts = 0.0
            skb.trace_id = None
            return skb
        return Skb([pkt])

    def recycle_skb(self, skb: Skb) -> None:
        """Return a dead skb to the free list, poisoned.

        Only call at points where no other component can still hold the
        skb: terminal delivery stages, GRO merge absorption, and backlog
        drops.  ``packets`` is cleared and the generation bumped so any
        stale reference re-entering the datapath raises instead of
        aliasing whatever packet reuses the object.
        """
        skb.packets = None
        skb.gen += 1
        self._skb_pool.append(skb)

    # ------------------------------------------------------------- dispatch
    def inject(
        self,
        node: Optional[StageNode],
        skb: Skb,
        from_core: Optional[Core],
        front: bool = False,
    ) -> None:
        """Hand ``skb`` to ``node`` (no-op sink when node is None).

        ``front=True`` marks a run-to-completion continuation: when the
        target core is the one the skb is already on, the next stage runs
        immediately (head of the run queue) instead of re-queueing behind
        other packets — matching real softirq semantics, where one packet
        walks all of a core's stages before the next packet is picked up.
        """
        if node is None:
            return
        stage = node.stage
        core = self.policy.core_for(stage.name, skb, from_core)
        self._dispatch(node, stage, skb, core, from_core, front)

    def inject_batch(
        self,
        node: Optional[StageNode],
        packets: List[Packet],
        from_core: Optional[Core],
    ) -> None:
        """Wrap each polled descriptor in a pooled skb and dispatch it.

        The batched NAPI entry point: one driver-poll work item calls
        this once for its whole descriptor batch, hoisting the per-batch
        lookups out of the per-packet loop (the steering decision stays
        per-skb — flows in one batch may land on different cores).
        """
        if node is None:
            return
        stage = node.stage
        name = stage.name
        core_for = self.policy.core_for
        dispatch = self._dispatch
        for pkt in packets:
            skb = self.alloc_skb(pkt)
            dispatch(node, stage, skb, core_for(name, skb, from_core), from_core, False)

    def _dispatch(
        self,
        node: StageNode,
        stage: Stage,
        skb: Skb,
        core: Core,
        from_core: Optional[Core],
        front: bool,
    ) -> None:
        """Charge ``stage`` for ``skb`` on the already-chosen ``core``."""
        if skb.packets is None:
            raise SimulationError(
                f"recycled skb (generation {skb.gen}) re-entered the datapath "
                f"at stage {stage.name!r}"
            )
        cost = stage.cost(skb, self.costs)
        if from_core is not None and core.id != from_core.id:
            # Crossing cores costs both sides: the sender pays the steering
            # dispatch (hash + enqueue + IPI arming), the receiver pays the
            # queue pull + cold-cache penalty.
            cost += self.costs.handoff_cost_ns
            from_core.submit_call("steer_dispatch", self.costs.steer_dispatch_ns, _noop)
            self.telemetry.count("handoffs")
            front = False
        # Overload protection: model bounded per-core backlogs by dropping
        # when the target core's run queue is past the configured limit.
        # Drop-eligible stages only (TCP is window-limited and never drops).
        if stage.droppable and core.queue_depth >= self.costs.backlog_limit:
            self.drops[stage.name] = self.drops.get(stage.name, 0) + 1
            self.telemetry.count("backlog_drops")
            self.telemetry.count(f"drops:{stage.name}")
            if self.obs is not None:
                self.obs.instant(
                    "backlog_drop", core=core.id, stage=stage.name,
                    depth=core.queue_depth,
                )
                if self.journeys is not None:
                    self.journeys.on_drop(skb, stage.name)
            self.recycle_skb(skb)
            return
        if self.journeys is not None:
            self.journeys.on_enqueue(skb, stage.name, core.id, self.sim.now)
        skb.q_ts = self.sim._now
        if front:
            core.submit_front_call(stage.name, cost, self._run_stage, node, skb, core)
        else:
            core.submit_call(stage.name, cost, self._run_stage, node, skb, core)

    def _run_stage(self, node: StageNode, skb: Skb, core: Core) -> None:
        hist = self.hist
        if hist is not None:
            # the work item charging this stage just completed on `core`;
            # its span scalars are the hop's execution window
            hist.record_stage(
                node.stage.name, core.id, skb.flow.proto,
                core.span_start - skb.q_ts, core.span_end - core.span_start,
            )
        journeys = self.journeys
        if journeys is not None and core.last_span is not None:
            journeys.on_execute(skb, node.stage.name, *core.last_span)
        ctx = self._ctx
        ctx.node = node
        ctx.core = core
        outputs = node.stage.process(skb, ctx)
        if not outputs or node.next is None:
            return
        nxt = node.next
        nstage = nxt.stage
        nname = nstage.name
        core_for = self.policy.core_for
        if len(outputs) == 1:
            out = outputs[0]
            target = core_for(nname, out, core)
            self._dispatch(nxt, nstage, out, target, core, target.id == core.id)
            return
        # Cross-core outputs go to their targets' FIFO queues in order;
        # same-core outputs become run-to-completion continuations, which
        # stack LIFO at the queue head, so they are submitted in reverse
        # to preserve packet order.
        same = []
        for out in outputs:
            target = core_for(nname, out, core)
            if target.id == core.id:
                same.append(out)
            else:
                self._dispatch(nxt, nstage, out, target, core, False)
        for out in reversed(same):
            self._dispatch(nxt, nstage, out, core, core, True)

    # ------------------------------------------------------------ inspection
    def stage_names(self) -> List[str]:
        names = []
        node = self.head
        while node is not None:
            names.append(node.stage.name)
            node = node.next
        return names

    def total_drops(self) -> int:
        return sum(self.drops.values())

    def find_node(self, stage_name: str) -> StageNode:
        node = self.head
        while node is not None:
            if node.stage.name == stage_name:
                return node
            node = node.next
        raise KeyError(f"no stage named {stage_name!r} in pipeline")


def _noop() -> None:
    return None
