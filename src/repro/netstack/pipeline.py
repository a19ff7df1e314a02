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
forwarding loop passes the chosen core straight into :meth:`_dispatch`),
and a single-output hop reads the policy's route cache in place, asking
``core_for`` only on a miss; a stage's cost is its node's resolved
terms, evaluated inline (no per-hop method call); the
:class:`~repro.netstack.stages.StageContext` handed to stages is a
single reused instance (stages must read, not retain, it — every
in-tree stage extracts what it needs); and datapath skbs come from a
free list with poisoned recycling (:meth:`alloc_skb` /
:meth:`recycle_skb`).

Fused runs: when a pure stage (see :class:`~repro.netstack.stages.Stage`)
is dispatched, the pure stages after it that the route cache places on
the same core, plus at most one final stage of any kind, are charged as
one :class:`~repro.cpu.core.FusedRun`.  Its plan is cached in the
steering policy beside the routes it was built from.  On completion the
pure prefix is processed in order, and the last stage goes through the
ordinary :meth:`Pipeline._run_stage`; docs/ENGINE.md lists when a run
falls back to one item per stage.

Stage histograms (:mod:`repro.obs.hist`) are recorded by the core that
completes a hop, not here: the pipeline only resolves each hop's
``(stage, core, flow-class)`` series, once per stage node and core (the
:attr:`StageNode.series` cache) or once per run plan, and hands it to
the core with the work.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.cpu.core import Core, FusedRun
from repro.metrics.telemetry import Telemetry
from repro.netstack.costs import CostModel
from repro.netstack.packet import Packet, Skb
from repro.netstack.stages import PassthroughStage, Stage, StageContext
from repro.sim.engine import SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.steering.base import SteeringPolicy


class StageNode:
    """One position in the datapath: a stage plus its successor.

    ``base``, ``per_seg`` and ``per_byte`` are the stage's declared cost
    terms (see :class:`~repro.netstack.stages.Stage`) resolved to floats
    by :meth:`resolve`, None where the stage has no such term.
    ``series`` caches the stage's histogram series logs while histograms
    are attached: core -> flow class -> log."""

    __slots__ = ("stage", "next", "series", "base", "per_seg", "per_byte")

    def __init__(self, stage: Stage, next_node: Optional["StageNode"] = None):
        self.stage = stage
        self.next = next_node
        self.series: Dict[Core, Dict[str, Any]] = {}
        self.base: Optional[float] = None
        self.per_seg: Optional[float] = None
        self.per_byte: Optional[float] = None

    def resolve(self, costs: CostModel) -> None:
        """Read the stage's cost terms from ``costs``, once."""
        stage = self.stage
        self.base, self.per_seg, self.per_byte = (
            None if attr is None else getattr(costs, attr)
            for attr in (stage.cost_base, stage.cost_per_seg, stage.cost_per_byte)
        )
        if self.base is None and self.per_seg is None and self.per_byte is None:
            self.base = 0.0

    @property
    def fixed(self) -> bool:
        """Whether the cost is the same for every skb (a base term only)."""
        return self.per_seg is None and self.per_byte is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nxt = self.next.stage.name if self.next else None
        return f"<StageNode {self.stage.name} -> {nxt}>"


#: the shortest run worth fusing (see :meth:`Pipeline._plan_run`)
_MIN_RUN = 2


class RunPlan:
    """The static shape of a fused run (see :class:`~repro.cpu.core.FusedRun`):
    ``nodes`` from its first stage to its last, all on ``core``.
    ``guards`` are the indices of the stages whose dispatch checks the
    backlog against ``limit`` (the droppable ones after the first, whose
    check :meth:`Pipeline._dispatch` makes itself), and ``effects`` those
    whose ``process`` does more than return ``[skb]``.  ``tail_costs``
    holds the costs after the first that fixed-cost stages fix (None
    where the cost depends on the skb); ``dynamic`` pairs each None's
    index with its node, whose terms the dispatch evaluates per skb.
    ``series`` holds the plan's stage-histogram logs, one per covered
    length (None without histograms); the core logs each run there."""

    __slots__ = ("nodes", "tags", "guards", "effects", "tail_costs", "dynamic",
                 "core", "limit", "finish", "series")

    def __init__(self, nodes: List[StageNode], core: Core, pipeline: "Pipeline",
                 flow_class: str):
        self.nodes = tuple(nodes)
        self.tags = tuple(n.stage.name for n in nodes)
        hist = pipeline.hist
        self.series = (
            None if hist is None else hist.plan_series(self.tags, core.id, flow_class)
        )
        self.tail_costs = [n.base if n.fixed else None for n in nodes[1:]]
        self.dynamic = tuple(
            (i, n) for i, n in enumerate(nodes) if i > 0 and not n.fixed
        )
        self.guards = tuple(
            i for i, n in enumerate(nodes) if i > 0 and n.stage.droppable
        )
        self.effects = tuple(
            i for i, n in enumerate(nodes)
            if type(n.stage).process is not PassthroughStage.process
        )
        self.core = core
        self.limit = pipeline.costs.backlog_limit
        self.finish = pipeline._finish_run


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
        #: optional FlightRecorder — None (the default) disables all probes;
        #: its JourneyTracker samples per-packet journeys
        self.obs = None
        #: optional StageHistograms — exact per-hop latency counts, which
        #: the cores record (see repro.obs.hist; recording never perturbs
        #: the timeline)
        self.hist = None
        #: the run takes one wheel entry per wire frame and one work item
        #: per stage: no lazy NIC arrivals (``Wire.send``) and no fused
        #: runs.  The scenario sets it once, from its options (see
        #: repro.workloads.options.RunOptions.reference_path).
        self.reference_path = False
        #: reused execution context handed to every Stage.process call
        self._ctx = StageContext(self, None, None)
        #: recycled datapath skbs (see alloc_skb/recycle_skb)
        self._skb_pool: List[Skb] = []

    @property
    def policy(self) -> "SteeringPolicy":
        return self._policy

    @policy.setter
    def policy(self, policy: "SteeringPolicy") -> None:
        self._policy = policy
        #: the policy's route cache, read in place on the hot path; None
        #: when the policy routes some hop per packet (every hop then asks
        #: ``core_for``)
        self._routes = policy._routes if policy.per_flow_routes else None

    def set_head(self, head: StageNode) -> None:
        """Install the stage chain and resolve each node's cost terms."""
        self.head = head
        node = head
        while node is not None:
            node.resolve(self.costs)
            node = node.next

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
        core = self._policy.core_for(stage.name, skb, from_core)
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
        per-skb — flows in one batch may land on different cores; a
        fresh skb has no branch, so the route cache is read at ``None``).
        """
        if node is None:
            return
        stage = node.stage
        name = stage.name
        core_for = self._policy.core_for
        routes = self._routes
        dispatch = self._dispatch
        for pkt in packets:
            skb = self.alloc_skb(pkt)
            if routes is None:
                core = core_for(name, skb, from_core)
            else:
                try:
                    core = routes[pkt.flow][name][None]
                except KeyError:
                    core = core_for(name, skb, from_core)
            dispatch(node, stage, skb, core, from_core, False)

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
        packets = skb.packets
        if packets is None:
            raise SimulationError(
                f"recycled skb (generation {skb.gen}) re-entered the datapath "
                f"at stage {stage.name!r}"
            )
        # the node's declared terms, in their one association order:
        # per_seg * segs + base + bytes * per_byte (see Stage)
        cost = node.base
        per_seg = node.per_seg
        if per_seg is not None:
            cost = per_seg * len(packets) if cost is None else per_seg * len(packets) + cost
        per_byte = node.per_byte
        if per_byte is not None:
            nbytes = 0
            for pkt in packets:
                nbytes += pkt.payload
            cost = nbytes * per_byte if cost is None else cost + nbytes * per_byte
        costs = self.costs
        if from_core is not None and core.id != from_core.id:
            # Crossing cores costs both sides: the sender pays the steering
            # dispatch (hash + enqueue + IPI arming), the receiver pays the
            # queue pull + cold-cache penalty.
            cost += costs.handoff_cost_ns
            from_core.submit_call("steer_dispatch", costs.steer_dispatch_ns, _noop)
            self.telemetry.counters["handoffs"] += 1
            front = False
        obs = self.obs
        # Overload protection: model bounded per-core backlogs by dropping
        # when the target core's run queue is past the configured limit.
        # Droppable stages only: the TCP receive and delivery stages are
        # exempt (the sender window bounds them), the stages before them
        # are not.
        if stage.droppable and len(core._queue) >= costs.backlog_limit:
            self.drops[stage.name] = self.drops.get(stage.name, 0) + 1
            self.telemetry.count("backlog_drops")
            self.telemetry.count(f"drops:{stage.name}")
            if obs is not None:
                obs.instant(
                    "backlog_drop", core=core.id, stage=stage.name,
                    depth=len(core._queue),
                )
                obs.journeys.on_drop(skb, stage.name)
            self.recycle_skb(skb)
            return
        if obs is not None:
            obs.journeys.on_enqueue(skb, stage.name, core.id, self.sim.now)
        if stage.pure:
            try:
                plan = self._policy.run_plans[skb.flow][stage.name][skb.branch]
            except KeyError:
                plan = self._plan_run(node, skb, core)
            if plan is not None:
                run_costs = [cost, *plan.tail_costs]
                for i, later in plan.dynamic:
                    # the same terms, for the same packets
                    c = later.base
                    per_seg = later.per_seg
                    if per_seg is not None:
                        c = per_seg * len(packets) if c is None else per_seg * len(packets) + c
                    per_byte = later.per_byte
                    if per_byte is not None:
                        nbytes = 0
                        for pkt in packets:
                            nbytes += pkt.payload
                        c = nbytes * per_byte if c is None else c + nbytes * per_byte
                    run_costs[i] = c
                core.submit_run(plan, run_costs, skb, front)
                return
        series = None
        if self.hist is not None:
            proto = skb.flow.proto
            try:
                series = node.series[core][proto]
            except KeyError:
                series = node.series.setdefault(core, {})[proto] = (
                    self.hist.stage_series(stage.name, core.id, proto)
                )
        if front:
            core.submit_front_call(stage.name, cost, self._run_stage, node, skb, core,
                                   series=series)
        else:
            core.submit_call(stage.name, cost, self._run_stage, node, skb, core,
                             series=series)

    def _plan_run(self, node: StageNode, skb: Skb, core: Core) -> Optional[RunPlan]:
        """Build and cache the fused run that starts at pure ``node`` for
        ``skb``'s flow and branch on ``core``; None when there is none.

        Nothing is cached while a hop the run would cover is unresolved:
        the first packet of a flow goes stage by stage and fills the
        route cache, and a later packet builds the plan from it.
        """
        policy = self._policy
        plan = None
        if policy.per_flow_routes and not self.reference_path and core.fuses:
            nodes = [node]
            nxt = node.next
            while nxt is not None:
                hop = policy.known_route(nxt.stage.name, skb)
                if hop is None:
                    return None
                if hop is not core:
                    break
                nodes.append(nxt)
                if not nxt.stage.pure:
                    break
                nxt = nxt.next
            # a single stage is an ordinary work item; from two stages on
            # the saved wheel event outweighs the run's bookkeeping (see
            # docs/ENGINE.md)
            if len(nodes) >= _MIN_RUN:
                plan = RunPlan(nodes, core, self, skb.flow.proto)
        by_stage = policy.run_plans.setdefault(skb.flow, {})
        by_stage.setdefault(node.stage.name, {})[skb.branch] = plan
        return plan

    def _finish_run(self, run: FusedRun) -> None:
        """A fused run completed: run its pure prefix's effects in order,
        then hand the last covered stage to :meth:`_run_stage`."""
        plan = run.shape
        skb = run.item
        core = plan.core
        last = len(run.durs) - 1
        if last:
            ctx = self._ctx
            ctx.core = core
            nodes = plan.nodes
            for i in plan.effects:
                if i >= last:
                    break
                node = nodes[i]
                ctx.node = node
                node.stage.process(skb, ctx)
        self._run_stage(plan.nodes[last], skb, core)

    def _run_stage(self, node: StageNode, skb: Skb, core: Core) -> None:
        obs = self.obs
        if obs is not None:
            obs.journeys.on_execute(skb, node.stage.name, core.span_start, core.span_end)
        ctx = self._ctx
        ctx.node = node
        ctx.core = core
        outputs = node.stage.process(skb, ctx)
        if not outputs or node.next is None:
            return
        nxt = node.next
        nstage = nxt.stage
        nname = nstage.name
        core_for = self._policy.core_for
        if len(outputs) == 1:
            out = outputs[0]
            routes = self._routes
            if routes is None:
                target = core_for(nname, out, core)
            else:
                try:
                    target = routes[out.flow][nname][out.branch]
                except KeyError:
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
