"""Steering-policy interface and shared helpers."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cpu.core import Core
from repro.cpu.topology import CpuSet
from repro.netstack.packet import FlowKey, Skb
from repro.netstack.stages import Stage


#: stage names delivered in recvmsg context on the application core
DELIVERY_STAGES = frozenset({"tcp_deliver", "udp_deliver"})


def stable_flow_hash(flow: FlowKey) -> int:
    """A process-stable FNV-1a hash of the flow 5-tuple.

    Python's built-in ``hash`` is salted for strings, which would make
    RSS/RPS core placement vary between runs; experiments must replay
    identically, so we hash explicitly.
    """
    h = 0xCBF29CE484222325
    for part in (flow.src, flow.dst, flow.sport, flow.dport, ord(flow.proto[0])):
        for _ in range(4):
            h ^= part & 0xFF
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            part >>= 8
    return h


class SteeringPolicy:
    """Decides the executing core for each (stage, skb) hop.

    Subclasses implement :meth:`kernel_core_for`; delivery stages are
    routed to the application core uniformly (the kernel binds the
    packet-delivery thread to the app's core — paper footnote 1).

    Route cache (ONCache's fast path, for every policy): a hop's core
    may depend only on its flow, its stage and ``skb.branch``, plus
    per-flow policy state, so :meth:`core_for` memoises the answer as
    ``flow -> stage -> skb.branch -> core``.  The first packet of a flow
    takes the slow path (placement, branch plans) and fills the cache;
    later packets pay one nested dict lookup.  A policy whose answer for
    a flow changes must call :meth:`_forget_flow`.  Per-packet decisions
    (routing by sequence number, say) belong in an override that runs
    before ``super().core_for``, outside the cache.

    :meth:`build_pipeline_stages` is the hook MFLOW uses to splice split
    and merge nodes into the datapath; baselines return it unchanged.
    """

    def __init__(self, cpus: CpuSet, app_core=0):
        self.cpus = cpus
        if isinstance(app_core, int):
            self.app_cores: List[int] = [app_core]
        else:
            self.app_cores = list(app_core)
            if not self.app_cores:
                raise ValueError("need at least one application core")
        self._app_assignment: Dict[FlowKey, int] = {}
        #: route cache: flow -> stage name -> skb.branch -> core
        self._routes: Dict[FlowKey, Dict[str, Dict[Optional[int], Core]]] = {}
        #: the pipeline's fused-run plans, built from the routes above and
        #: kept beside them so :meth:`_forget_flow` drops both:
        #: flow -> first stage name -> skb.branch -> plan (None: no run)
        self.run_plans: Dict[FlowKey, Dict[str, Dict[Optional[int], Any]]] = {}
        #: the receiving NIC's RX queue per flow: :meth:`nic_queue_core_idx`
        #: answers once per flow, and :meth:`_forget_flow` drops the queue
        #: with the routes (filled by :meth:`repro.netstack.nic.Nic.receive`)
        self.rx_queues: Dict[FlowKey, Any] = {}
        #: False when a subclass overrides :meth:`core_for` to route some
        #: hop per packet: the cache is then not the whole answer, and the
        #: pipeline fuses no runs
        self.per_flow_routes = type(self).core_for is SteeringPolicy.core_for

    def app_core_idx_for(self, flow: FlowKey) -> int:
        """The application core serving ``flow``.

        Application threads are placed evenly on the dedicated app cores,
        like the paper's controlled multi-flow layout (5 app cores for up
        to 20 flows): a new flow takes the app core serving the fewest
        flows, the first in ``app_cores`` on a tie.  While no flow
        retires that is first-come round robin; a retired flow
        (:meth:`retire_flow`) frees its slot.
        """
        if len(self.app_cores) == 1:
            return self.app_cores[0]
        idx = self._app_assignment.get(flow)
        if idx is None:
            served = dict.fromkeys(self.app_cores, 0)
            for core in self._app_assignment.values():
                served[core] += 1
            idx = min(self.app_cores, key=served.__getitem__)
            self._app_assignment[flow] = idx
        return idx

    # ------------------------------------------------------------- interface
    def core_for(self, stage_name: str, skb: Skb, from_core: Optional[Core]) -> Core:
        try:
            return self._routes[skb.flow][stage_name][skb.branch]
        except KeyError:
            pass
        # slow path: resolve the hop once and remember it for the flow
        if stage_name in DELIVERY_STAGES:
            core = self.cpus[self.app_core_idx_for(skb.flow)]
        else:
            core = self.kernel_core_for(stage_name, skb, from_core)
        by_stage = self._routes.setdefault(skb.flow, {})
        by_stage.setdefault(stage_name, {})[skb.branch] = core
        return core

    def known_route(self, stage_name: str, skb: Skb) -> Optional[Core]:
        """The cached core of a hop, or None while the hop is unresolved.

        Never resolves: fused-run planning must not place a hop before a
        packet reaches it (first-come placements such as the app-core
        round robin would then change order)."""
        try:
            return self._routes[skb.flow][stage_name][skb.branch]
        except KeyError:
            return None

    def _forget_flow(self, flow: FlowKey) -> None:
        """Drop ``flow``'s cached routes, the run plans built from them and
        its RX queue; its next frame and hop re-resolve.

        Call it before changing the flow's placement state: its queue
        first lands the frames that have arrived, under the placement
        they arrived with, then hands back those still in flight, which
        resolve their queue when they arrive."""
        self._routes.pop(flow, None)
        self.run_plans.pop(flow, None)
        queue = self.rx_queues.pop(flow, None)
        if queue is not None:
            queue.forget_flow(flow)

    def nic_queue_core_idx(self, flow: FlowKey) -> Optional[int]:
        """Core index whose NIC RX queue should serve ``flow``.

        Lets the testbed align hardware RSS with the policy's placement
        (as a tuned real deployment would via ethtool/IRQ affinity).
        None means the NIC falls back to flow hashing.  Asked once per
        flow (the NIC memoises it in :attr:`rx_queues`), so an answer
        that changes must go through :meth:`_forget_flow`.
        """
        return None

    def kernel_core_for(self, stage_name: str, skb: Skb, from_core: Optional[Core]) -> Core:
        """The core for a non-delivery hop.  Must be a pure function of
        ``(skb.flow, stage_name, skb.branch)`` and the flow's policy state,
        never of ``from_core`` or the rest of the skb: :meth:`core_for`
        caches it."""
        raise NotImplementedError

    def build_pipeline_stages(self, stages: List[Stage]) -> List[Stage]:
        """Transform the datapath stage list (identity for baselines)."""
        return stages

    def attach_faults(self, injectors) -> None:
        """Hook for policies that react to fault injection (MFLOW wires
        its blackout hook and health monitor here); baselines ignore it."""

    def retire_flow(self, flow: FlowKey, pipeline=None) -> bool:
        """Release per-flow steering state when a flow ends.

        Returns True when the policy actually held state for ``flow``.
        ``pipeline``, when given, lets stateful policies recycle parked
        skbs back to the skb pool (MFLOW's merge queues).  This base
        forgets the route cache and frees the flow's app-core slot; pool
        placements also release their claims (:class:`StaticRolePolicy`,
        MFLOW, which call this first).
        """
        self._forget_flow(flow)
        self._app_assignment.pop(flow, None)
        return False

    @property
    def name(self) -> str:
        return type(self).__name__.replace("Policy", "").lower()


class PoolAllocator:
    """Least-loaded assignment of flow roles onto a kernel-core pool.

    Each role carries a weight (its rough share of a flow's CPU demand);
    new flows take the currently least-loaded cores, modelling the
    paper's even, dedicated-core placement for multi-flow experiments.
    """

    def __init__(self, pool: List[int]):
        if not pool:
            raise ValueError("core pool must not be empty")
        self.pool = list(pool)
        self.load: Dict[int, float] = {c: 0.0 for c in self.pool}

    def take(self, weight: float, exclude: Optional[set] = None) -> int:
        """Claim the least-loaded core (preferring ones not in ``exclude``)."""
        candidates = [c for c in self.pool if not exclude or c not in exclude]
        if not candidates:
            candidates = self.pool
        best = min(candidates, key=lambda c: (self.load[c], c))
        self.load[best] += weight
        return best

    def release(self, core: int, weight: float) -> None:
        """Return a claimed weight to the pool (flow retired).

        Without this, long-running multi-flow scenarios accrete phantom
        load from departed flows and least-loaded placement skews.
        """
        if core not in self.load:
            raise KeyError(f"core {core} is not in the pool")
        self.load[core] = max(0.0, self.load[core] - weight)


class StaticRolePolicy(SteeringPolicy):
    """Shared machinery for role-table policies (vanilla/RPS/FALCON).

    A subclass provides ``stage_role`` (stage name → role name) and each
    flow gets a role→core assignment, either fixed (single-flow
    experiments pin cores explicitly) or derived from a hash over a core
    pool (multi-flow experiments).
    """

    #: subclass: stage name -> role; stages absent fall back to "first"
    stage_role: Dict[str, str] = {}
    #: subclass: ordered role names (defines pool layout per flow)
    roles: List[str] = ["first"]
    #: subclass: relative CPU demand of each role (pool balancing weights)
    role_weights: Dict[str, float] = {"first": 1.0}

    def __init__(
        self,
        cpus: CpuSet,
        app_core: int = 0,
        role_cores: Optional[Dict[str, int]] = None,
        core_pool: Optional[List[int]] = None,
        placement: str = "least-loaded",
    ):
        super().__init__(cpus, app_core)
        if (role_cores is None) == (core_pool is None):
            raise ValueError("provide exactly one of role_cores / core_pool")
        if role_cores is not None:
            missing = [r for r in self.roles if r not in role_cores]
            if missing:
                raise ValueError(f"role_cores missing roles: {missing}")
        if placement not in ("least-loaded", "hash", "round-robin"):
            raise ValueError(f"unknown placement {placement!r}")
        self._fixed = role_cores
        self._pool = core_pool
        self._allocator = PoolAllocator(core_pool) if core_pool is not None else None
        self._flow_assignment: Dict[FlowKey, Dict[str, int]] = {}
        self._next_slot = 0
        self.placement = placement

    def _roles_for_flow(self, flow: FlowKey) -> Dict[str, int]:
        if self._fixed is not None:
            return self._fixed
        assigned = self._flow_assignment.get(flow)
        if assigned is None:
            if self.placement == "hash":
                # hash placement: what RSS/IRQ affinity gives by default —
                # flows can collide on cores
                pool = self._pool
                base = stable_flow_hash(flow) % len(pool)
                assigned = {
                    role: pool[(base + i) % len(pool)]
                    for i, role in enumerate(self.roles)
                }
            elif self.placement == "round-robin":
                # evenly-strided placement in flow arrival order: no
                # collisions, but role weights are ignored, so per-core
                # load reflects each scheme's intrinsic stage imbalance
                pool = self._pool
                base = self._next_slot
                self._next_slot = (self._next_slot + len(self.roles)) % len(pool)
                assigned = {
                    role: pool[(base + i) % len(pool)]
                    for i, role in enumerate(self.roles)
                }
            else:
                # least-loaded placement: flows spread evenly, modelling a
                # tuned dedicated-core layout (the paper's controlled
                # multi-flow environment)
                assigned = {}
                taken: set = set()
                for role in self.roles:
                    weight = self.role_weights.get(role, 1.0)
                    core = self._allocator.take(weight, exclude=taken)
                    assigned[role] = core
                    taken.add(core)
            self._flow_assignment[flow] = assigned
        return assigned

    def retire_flow(self, flow: FlowKey, pipeline=None) -> bool:
        """Forget ``flow``'s routes and drop its role assignment; under
        least-loaded placement each role's weight goes back to the
        allocator, so later flows are not placed around a flow that is
        gone."""
        super().retire_flow(flow, pipeline)
        assigned = self._flow_assignment.pop(flow, None)
        if assigned is None:
            return False
        if self.placement == "least-loaded":
            for role, core in assigned.items():
                self._allocator.release(core, self.role_weights.get(role, 1.0))
        return True

    def nic_queue_core_idx(self, flow: FlowKey) -> Optional[int]:
        if self._fixed is not None:
            return None
        return self._roles_for_flow(flow)["first" if "first" in self.roles else self.roles[0]]

    def kernel_core_for(self, stage_name: str, skb: Skb, from_core: Optional[Core]) -> Core:
        role = self.stage_role.get(stage_name, "first")
        idx = self._roles_for_flow(skb.flow)[role]
        return self.cpus[idx]
