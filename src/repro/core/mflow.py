"""MFLOW as a steering policy.

Splices the split and merge nodes into the datapath and routes:

* pre-split stages (and the split itself) to the dispatch core;
* in-region stages to the skb's branch plan (sticky per micro-flow);
* the merge, post-merge kernel stages and delivery to the application
  core — the paper implements merging inside ``tcp_recvmsg`` /
  ``udp_recvmsg``, i.e. in the packet-delivery thread (§IV).

For multi-flow experiments, pass ``core_pool`` instead of a fixed
config: each flow deterministically draws its own dispatch core and
branch cores from the pool (even, hash-based distribution — the
balanced load of Fig. 12).

Routes are cached per flow by :meth:`SteeringPolicy.core_for`;
:meth:`~MflowPolicy.quarantine_flow`, :meth:`~MflowPolicy.readmit_flow`
and :meth:`~MflowPolicy.retire_flow` change a flow's routing, so each
drops that flow's cached routes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import BranchPlan, MflowConfig
from repro.core.reassembly import ReassemblyStage
from repro.core.splitting import MicroflowSplitStage
from repro.cpu.core import Core
from repro.cpu.topology import CpuSet
from repro.netstack.packet import FlowKey, Skb
from repro.netstack.stages import Stage
from repro.steering.base import PoolAllocator, SteeringPolicy, stable_flow_hash


class MflowPolicy(SteeringPolicy):
    """The paper's packet-level parallelism, as a pluggable policy."""

    def __init__(
        self,
        cpus: CpuSet,
        config: MflowConfig,
        app_core: int = 0,
        core_pool: Optional[Sequence[int]] = None,
        telemetry=None,
        placement: str = "least-loaded",
    ):
        super().__init__(cpus, app_core)
        if placement not in ("least-loaded", "hash", "round-robin"):
            raise ValueError(f"unknown placement {placement!r}")
        self.config = config
        self.core_pool = list(core_pool) if core_pool is not None else None
        self.placement = placement
        self.split_stage = MicroflowSplitStage(
            config.batch_size, config.n_branches, per_flow=not config.aggregate
        )
        self.merge_stage = ReassemblyStage(
            config.n_branches,
            stall_skbs=config.merge_stall_skbs,
            timeout_ns=config.merge_timeout_ns,
            per_flow=not config.aggregate,
            splitter=self.split_stage,
        )
        self._pre_split: frozenset = frozenset()
        self._region: frozenset = frozenset()
        self._built = False
        self._flow_plans: Dict[FlowKey, tuple] = {}
        #: (core, weight) pairs claimed from the allocator per flow, so
        #: retire_flow can hand the load back
        self._flow_claims: Dict[FlowKey, List[tuple]] = {}
        #: flows degraded to single-core vanilla steering (see quarantine_flow)
        self._quarantined: set = set()
        self.faults = None
        self.health_monitor = None
        self._next_slot = 0
        self._allocator = PoolAllocator(self.core_pool) if self.core_pool else None
        #: pool-balancing weights: the dispatch half-softirq is light,
        #: each branch carries roughly half the flow's stage work
        self.dispatch_weight = 0.2
        self.branch_weight = 0.55

    # --------------------------------------------------------- pipeline build
    def build_pipeline_stages(self, stages: List[Stage]) -> List[Stage]:
        names = [s.name for s in stages]
        try:
            split_idx = names.index(self.config.split_before)
        except ValueError:
            raise ValueError(
                f"split point {self.config.split_before!r} not in datapath {names}"
            ) from None
        try:
            merge_idx = names.index(self.config.merge_before)
        except ValueError:
            raise ValueError(
                f"merge point {self.config.merge_before!r} not in datapath {names}"
            ) from None
        if merge_idx <= split_idx:
            raise ValueError(
                f"merge point {self.config.merge_before!r} must come after "
                f"split point {self.config.split_before!r}"
            )
        out = list(stages)
        out.insert(merge_idx, self.merge_stage)
        out.insert(split_idx, self.split_stage)
        self._pre_split = frozenset(names[:split_idx])
        self._region = frozenset(names[split_idx:merge_idx])
        self._built = True
        return out

    # ------------------------------------------------------------- core picks
    def kernel_core_for(self, stage_name: str, skb: Skb, from_core: Optional[Core]) -> Core:
        if not self._built:
            raise RuntimeError("MflowPolicy used before build_pipeline_stages()")
        dispatch_idx, branches, merge_idx, post_idx = self._plan_for_flow(skb.flow)
        if self._quarantined and skb.flow in self._quarantined:
            # degraded mode: the whole pre-merge path runs on the dispatch
            # core — single-core vanilla steering, serialized end to end
            if stage_name == self.merge_stage.name:
                return self.cpus[merge_idx]
            if (
                stage_name == self.split_stage.name
                or stage_name in self._pre_split
                or stage_name in self._region
            ):
                return self.cpus[dispatch_idx]
            return self.cpus[post_idx]
        if stage_name == self.split_stage.name or stage_name in self._pre_split:
            return self.cpus[dispatch_idx]
        if stage_name == self.merge_stage.name:
            return self.cpus[merge_idx]
        if stage_name in self._region:
            branch = skb.branch if skb.branch is not None else 0
            return self.cpus[branches[branch].core_for(stage_name)]
        # post-merge kernel stages (e.g. tcp_rcv) run in recvmsg context
        return self.cpus[post_idx]

    def _plan_for_flow(self, flow: FlowKey) -> tuple:
        cfg = self.config
        if self.core_pool is None:
            if cfg.aggregate:
                # one global merge point; post-merge protocol work still
                # runs on each flow's own application core
                return (
                    cfg.dispatch_core,
                    cfg.branches,
                    cfg.merge_core,
                    self.app_core_idx_for(flow),
                )
            if len(self.app_cores) > 1:
                # merging runs in the flow's recvmsg thread, i.e. on the
                # app core its application thread was placed on
                app_idx = self.app_core_idx_for(flow)
                return (cfg.dispatch_core, cfg.branches, app_idx, app_idx)
            return (cfg.dispatch_core, cfg.branches, cfg.merge_core, cfg.post_merge_core)
        plan = self._flow_plans.get(flow)
        if plan is None:
            if self.placement in ("hash", "round-robin"):
                pool = self.core_pool
                if self.placement == "hash":
                    base = stable_flow_hash(flow) % len(pool)
                else:
                    base = self._next_slot
                    self._next_slot = (self._next_slot + 1 + cfg.n_branches) % len(pool)
                dispatch = pool[base]
                branches = [
                    BranchPlan(default_core=pool[(base + 1 + i) % len(pool)])
                    for i in range(cfg.n_branches)
                ]
            else:
                # least-loaded placement over the pool (see PoolAllocator)
                taken: set = set()
                dispatch = self._allocator.take(self.dispatch_weight, exclude=taken)
                taken.add(dispatch)
                claims = [(dispatch, self.dispatch_weight)]
                branches = []
                for _ in range(cfg.n_branches):
                    core = self._allocator.take(self.branch_weight, exclude=taken)
                    taken.add(core)
                    claims.append((core, self.branch_weight))
                    branches.append(BranchPlan(default_core=core))
                self._flow_claims[flow] = claims
            # in pool mode, merge + post-merge run in the flow's recvmsg
            # thread, i.e. on its application core
            app_idx = self.app_core_idx_for(flow)
            plan = (dispatch, branches, app_idx, app_idx)
            self._flow_plans[flow] = plan
        return plan

    def nic_queue_core_idx(self, flow: FlowKey) -> Optional[int]:
        if self.core_pool is None:
            return None
        return self._plan_for_flow(flow)[0]

    def branch_cores_for(self, flow: FlowKey) -> List[Core]:
        """Every core that executes in-region work for ``flow``."""
        _, branches, _, _ = self._plan_for_flow(flow)
        idxs = []
        for plan in branches:
            idxs.append(plan.default_core)
            idxs.extend(plan.stage_cores.values())
        return [self.cpus[i] for i in dict.fromkeys(idxs)]

    # --------------------------------------------------- lifecycle / health
    def retire_flow(self, flow: FlowKey, pipeline=None) -> bool:
        """Release everything held for ``flow``: its placement plan, the
        pool-allocator load it claimed, and split/merge per-flow state.
        With a ``pipeline``, skbs parked at the merge point are recycled
        back to the skb pool instead of stranded."""
        super().retire_flow(flow, pipeline)
        plan = self._flow_plans.pop(flow, None)
        for core, weight in self._flow_claims.pop(flow, ()):
            self._allocator.release(core, weight)
        self._quarantined.discard(flow)
        self.split_stage.retire_flow(flow)
        self.merge_stage.retire_flow(flow, pipeline=pipeline)
        return plan is not None

    def quarantine_flow(self, flow: FlowKey) -> bool:
        """Degrade ``flow`` to single-core vanilla steering (see
        :mod:`repro.faults.health`).  Returns False if already degraded.

        Only core *routing* changes: micro-flow IDs keep being assigned
        and merged, but every pre-merge hop runs on the dispatch core, so
        arrivals are serialized and the merge drains in order — the flow
        cannot stall on a branch that never delivers.
        """
        if flow in self._quarantined:
            return False
        self._quarantined.add(flow)
        self._forget_flow(flow)
        return True

    def readmit_flow(self, flow: FlowKey) -> bool:
        """Restore split processing for a recovered flow."""
        if flow not in self._quarantined:
            return False
        self._quarantined.discard(flow)
        self._forget_flow(flow)
        return True

    def is_quarantined(self, flow: FlowKey) -> bool:
        return flow in self._quarantined

    def attach_faults(self, injectors) -> None:
        """Wire fault injection into the split stage and start the
        per-flow health monitor (active plans only)."""
        self.faults = injectors
        self.split_stage.faults = injectors
        injectors.set_quarantine_check(self.is_quarantined)
        if injectors.active:
            from repro.faults.health import FlowHealthMonitor

            self.health_monitor = FlowHealthMonitor(
                self, injectors.sim, injectors.telemetry
            )
            self.health_monitor.arm()

    # ---------------------------------------------------------------- metrics
    @property
    def ooo_arrivals(self) -> int:
        """Out-of-order arrivals observed at the merge point (Fig. 7)."""
        return self.merge_stage.ooo_arrivals

    @property
    def ooo_packets(self) -> int:
        return self.merge_stage.ooo_packets

    @property
    def name(self) -> str:
        return "mflow"
