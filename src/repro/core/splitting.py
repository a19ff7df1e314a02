"""Micro-flow splitting (paper §III-A, Fig. 6a/6b).

One stage implements both of the paper's splitting mechanisms — which
one is being modelled depends on where the policy places the node:

* inserted before ``skb_alloc`` it is the **IRQ-splitting function**:
  the first half of the pNIC softirq walks the driver's request queue
  and dispatches *raw packet requests* (no skb yet) to per-core request
  rings, so even skb allocation parallelizes;
* inserted anywhere later it is the **flow-splitting function**: a
  re-purposed ``netif_rx`` that enqueues skbs onto the chosen splitting
  core's per-device splitting queue.

Either way the logic is the same: consecutive runs of ``batch_size``
packets form a micro-flow; micro-flow *i* goes to branch ``i % n``
(even distribution, as the paper configures); the micro-flow ID is
stored in the skb for the reassembler.
"""

from __future__ import annotations

from typing import Dict, List

from repro.netstack.packet import FlowKey, Skb
from repro.netstack.stages import Stage, StageContext


#: sentinel key under which aggregate-mode packets are batched
GLOBAL_KEY = FlowKey(0, 0, "any", 0, 0)


class MicroflowSplitStage(Stage):
    """Assigns each packet a micro-flow ID and a branch (splitting core).

    ``per_flow=True`` (default) batches each flow's packets separately —
    the elephant-flow configuration of the micro-benchmarks.  With
    ``per_flow=False`` the *aggregate arrival stream* is batched under
    one global counter, which is what IRQ-splitting does for many-
    connection application workloads: the driver's request queue is
    divided without regard to flows, and the global in-order merge
    preserves every flow's internal order implicitly.
    """

    name = "mflow_split"
    droppable = True
    cost_per_seg = "mflow_split_ns"

    def __init__(self, batch_size: int, n_branches: int, per_flow: bool = True):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if n_branches < 1:
            raise ValueError(f"need at least one branch, got {n_branches}")
        self.batch_size = batch_size
        self.n_branches = n_branches
        self.per_flow = per_flow
        #: optional FaultInjectors providing the branch-blackout hook
        self.faults = None
        self._seen: Dict[FlowKey, int] = {}
        # actual segment count of each emitted micro-flow (a multi-segment
        # skb is never split across micro-flows, so sizes can exceed
        # batch_size slightly); the reassembler reads these to know when a
        # micro-flow has fully arrived
        self._mf_sizes: Dict[tuple, int] = {}

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        key = skb.flow if self.per_flow else GLOBAL_KEY
        segs = len(skb.packets)
        seen = self._seen.get(key, 0)
        microflow = seen // self.batch_size
        skb.microflow_id = microflow
        skb.branch = microflow % self.n_branches
        skb.flow_serial = seen
        self._seen[key] = seen + segs
        size_key = (key, microflow)
        size = self._mf_sizes.get(size_key)
        new_microflow = size is None
        self._mf_sizes[size_key] = (size or 0) + segs
        ctx.counters["mflow_split_packets"] += segs
        obs = ctx.pipeline.obs
        if obs is not None and new_microflow:
            # steering decision: a fresh micro-flow opens on `branch`
            obs.instant(
                "mflow_split",
                core=ctx.core.id,
                microflow=microflow,
                branch=skb.branch,
            )
        # Branch blackout happens *after* size accounting: the merge must
        # believe these segments exist so its liveness escapes engage —
        # exactly the failure mode a dead branch core produces.
        if self.faults is not None and self.faults.blackout_drop(skb):
            return []
        return [skb]

    # ------------------------------------------------- reassembler interface
    def microflow_size(self, key: FlowKey, microflow: int) -> int:
        """Segments dispatched so far under (key, microflow)."""
        return self._mf_sizes.get((key, microflow), 0)

    def microflow_closed(self, key: FlowKey, microflow: int) -> bool:
        """True once the splitter has moved past ``microflow`` (its size is
        final — no more packets will ever carry this ID)."""
        return self._seen.get(key, 0) // self.batch_size > microflow

    def forget_microflow(self, key: FlowKey, microflow: int) -> None:
        """Release bookkeeping for a fully merged micro-flow."""
        self._mf_sizes.pop((key, microflow), None)

    def retire_flow(self, flow: FlowKey) -> None:
        """Drop per-flow batching state (no-op in aggregate mode, where
        the counter is shared by every flow)."""
        if not self.per_flow:
            return
        self._seen.pop(flow, None)
        for size_key in [k for k in self._mf_sizes if k[0] == flow]:
            del self._mf_sizes[size_key]

    def microflows_emitted(self, flow: FlowKey) -> int:
        """How many micro-flows this flow (or the aggregate stream, in
        aggregate mode) has been divided into so far."""
        seen = self._seen.get(flow if self.per_flow else GLOBAL_KEY, 0)
        return (seen + self.batch_size - 1) // self.batch_size
