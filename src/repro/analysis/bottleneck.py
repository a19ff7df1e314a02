"""Closed-form bottleneck analysis of the receive path.

For a single elephant flow, each scheme's throughput ceiling is set by
its most-loaded core:  ``throughput = payload_bits / max_core(ns per
packet charged to that core)``.  :class:`BottleneckModel` computes that
ceiling from a scenario that is built but not run — no simulation — by
walking the datapath the simulator itself dispatches through: the
scenario's stage chain (``pipeline.head`` → ``node.next``), each hop
placed by the scenario's steering policy (``policy.core_for``).  The
placement it reads is the one the run uses, so vanilla, RPS, FALCON and
MFLOW differ here exactly as they do in simulation.  It serves three
purposes:

* documents *why* the calibration produces the paper's shape (the same
  arithmetic as docs/CALIBRATION.md, executable);
* cross-validates the simulator: the measured throughput must come in at
  or below the analytic ceiling (queueing and jitter only ever
  subtract);
* lets users predict the effect of cost changes before running sweeps
  (build the scenario with another :class:`~repro.netstack.costs.CostModel`).

Per wire packet of ``MAX_SEGMENT_PAYLOAD`` bytes, the walk charges:

* ``driver_poll_per_pkt_ns`` to the core of the NIC RX queue serving the
  flow;
* each hop its node's resolved ``base``/``per_seg``/``per_byte`` terms,
  with an skb holding one packet up to GRO and :meth:`gro_factor`
  packets after it;
* on every change of core, ``handoff_cost_ns`` to the receiving stage and
  ``steer_dispatch_ns`` to the sending core, once per crossing skb;
* inside MFLOW's split region (after the policy's ``split_stage``, up to
  and including its ``merge_stage``), each branch separately, with
  ``skb.branch`` set and a 1/``n_branches`` share of the packets.

Everything it leaves out (queueing, drops, jitter, IRQs, merge queue
switches, TCP's out-of-order penalty) only adds time, so the ceiling is
an upper bound, not a replacement for simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.netstack.packet import MAX_SEGMENT_PAYLOAD, Packet, Skb
from repro.overlay.topology import DatapathKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.scenario import Scenario


@dataclass(frozen=True)
class StageLoad:
    """ns per wire packet that one hop charges to one core.

    ``stage`` is ``"steer_dispatch"`` for the sending side of a handoff."""

    stage: str
    core: int
    ns_per_packet: float


class BottleneckModel:
    """Analytic single-flow ceiling of a built (not run) scenario.

    Walking asks the policy for each hop of the scenario's first client
    flow, resolving its routes as that flow's first packet would, so walk
    a scenario built for the purpose.
    """

    def __init__(self, scenario: "Scenario"):
        self.scenario = scenario
        #: what each hop charges to each core, in walk order
        self.loads: List[StageLoad] = self._walk()

    def gro_factor(self) -> float:
        """Wire packets per skb after GRO: the merge cap for TCP (smaller
        for encapsulated frames), 1 for UDP (paper footnote 2)."""
        sc = self.scenario
        if sc.proto != "tcp":
            return 1.0
        if sc.kind is DatapathKind.OVERLAY:
            return float(sc.costs.gro_max_segs_encap)
        return float(sc.costs.gro_max_segs_native)

    def _walk(self) -> List[StageLoad]:
        # deferred: repro.workloads imports repro.faults, which imports
        # this package
        from repro.workloads.scenario import make_flow

        sc = self.scenario
        costs, policy = sc.costs, sc.policy
        pkt = Packet(make_flow(sc.proto), MAX_SEGMENT_PAYLOAD,
                     encap=sc.kind is DatapathKind.OVERLAY)
        nic_core = sc.nic.queue_for(pkt).core
        loads = [StageLoad("driver_poll", nic_core.id, costs.driver_poll_per_pkt_ns)]
        split = getattr(policy, "split_stage", None)
        merge = getattr(policy, "merge_stage", None)
        # (skb.branch, share of the flow's packets, core the skb is on)
        lanes = [(None, 1.0, nic_core)]
        segs = 1.0  # wire packets per skb
        node = sc.pipeline.head
        while node is not None:
            stage = node.stage
            ns = ((node.base or 0.0) / segs + (node.per_seg or 0.0)
                  + (node.per_byte or 0.0) * MAX_SEGMENT_PAYLOAD)
            walked = []
            for branch, share, prev in lanes:
                skb = Skb([pkt])
                skb.branch = branch
                core = policy.core_for(stage.name, skb, prev)
                hop = ns
                if core is not prev:
                    hop += costs.handoff_cost_ns / segs
                    loads.append(StageLoad(
                        "steer_dispatch", prev.id, share * costs.steer_dispatch_ns / segs
                    ))
                loads.append(StageLoad(stage.name, core.id, share * hop))
                walked.append((branch, share, core))
            lanes = walked
            if stage is split:
                n = stage.n_branches
                lanes = [(b, 1.0 / n, lanes[0][2]) for b in range(n)]
            elif stage is merge:
                lanes = [(None, 1.0, lanes[0][2])]
            elif stage.name == "gro":
                segs = self.gro_factor()
            node = node.next
        return loads

    # ------------------------------------------------------------- results
    def core_loads(self) -> Dict[int, float]:
        """ns of CPU per wire packet charged to each core."""
        out: Dict[int, float] = {}
        for load in self.loads:
            out[load.core] = out.get(load.core, 0.0) + load.ns_per_packet
        return out

    def ceiling_gbps(self) -> float:
        """Throughput ceiling in Gbps: full segments over the busiest core."""
        return MAX_SEGMENT_PAYLOAD * 8.0 / max(self.core_loads().values())

    def binding(self) -> Tuple[int, str]:
        """The busiest core and the stage that dominates its load."""
        loads = self.core_loads()
        core = max(loads, key=loads.__getitem__)
        by_stage: Dict[str, float] = {}
        for load in self.loads:
            if load.core == core:
                by_stage[load.stage] = by_stage.get(load.stage, 0.0) + load.ns_per_packet
        return core, max(by_stage, key=by_stage.__getitem__)
