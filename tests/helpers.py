"""Shared test harness utilities."""

from typing import Dict, List, Optional

import pytest

from repro.cpu.core import Core
from repro.cpu.topology import CpuSet
from repro.metrics.telemetry import Telemetry
from repro.netstack.costs import DEFAULT_COSTS, CostModel
from repro.netstack.packet import FlowKey, Skb, fragment_message
from repro.netstack.pipeline import Pipeline, link_nodes
from repro.netstack.stages import Stage
from repro.sim.engine import Simulator
from repro.steering.base import SteeringPolicy

TEST_FLOW = FlowKey(1, 2, "tcp", 1000, 2000)
TEST_UDP_FLOW = FlowKey(1, 2, "udp", 1000, 2000)


class MapPolicy(SteeringPolicy):
    """Test policy: explicit stage→core-index map with a default."""

    def __init__(self, cpus: CpuSet, mapping: Optional[Dict[str, int]] = None, default: int = 1):
        super().__init__(cpus, app_core=0)
        self.mapping = mapping or {}
        self.default = default

    def kernel_core_for(self, stage_name: str, skb: Skb, from_core: Optional[Core]) -> Core:
        return self.cpus[self.mapping.get(stage_name, self.default)]


class Harness:
    """A tiny testbed: sim + cpus + pipeline over the given stages."""

    def __init__(
        self,
        stages: List[Stage],
        n_cores: int = 4,
        mapping: Optional[Dict[str, int]] = None,
        costs: Optional[CostModel] = None,
        policy: Optional[SteeringPolicy] = None,
    ):
        self.sim = Simulator()
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.cpus = CpuSet(self.sim, n_cores)
        self.telemetry = Telemetry(self.sim)
        self.policy = policy if policy is not None else MapPolicy(self.cpus, mapping)
        if hasattr(self.policy, "cpus") and self.policy.cpus is not self.cpus:
            self.policy.cpus = self.cpus
        stages = self.policy.build_pipeline_stages(stages)
        self.pipeline = Pipeline(self.sim, self.costs, self.policy, self.telemetry)
        self.pipeline.set_head(link_nodes(stages))

    def inject(self, skb: Skb, from_core=None) -> None:
        self.pipeline.inject(self.pipeline.head, skb, from_core)

    def run(self, until_ns: Optional[float] = None) -> None:
        self.sim.run(until_ns=until_ns)


# ---------------------------------------------- fused runs vs stage by stage
def stage_classes():
    """Every Stage class, subclasses included."""
    found, todo = [], [Stage]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def unfuse(monkeypatch):
    """Turn every pure stage class impure, so no run is ever fused."""
    for cls in stage_classes():
        if cls.__dict__.get("pure"):
            monkeypatch.setattr(cls, "pure", False)


def fusion_payload(sc, res):
    return {
        "events_executed": res.events_executed,
        "counters": res.counters,
        "drops": res.drops,
        "throughput_gbps": res.throughput_gbps,
        "latency": res.latency.to_dict(),
        "hist": res.hist,
        "messages_delivered": res.messages_delivered,
        "busy_ns": [core.busy_ns for core in sc.cpus],
        "items_executed": [core.items_executed for core in sc.cpus],
    }


def run_plans(sc):
    """Every cached fused-run plan of ``sc`` (None where a run has none)."""
    return [
        plan
        for by_stage in sc.policy.run_plans.values()
        for by_branch in by_stage.values()
        for plan in by_branch.values()
    ]


def compare_unfused(monkeypatch, build, run):
    """Run ``build()`` fused, then unfused; return the fused scenario."""
    fused_sc = build()
    fused = fusion_payload(fused_sc, run(fused_sc))
    with monkeypatch.context() as m:
        unfuse(m)
        plain_sc = build()
        plain = fusion_payload(plain_sc, run(plain_sc))
    assert not any(run_plans(plain_sc)), "the unfused run built a plan"
    for key in plain:
        assert fused[key] == plain[key], key
    return fused_sc


def fuses(sc):
    """Whether any stage run of ``sc`` was planned for fusion."""
    return any(plan is not None for plan in run_plans(sc))


def make_skb(flow=TEST_FLOW, size=1000, msg_id=0, start_seq=0, wire_seq=None, encap=False) -> Skb:
    skb = Skb(fragment_message(flow, msg_id, size, start_seq=start_seq, encap=encap))
    if wire_seq is not None:
        for i, pkt in enumerate(skb.packets):
            pkt.wire_seq = wire_seq + i
    return skb


@pytest.fixture
def sim():
    return Simulator()
