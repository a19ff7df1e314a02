"""Multi-flow TCP experiments (paper Fig. 10 and Fig. 12).

Reproduces the paper's controlled layout: 5 dedicated application cores
and 10 dedicated kernel packet-processing cores.  Flows hash across the
kernel pool (hardware RSS spreads their RX queues the same way):

* ``vanilla`` — RSS only: each flow entirely on one kernel core;
* ``falcon``  — each flow pipelined across three pool cores
  (function-level, FALCON's best TCP mode);
* ``mflow``   — each flow split at the earliest point over two branch
  cores from the pool and merged on its app core.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.core.config import BranchPlan, MflowConfig
from repro.core.mflow import MflowPolicy
from repro.cpu.topology import CpuSet
from repro.netstack.costs import CostModel
from repro.overlay.topology import DatapathKind
from repro.sim.units import MSEC
from repro.steering.base import SteeringPolicy
from repro.steering.falcon import FalconFunPolicy
from repro.steering.rss import RssPolicy
from repro.workloads.options import RunOptions
from repro.workloads.scenario import Scenario, ScenarioResult, make_flow

#: the paper's multi-flow core layout
APP_CORES: List[int] = [0, 1, 2, 3, 4]
KERNEL_POOL: List[int] = [5, 6, 7, 8, 9, 10, 11, 12, 13, 14]
N_CORES = 15

MULTIFLOW_SYSTEMS = ("vanilla", "falcon", "mflow")


def multiflow_policy_factory(
    system: str, batch_size: int = 256, placement: str = "least-loaded"
) -> Callable[[CpuSet], SteeringPolicy]:
    """Policy constructor for the multi-flow comparison."""
    if system not in MULTIFLOW_SYSTEMS:
        raise ValueError(
            f"unknown multi-flow system {system!r}; expected one of {MULTIFLOW_SYSTEMS}"
        )

    def build(cpus: CpuSet) -> SteeringPolicy:
        if system == "vanilla":
            return RssPolicy(cpus, app_core=APP_CORES, core_pool=KERNEL_POOL)
        if system == "falcon":
            return FalconFunPolicy(
                cpus, app_core=APP_CORES, core_pool=KERNEL_POOL, placement=placement
            )
        config = MflowConfig(
            split_before="skb_alloc",
            merge_before="tcp_rcv",
            branches=[BranchPlan(default_core=KERNEL_POOL[0]),
                      BranchPlan(default_core=KERNEL_POOL[1])],  # placeholder; pool mode overrides
            batch_size=batch_size,
        )
        return MflowPolicy(
            cpus, config, app_core=APP_CORES, core_pool=KERNEL_POOL, placement=placement
        )

    return build


def build_multiflow_scenario(
    system: str,
    n_flows: int,
    message_size: int,
    costs: Optional[CostModel] = None,
    seed: int = 0,
    batch_size: int = 256,
    placement: str = "least-loaded",
    options: RunOptions = RunOptions(),
) -> Scenario:
    """Assemble an ``n_flows``-flow overlay TCP scenario."""
    if n_flows < 1:
        raise ValueError(f"need at least one flow, got {n_flows}")
    sc = Scenario(
        DatapathKind.OVERLAY,
        "tcp",
        multiflow_policy_factory(system, batch_size, placement),
        costs=costs,
        seed=seed,
        n_receiver_cores=N_CORES,
        rss_core_indices=KERNEL_POOL,
        options=options,
    )
    for i in range(n_flows):
        sc.add_tcp_sender(message_size, flow=make_flow("tcp", i))
    return sc


def run_multiflow(
    system: str,
    n_flows: int,
    message_size: int,
    costs: Optional[CostModel] = None,
    seed: int = 0,
    warmup_ns: float = 2 * MSEC,
    measure_ns: float = 8 * MSEC,
    placement: str = "least-loaded",
    options: RunOptions = RunOptions(),
) -> ScenarioResult:
    """One cell of Fig. 10 (aggregate TCP throughput)."""
    sc = build_multiflow_scenario(
        system, n_flows, message_size, costs=costs, seed=seed, placement=placement,
        options=options,
    )
    return sc.run(warmup_ns=warmup_ns, measure_ns=measure_ns)


def kernel_pool_utilization(result: ScenarioResult) -> List[float]:
    """Utilization of the 10 kernel cores only (Fig. 12's x-axis)."""
    return [result.cpu_utilization[i] for i in KERNEL_POOL]


def utilization_stddev(result: ScenarioResult) -> float:
    """Std-dev of kernel-core utilization in percent (paper: 20.5 vs 11.6)."""
    return float(np.std(np.asarray(kernel_pool_utilization(result)) * 100.0))
