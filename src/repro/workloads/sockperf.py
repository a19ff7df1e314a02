"""sockperf-style micro-benchmarks (paper §V-A).

Provides the five evaluated systems as named scenario builders with the
paper's exact configurations:

* ``native``     — physical host path, all kernel work on one core;
* ``vanilla``    — Docker overlay (VxLAN), all kernel work on one core;
* ``rps``        — overlay + Linux RPS (veth-onward steered to core 2);
* ``falcon``     — overlay + FALCON (device-level for UDP, function-level
  for TCP — each protocol's best mode, as in Fig. 8a);
* ``mflow``      — overlay + MFLOW (full-path scaling for TCP with batch
  256 and two split branches pipelined over two cores each; device
  scaling for UDP with two splitting cores — §V "Experimental
  configurations").

UDP runs three clients against one server, TCP one client, matching the
paper's setup.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import MflowConfig
from repro.core.mflow import MflowPolicy
from repro.cpu.topology import CpuSet
from repro.netstack.costs import CostModel
from repro.overlay.topology import DatapathKind
from repro.sim.units import MSEC
from repro.steering.base import SteeringPolicy
from repro.steering.falcon import FalconDevPolicy, FalconFunPolicy
from repro.steering.rps import RpsPolicy
from repro.steering.rss import RssPolicy
from repro.steering.vanilla import VanillaPolicy
from repro.workloads.options import RunOptions
from repro.workloads.scenario import Scenario, ScenarioResult

#: the systems compared throughout the paper's evaluation, in figure order
SYSTEMS = ("native", "vanilla", "rps", "falcon", "mflow")

#: extended set including FALCON's two modes separately (Fig. 4 uses both)
#: plus hardware RSS (inter-flow hashing only — the chaos matrix baseline
#: that benefits from multiple UDP clients but not from intra-flow splits)
ALL_SYSTEMS = (
    "native", "vanilla", "rps", "rss", "falcon-dev", "falcon-fun", "falcon", "mflow"
)

#: clients per protocol (paper: one TCP client; three UDP clients because
#: a single UDP client core saturates before the receiver does)
CLIENTS = {"tcp": 1, "udp": 3}


def policy_factory(
    system: str, proto: str, batch_size: int = 256, n_split_cores: int = 2
) -> Callable[[CpuSet], SteeringPolicy]:
    """The steering policy constructor for one of the evaluated systems."""
    if system not in ALL_SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {ALL_SYSTEMS}")

    def build(cpus: CpuSet) -> SteeringPolicy:
        if system in ("native", "vanilla"):
            return VanillaPolicy(cpus, app_core=0, role_cores={"first": 1})
        if system == "rps":
            return RpsPolicy(cpus, app_core=0, role_cores={"first": 1, "steer": 2})
        if system == "rss":
            # hardware hashing over three kernel cores; a single flow still
            # lands whole on one of them
            return RssPolicy(cpus, app_core=0, core_pool=[1, 2, 3], placement="hash")
        if system == "falcon-dev":
            return FalconDevPolicy(
                cpus, app_core=0, role_cores={"first": 1, "vxlan": 2, "rest": 3}
            )
        if system == "falcon-fun":
            return FalconFunPolicy(
                cpus, app_core=0, role_cores={"first": 1, "mid": 2, "rest": 3}
            )
        if system == "falcon":
            if proto == "tcp":
                # function-level is FALCON's best TCP mode (paper §II-B)
                return FalconFunPolicy(
                    cpus, app_core=0, role_cores={"first": 1, "mid": 2, "rest": 3}
                )
            return FalconDevPolicy(
                cpus, app_core=0, role_cores={"first": 1, "vxlan": 2, "rest": 3}
            )
        # MFLOW
        if proto == "tcp":
            config = MflowConfig.full_path_tcp(
                alloc_cores=list(range(2, 2 + n_split_cores)),
                rest_cores=list(range(2 + n_split_cores, 2 + 2 * n_split_cores)),
                batch_size=batch_size,
            )
        else:
            config = MflowConfig.device_scaling(
                split_cores=list(range(2, 2 + n_split_cores)),
                batch_size=batch_size,
            )
        return MflowPolicy(cpus, config, app_core=0)

    return build


def datapath_for(system: str) -> DatapathKind:
    return DatapathKind.NATIVE if system == "native" else DatapathKind.OVERLAY


def build_scenario(
    system: str,
    proto: str,
    message_size: int,
    costs: Optional[CostModel] = None,
    seed: int = 0,
    batch_size: int = 256,
    n_split_cores: int = 2,
    n_receiver_cores: int = 8,
    interval_ns: Optional[float] = None,
    options: RunOptions = RunOptions(),
) -> Scenario:
    """Assemble the single-flow scenario for one (system, proto, size)."""
    sc = Scenario(
        datapath_for(system),
        proto,
        policy_factory(system, proto, batch_size, n_split_cores),
        costs=costs,
        seed=seed,
        n_receiver_cores=n_receiver_cores,
        # real RSS spreads RX queues across its core pool
        rss_core_indices=[1, 2, 3] if system == "rss" else None,
        options=options,
    )
    for _ in range(CLIENTS[proto]):
        if proto == "tcp":
            sc.add_tcp_sender(message_size, interval_ns=interval_ns)
        else:
            sc.add_udp_sender(message_size, interval_ns=interval_ns)
    return sc


def run_single_flow(
    system: str,
    proto: str,
    message_size: int,
    costs: Optional[CostModel] = None,
    seed: int = 0,
    warmup_ns: float = 2 * MSEC,
    measure_ns: float = 10 * MSEC,
    batch_size: int = 256,
    n_split_cores: int = 2,
    interval_ns: Optional[float] = None,
    options: RunOptions = RunOptions(),
) -> ScenarioResult:
    """Run one cell of Fig. 4a / Fig. 8a / Fig. 9."""
    sc = build_scenario(
        system,
        proto,
        message_size,
        costs=costs,
        seed=seed,
        batch_size=batch_size,
        n_split_cores=n_split_cores,
        interval_ns=interval_ns,
        options=options,
    )
    return sc.run(warmup_ns=warmup_ns, measure_ns=measure_ns)

