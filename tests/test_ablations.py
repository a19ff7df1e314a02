"""Ablations of MFLOW's design choices (DESIGN.md §5).

Each test isolates one design decision the paper argues for and checks
what it buys, on the quick 1 + 3 ms windows:

* micro-flow batch size (throughput and reorder effort),
* number of splitting cores (diminishing returns),
* early vs late merging for UDP (§III-B),
* batch-based reassembly vs per-packet reordering (the kernel's
  ofo-queue strawman),
* IRQ splitting (full-path scaling) vs flow splitting only (device
  scaling) for TCP.

The paper gives no number for these, so they are tier-1 assertions
rather than fidelity checks.
"""

import pytest

from repro.core.config import MflowConfig
from repro.core.mflow import MflowPolicy
from repro.core.reassembly import PerPacketReorderStage
from repro.overlay.topology import DatapathKind
from repro.workloads.scenario import Scenario
from repro.workloads.sockperf import run_single_flow

WINDOWS = dict(warmup_ns=1e6, measure_ns=3e6)

pytestmark = pytest.mark.slow


def _mflow_scenario(proto, config, n_cores, policy=MflowPolicy):
    sc = Scenario(
        DatapathKind.OVERLAY,
        proto,
        lambda cpus: policy(cpus, config, app_core=0),
        n_receiver_cores=n_cores,
    )
    if proto == "udp":
        for _ in range(3):
            sc.add_udp_sender(65536)
    else:
        sc.add_tcp_sender(65536)
    return sc.run(**WINDOWS)


class PerPacketPolicy(MflowPolicy):
    """MFLOW with its batch reassembler swapped for per-packet reordering."""

    def __init__(self, cpus, config, **kw):
        super().__init__(cpus, config, **kw)
        self.merge_stage = PerPacketReorderStage()
        self.merge_stage.name = "mflow_merge"  # reuse placement rules


def test_batch_size():
    out = {
        batch: run_single_flow("mflow", "tcp", 65536, batch_size=batch, **WINDOWS)
        for batch in (1, 256)
    }
    # tiny batches pay heavy per-packet steering + reorder costs
    assert out[256].throughput_gbps > 1.5 * out[1].throughput_gbps
    # and produce orders of magnitude more reorder events
    assert out[1].counters.get("mflow_ooo_microflows", 0) > 10 * max(
        1, out[256].counters.get("mflow_ooo_microflows", 0)
    )


def test_splitting_cores():
    gbps = {
        n: run_single_flow("mflow", "udp", 65536, n_split_cores=n, **WINDOWS).throughput_gbps
        for n in (1, 2, 4)
    }
    # two cores buy a lot over one; four buys little over two
    assert gbps[2] - gbps[1] > 2 * max(gbps[4] - gbps[2], 0.01)


def test_merge_point():
    """Late merging (paper default) vs merging right after the heavy device."""
    late = _mflow_scenario(
        "udp", MflowConfig.device_scaling(split_cores=[2, 3], merge_before="udp_deliver"), 10
    )
    early = _mflow_scenario(
        "udp", MflowConfig.device_scaling(split_cores=[2, 3], merge_before="bridge"), 10
    )
    # late merging parallelizes more of the path with the same cores
    assert late.throughput_gbps >= 0.95 * early.throughput_gbps


def test_reassembly_vs_per_packet():
    """Batch-based reassembly vs the per-packet reorder strawman."""
    batch = _mflow_scenario("tcp", MflowConfig.full_path_tcp(batch_size=16), 8)
    per_packet = _mflow_scenario(
        "tcp", MflowConfig.full_path_tcp(batch_size=16), 8, policy=PerPacketPolicy
    )
    # per-packet reordering pays reorder_per_pkt_ns on the merge core for
    # every out-of-order arrival; batch reassembly must not lose to it
    assert batch.throughput_gbps >= 0.95 * per_packet.throughput_gbps


def test_irq_splitting():
    """Full-path scaling (IRQ splitting) vs device scaling only, for TCP.

    Without IRQ splitting the per-packet skb allocation stays on one
    core — the paper's argument for splitting at the earliest point.
    """
    full = run_single_flow("mflow", "tcp", 65536, **WINDOWS)
    device_only = _mflow_scenario(
        "tcp", MflowConfig.device_scaling(split_cores=[2, 3], merge_before="tcp_rcv"), 8
    )
    assert full.throughput_gbps > device_only.throughput_gbps
