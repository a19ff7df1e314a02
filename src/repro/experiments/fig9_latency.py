"""Figure 9 — per-message latency under load.

The paper measures sockperf latency in the "overloaded" scenario: each
system driven to its maximum throughput before packet drops occur.

* TCP: the sender is window-limited, so running the continuous workload
  and sampling per-message delivery latency reproduces the paper's
  standing-queue regime directly.
* UDP: open-loop senders would overload every system unboundedly, so
  each cell first measures the system's goodput capacity, then replays
  at 90% of it (max throughput *before drops*) and samples latency there
  (both phases inside the ``sockperf_loaded`` factory, so a cell stays
  one self-contained spec).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.base import ExperimentTable, execute, size_label, windows
from repro.metrics.summary import LatencySummary
from repro.netstack.costs import CostModel
from repro.runner import RunEngine, RunRecord, RunSpec, run_specs
from repro.runner.factories import costs_to_overrides
from repro.workloads.scenario import ScenarioResult

EXPERIMENT = "fig9"
SYSTEMS = ["native", "vanilla", "rps", "falcon", "mflow"]
MESSAGE_SIZES = [4096, 65536]
UDP_LOAD_FACTOR = 0.9
#: latency-oriented micro-flow batch for the UDP runs: at sub-saturation,
#: large batches make each branch serve the full stream for a whole batch
#: window, oscillating queue depth by O(batch); small batches interleave
#: the branches finely.  Goodput capacity is within noise of the
#: throughput-default 256 (see the batch-size ablation test).
UDP_MFLOW_BATCH = 16


@dataclass
class Fig9Result:
    summary: ExperimentTable
    latencies: Dict[Tuple[str, str, int], LatencySummary] = field(default_factory=dict)
    raw: Dict[Tuple[str, str, int], ScenarioResult] = field(default_factory=dict)

    def table(self) -> str:
        return self.summary.table()


def _cell_spec(
    system: str,
    proto: str,
    size: int,
    win: Dict[str, float],
    overrides: Optional[dict],
) -> RunSpec:
    if proto == "tcp":
        factory = "sockperf"
        params = {"system": system, "proto": proto, "size": size}
    else:
        factory = "sockperf_loaded"
        params = {
            "system": system,
            "proto": proto,
            "size": size,
            "batch_size": UDP_MFLOW_BATCH if system == "mflow" else 256,
            "load_factor": UDP_LOAD_FACTOR,
        }
    if overrides:
        params["cost_overrides"] = overrides
    return RunSpec.make(
        factory,
        params,
        warmup_ns=win["warmup_ns"],
        measure_ns=win["measure_ns"],
        tags=(EXPERIMENT, proto, system, str(size)),
    )


def specs(
    quick: bool = False,
    costs: Optional[CostModel] = None,
    systems: Optional[List[str]] = None,
    message_sizes: Optional[List[int]] = None,
) -> List[RunSpec]:
    systems = systems if systems is not None else SYSTEMS
    message_sizes = message_sizes if message_sizes is not None else MESSAGE_SIZES
    win = windows(quick)
    overrides = costs_to_overrides(costs)
    return [
        _cell_spec(system, proto, size, win, overrides)
        for proto in ("tcp", "udp")
        for size in message_sizes
        for system in systems
    ]


def reduce(records: List[RunRecord]) -> Fig9Result:
    summary = ExperimentTable(
        "Fig 9: per-message latency under max pre-drop load (us)",
        ["proto", "msg_size", "system", "mean", "p50", "p99", "gbps"],
    )
    result = Fig9Result(summary=summary)
    for rec in records:
        proto, system, size = rec.params["proto"], rec.params["system"], rec.params["size"]
        res = rec.scenario_result()
        key = (proto, system, size)
        result.latencies[key] = res.latency
        result.raw[key] = res
        summary.add(
            proto,
            size_label(size),
            system,
            res.latency.mean_us,
            res.latency.p50_us,
            res.latency.p99_us,
            res.throughput_gbps,
        )
    summary.notes.append(
        "paper (TCP 64 KB): MFLOW cuts median ~46% and p99 ~21% vs vanilla overlay; "
        "a latency gap to native remains (longer overlay path)"
    )
    return result


def run(
    costs: Optional[CostModel] = None,
    quick: bool = False,
    systems: Optional[List[str]] = None,
    message_sizes: Optional[List[int]] = None,
    engine: Optional[RunEngine] = None,
) -> Fig9Result:
    return reduce(
        execute(EXPERIMENT, specs(quick, costs, systems, message_sizes), engine)
    )


def run_cell(
    system: str,
    proto: str,
    size: int,
    costs: Optional[CostModel] = None,
    quick: bool = False,
) -> ScenarioResult:
    """One figure cell, serial and in-process (the CLI's ``latency`` path)."""
    spec = _cell_spec(system, proto, size, windows(quick), costs_to_overrides(costs))
    [record] = run_specs(EXPERIMENT, [spec])
    return record.scenario_result()


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(run(quick=True).table())
