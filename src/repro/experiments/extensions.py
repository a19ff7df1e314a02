"""Beyond the paper: its stated future work, implemented.

The conclusion identifies two bottlenecks that stop a single flow from
scaling past ~30 Gbps: (1) the receiver's single data-copying thread and
(2) the sender. This experiment implements both remedies in the
simulator and reports how far packet-level parallelism then carries a
single TCP flow:

* **parallel delivery** — the copy-to-user stage alternates between
  multiple application reader threads (cores), chunk by chunk, applying
  MFLOW's own batching idea to the delivery stage;
* **wider splitting** — 3 branches × 2 pipelined cores instead of 2 × 2;
* **faster sender** — sender-side segmentation cost reduced (smarter
  TSO), relevant to the small-message regime the paper says is
  sender-bound.

Run: ``python -m repro.experiments.extensions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import MflowConfig
from repro.core.mflow import MflowPolicy
from repro.experiments.base import ExperimentTable, execute, windows
from repro.netstack.costs import CostModel
from repro.netstack.packet import Skb
from repro.overlay.topology import DatapathKind
from repro.runner import RunEngine, RunRecord, RunSpec
from repro.runner.factories import costs_from_params, costs_to_overrides
from repro.workloads.options import RunOptions
from repro.workloads.scenario import Scenario, ScenarioResult

EXPERIMENT = "extensions"

#: bytes each reader thread copies before the next thread takes over
COPY_CHUNK_BYTES = 64 * 1024

#: the staircase of configurations, in presentation order
CONFIGS: List[Dict[str, Any]] = [
    {"label": "paper mflow (2 branches, 1 reader)",
     "n_branches": 2, "reader_cores": [0], "fast_sender": False},
    {"label": "+ 2 reader threads",
     "n_branches": 2, "reader_cores": [0, 13], "fast_sender": False},
    {"label": "+ 3 branches, 2 readers",
     "n_branches": 3, "reader_cores": [0, 13], "fast_sender": False},
    {"label": "+ 3 branches, 3 readers",
     "n_branches": 3, "reader_cores": [0, 12, 13], "fast_sender": False},
    {"label": "+ faster sender",
     "n_branches": 3, "reader_cores": [0, 12, 13], "fast_sender": True},
]


class ParallelCopyMflowPolicy(MflowPolicy):
    """MFLOW plus N application reader threads sharing the copy stage.

    Delivery alternates between the reader cores in fixed byte chunks —
    per-chunk affinity keeps each reader's copies contiguous (userspace
    reassembles by offset, a receive-side analogue of micro-flows).
    """

    def __init__(self, cpus, config, reader_cores, **kw):
        if not reader_cores:
            raise ValueError("need at least one reader core")
        super().__init__(cpus, config, app_core=reader_cores[0], **kw)
        self.reader_cores = list(reader_cores)

    def core_for(self, stage_name, skb: Skb, from_core):
        if stage_name == "tcp_deliver" and len(self.reader_cores) > 1:
            chunk = skb.seq // COPY_CHUNK_BYTES
            idx = self.reader_cores[chunk % len(self.reader_cores)]
            return self.cpus[idx]
        return super().core_for(stage_name, skb, from_core)


def _mflow_scenario(
    n_branches: int,
    reader_cores,
    costs: Optional[CostModel] = None,
    n_cores: int = 14,
    seed: int = 0,
    options: RunOptions = RunOptions(),
) -> Scenario:
    alloc = list(range(2, 2 + n_branches))
    rest = list(range(2 + n_branches, 2 + 2 * n_branches))
    config = MflowConfig.full_path_tcp(alloc_cores=alloc, rest_cores=rest)
    sc = Scenario(
        DatapathKind.OVERLAY,
        "tcp",
        lambda cpus: ParallelCopyMflowPolicy(cpus, config, reader_cores),
        costs=costs,
        seed=seed,
        n_receiver_cores=n_cores,
        options=options,
    )
    sc.add_tcp_sender(64 * 1024)
    return sc


def extension_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """One staircase step: the paper's mflow baseline or an extended config."""
    from repro.runner.records import scenario_result_to_dict
    from repro.workloads.sockperf import run_single_flow

    costs = costs_from_params(params)
    if params.get("fast_sender"):
        base = costs if costs is not None else _default_costs()
        costs = base.with_overrides(
            send_per_seg_tcp_ns=base.send_per_seg_tcp_ns / 2,
            send_syscall_ns=base.send_syscall_ns / 2,
        )
    options = RunOptions.from_params(params)
    reader_cores = [int(c) for c in params["reader_cores"]]
    if int(params["n_branches"]) == 2 and reader_cores == [0]:
        # the paper's own configuration: plain single-reader MFLOW
        res = run_single_flow(
            "mflow", "tcp", 64 * 1024, costs=costs, seed=seed,
            warmup_ns=warmup_ns, measure_ns=measure_ns, options=options,
        )
    else:
        sc = _mflow_scenario(
            int(params["n_branches"]), reader_cores, costs=costs, seed=seed,
            options=options,
        )
        res = sc.run(warmup_ns=warmup_ns, measure_ns=measure_ns)
    return scenario_result_to_dict(res)


def _default_costs() -> CostModel:
    from repro.netstack.costs import DEFAULT_COSTS

    return DEFAULT_COSTS


@dataclass
class ExtensionsResult:
    summary: ExperimentTable
    raw: Dict[str, ScenarioResult] = field(default_factory=dict)

    def table(self) -> str:
        return self.summary.table()

    def gbps(self, label: str) -> float:
        return self.raw[label].throughput_gbps


def specs(
    quick: bool = False, costs: Optional[CostModel] = None
) -> List[RunSpec]:
    win = windows(quick)
    overrides = costs_to_overrides(costs)
    out: List[RunSpec] = []
    for cfg in CONFIGS:
        params = dict(cfg)
        if overrides:
            params["cost_overrides"] = overrides
        out.append(
            RunSpec.make(
                "mflow_extension",
                params,
                warmup_ns=win["warmup_ns"],
                measure_ns=win["measure_ns"],
                tags=(
                    EXPERIMENT,
                    f"{cfg['n_branches']}branches",
                    f"{len(cfg['reader_cores'])}readers",
                ),
            )
        )
    return out


def reduce(records: List[RunRecord]) -> ExtensionsResult:
    summary = ExperimentTable(
        "Future-work extensions: single TCP flow beyond the paper's 30 Gbps",
        ["configuration", "gbps", "bottleneck"],
    )
    result = ExtensionsResult(summary=summary)
    for rec in records:
        label = rec.params["label"]
        res = rec.scenario_result()
        result.raw[label] = res
        hottest = max(
            range(len(res.cpu_utilization)), key=res.cpu_utilization.__getitem__
        )
        summary.add(
            label,
            res.throughput_gbps,
            f"core{hottest} {res.cpu_utilization[hottest] * 100:.0f}%",
        )
    summary.notes.append(
        "paper §VII: the single data-copying thread and the sender are the next "
        "bottlenecks; parallelizing delivery lets wider splitting keep scaling"
    )
    return result


def run(
    costs: Optional[CostModel] = None,
    quick: bool = False,
    engine: Optional[RunEngine] = None,
) -> ExtensionsResult:
    return reduce(execute(EXPERIMENT, specs(quick, costs), engine))


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(run(quick=True).table())
