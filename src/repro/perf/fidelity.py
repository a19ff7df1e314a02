"""Paper-fidelity scoreboard.

``repro fidelity`` runs the figure modules on reduced measurement
windows and scores each reproduced *headline number* against the paper's
reported value inside an explicit tolerance band.  The point is to make
drift in correctness as visible per PR as drift in speed: a refactor
that keeps the tests green but quietly halves MFLOW's speedup now fails
a named check with the paper value printed next to the observed one.

Checks score **ratios** (speedups, orderings, decay factors) rather than
absolute Gbps: absolutes are calibrated through a single anchor
(DESIGN.md §1) and shift with windows, while the paper's claims — who
wins, by what factor, where crossovers fall — are scale-free and stable
down to the reduced windows used here.  Bands encode "the claim still
reproduces", not "the number is frozen"; EXPERIMENTS.md records the
exact full-window values.  A claim with one side only ("MFLOW beats
native") leaves the other side of its band open, and a strict
inequality keeps its bound out of the band (:func:`_over`/:func:`_under`).

Split into a pure scoring core (:func:`score` on a
:class:`FidelityInputs`) and a simulation step (:func:`collect_inputs`),
so the band logic is unit-testable on synthetic inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

FIDELITY_SCHEMA_VERSION = 2

INF = math.inf


# --------------------------------------------------------------------- inputs
@dataclass
class FidelityInputs:
    """The reproduced quantities the checks read, by name.

    Names are ``<figure>.<cell>...``: ``fig8.tcp.mflow`` is fig8's 64 KB
    TCP MFLOW throughput in Gbps, ``fig13.mflow.p99_us`` its 10-client
    memcached p99.  A missing name reads 0, which fails its check.
    """

    values: Dict[str, float] = field(default_factory=dict)

    def get(self, name: Optional[str]) -> float:
        return self.values.get(name, 0.0) if name else 0.0


def collect_inputs(quick: bool = True, seed: int = 0) -> FidelityInputs:
    """Run the figure modules on the cells the checks read.

    Each figure runs serially on its own ``run`` with the engine's global
    seed set to ``seed``; a cell's seed derives from its spec alone, so
    every value equals the same cell of a full figure run.
    """
    from repro.experiments import (
        extensions,
        fig4_motivation,
        fig7_batch_size,
        fig8_throughput,
        fig9_latency,
        fig10_multiflow,
        fig11_webserving,
        fig12_cpu_balance,
        fig13_memcached,
    )
    from repro.runner import RunEngine

    engine = RunEngine(jobs=1, results_dir=None, global_seed=seed)
    v: Dict[str, float] = {}

    fig4 = fig4_motivation.run(
        quick=quick, systems=["native", "vanilla", "rps", "falcon-dev", "falcon-fun"],
        message_sizes=[65536], engine=engine,
    )
    for proto, by_system in fig4.raw.items():
        for system, cells in by_system.items():
            v[f"fig4.{proto}.{system}"] = cells[65536].throughput_gbps

    fig7 = fig7_batch_size.run(quick=quick, batch_sizes=[1, 256, 1024], engine=engine)
    for batch, res in fig7.raw.items():
        v[f"fig7.ooo.{batch}"] = fig7.ooo_packets[batch]
        v[f"fig7.gbps.{batch}"] = res.throughput_gbps

    fig8 = fig8_throughput.run(quick=quick, message_sizes=[65536], engine=engine)
    for proto, by_system in fig8.raw.items():
        for system, cells in by_system.items():
            v[f"fig8.{proto}.{system}"] = cells[65536].throughput_gbps
    v["fig8.breakdown_tables"] = len(fig8.cpu_tables)

    fig9 = fig9_latency.run(
        quick=quick, systems=["vanilla", "falcon", "mflow"], message_sizes=[65536],
        engine=engine,
    )
    for (proto, system, _), lat in fig9.latencies.items():
        v[f"fig9.{proto}.{system}.p50_us"] = lat.p50_us
        v[f"fig9.{proto}.{system}.p99_us"] = lat.p99_us

    fig10 = fig10_multiflow.run(
        quick=quick, flow_counts=[1, 5, 10], message_sizes=[16, 65536], engine=engine
    )
    for n in (1, 5):
        v[f"fig10.mflow.16.{n}"] = fig10.gbps("mflow", 16, n)
    for n in (1, 10):
        v[f"fig10.lead.{n}"] = _ratio(
            fig10.gbps("mflow", 65536, n), fig10.gbps("vanilla", 65536, n)
        )

    fig11 = fig11_webserving.run(
        quick=quick, n_users=200, systems=["vanilla", "mflow"], engine=engine
    )
    for system, res in fig11.raw.items():
        v[f"fig11.{system}.success_per_s"] = res.total_success_per_sec()
        v[f"fig11.{system}.browse_us"] = res.mean_response_us("browse")

    fig12 = fig12_cpu_balance.run(quick=quick, systems=["falcon", "mflow"], engine=engine)
    for system, std in fig12.stddev.items():
        v[f"fig12.{system}.util_std"] = std

    fig13 = fig13_memcached.run(quick=quick, client_counts=[10], engine=engine)
    for (system, _), res in fig13.raw.items():
        v[f"fig13.{system}.mean_us"] = res.latency.mean_us
        v[f"fig13.{system}.p99_us"] = res.latency.p99_us

    ext = extensions.run(quick=quick, engine=engine)
    v["ext.paper_config"] = ext.gbps("paper mflow (2 branches, 1 reader)")
    v["ext.faster_sender"] = ext.gbps("+ faster sender")
    return FidelityInputs({name: float(value) for name, value in v.items()})


# --------------------------------------------------------------------- checks
def _over(x: float) -> float:
    """The least band bound that excludes ``x``: ``observed > x``."""
    return math.nextafter(x, INF)


def _under(x: float) -> float:
    """The greatest band bound that excludes ``x``: ``observed < x``."""
    return math.nextafter(x, -INF)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else float("nan")


#: how a check turns its two inputs into the scored number
FORMS = {
    "ratio": _ratio,
    "cut": lambda num, den: 1.0 - _ratio(num, den),
    "excess": lambda num, den: num - den,
    # a decay factor whose denominator may legitimately reach zero
    "decay": lambda num, den: num / max(1.0, den),
    "value": lambda num, den: num,
}


def classify(observed: float, band_lo: float, band_hi: float) -> str:
    """``pass`` inside the closed band, ``fail`` outside (NaN always fails)."""
    if observed != observed:  # NaN
        return "fail"
    return "pass" if band_lo <= observed <= band_hi else "fail"


def _bound(x: float) -> Optional[float]:
    """A number for JSON: a non-finite one (an open band side) is ``null``."""
    return x if math.isfinite(x) else None


@dataclass
class FidelityCheck:
    """One scored headline number: ``FORMS[form](num, den)`` in the band."""

    name: str
    figure: str
    description: str
    paper: Optional[float]     # the paper's value of the same ratio, if it gives one
    band_lo: float
    band_hi: float
    form: str = "ratio"
    num: str = ""
    den: Optional[str] = None
    observed: Optional[float] = None
    status: str = "pending"

    def score(self, observed: float) -> "FidelityCheck":
        self.observed = observed
        self.status = classify(observed, self.band_lo, self.band_hi)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "figure": self.figure,
            "description": self.description,
            "paper": self.paper,
            "band": [_bound(self.band_lo), _bound(self.band_hi)],
            # a missing or zero denominator scores NaN, which is not JSON
            "observed": None if self.observed is None else _bound(self.observed),
            "status": self.status,
        }


def _num(x: Optional[float], spec: str = "{:.2f}") -> str:
    return "–" if x is None else spec.format(x)


@dataclass
class Scoreboard:
    """All checks of one fidelity run."""

    checks: List[FidelityCheck] = field(default_factory=list)
    quick: bool = True
    seed: int = 0

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if c.status != "pass")

    def exit_code(self) -> int:
        return 0 if self.all_pass else 1

    def report(self) -> str:
        lines = [
            f"{'check':<30} {'fig':<6} {'paper':>7} {'observed':>9} "
            f"{'band':>16} {'status':>7}",
            "-" * 80,
        ]
        for c in self.checks:
            lines.append(
                f"{c.name:<30} {c.figure:<6} {_num(c.paper):>7} {_num(c.observed):>9} "
                f"[{c.band_lo:6.2f},{c.band_hi:6.2f}] {c.status:>7}"
            )
        verdict = "ALL PASS" if self.all_pass else f"{self.n_failed} FAILED"
        lines.append("-" * 80)
        lines.append(
            f"{len(self.checks) - self.n_failed}/{len(self.checks)} "
            f"headline numbers in band — {verdict}"
        )
        return "\n".join(lines)

    def markdown(self) -> str:
        lines = [
            "# Paper-fidelity scoreboard",
            "",
            f"Windows: {'quick' if self.quick else 'full'} · seed {self.seed} · "
            f"{len(self.checks) - self.n_failed}/{len(self.checks)} checks in band",
            "",
            "| check | figure | claim | paper | observed | band | status |",
            "|---|---|---|---|---|---|---|",
        ]
        for c in self.checks:
            mark = "✓" if c.status == "pass" else "✗"
            lines.append(
                f"| `{c.name}` | {c.figure} | {c.description} | {_num(c.paper)} | "
                f"{_num(c.observed)} | [{c.band_lo:.2f}, {c.band_hi:.2f}] | "
                f"{mark} {c.status} |"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": FIDELITY_SCHEMA_VERSION,
            "kind": "repro-fidelity",
            "quick": self.quick,
            "seed": self.seed,
            "all_pass": self.all_pass,
            "checks": [c.to_dict() for c in self.checks],
        }

    def write_json(self, path: Path) -> Path:
        from repro.resilience.atomic import atomic_write_json

        return atomic_write_json(path, self.to_json_dict(), trailing_newline=True)

    def write_markdown(self, path: Path) -> Path:
        from repro.resilience.atomic import atomic_write_text

        return atomic_write_text(path, self.markdown())


#: every headline check, unscored.  Two-sided bands are centred on the
#: full-window measurements in EXPERIMENTS.md with room for reduced-window
#: drift; every band still excludes "the claim no longer holds" (a speedup
#: band never reaches 1.0).
CHECKS = [
    FidelityCheck("fig4_tcp_overlay_penalty", "fig4a",
        "vanilla overlay below native, TCP 64 KB (paper −40%)",
        0.60, -INF, _under(1.0), "ratio", "fig4.tcp.vanilla", "fig4.tcp.native"),
    FidelityCheck("fig4_udp_overlay_penalty", "fig4a",
        "vanilla overlay below native, UDP 64 KB (paper −80%)",
        0.20, -INF, _under(1.0), "ratio", "fig4.udp.vanilla", "fig4.udp.native"),
    FidelityCheck("fig4_rps_vanilla_tcp", "fig4a",
        "RPS beats vanilla, TCP 64 KB (paper +24%)",
        1.24, _over(1.0), INF, "ratio", "fig4.tcp.rps", "fig4.tcp.vanilla"),
    FidelityCheck("fig4_falcondev_vanilla_udp", "fig4a",
        "FALCON-dev over vanilla, UDP 64 KB (paper ~+80%)",
        1.80, _over(1.3), INF, "ratio", "fig4.udp.falcon-dev", "fig4.udp.vanilla"),
    FidelityCheck("fig4_falconfun_rps_tcp", "fig4a",
        "FALCON-fun beats RPS, TCP 64 KB (paper ~+20%)",
        1.20, _over(1.0), INF, "ratio", "fig4.tcp.falcon-fun", "fig4.tcp.rps"),
    FidelityCheck("ooo_batch_decay", "fig7",
        "merge-queue switches, batch 1 vs 256",
        None, _over(10.0), 400.00, "decay", "fig7.ooo.1", "fig7.ooo.256"),
    FidelityCheck("ooo_batch_256_vs_1024", "fig7",
        "merge-queue switches keep falling past batch 256 (excess over 1024)",
        None, 0.0, INF, "excess", "fig7.ooo.256", "fig7.ooo.1024"),
    FidelityCheck("batch_throughput", "fig7",
        "batch 256 outruns batch 1 (per-packet steering cost)",
        None, _over(1.0), INF, "ratio", "fig7.gbps.256", "fig7.gbps.1"),
    FidelityCheck("mflow_vanilla_tcp", "fig8a",
        "MFLOW/vanilla TCP 64 KB speedup (paper +81%)",
        1.81, _over(1.50), 2.80, "ratio", "fig8.tcp.mflow", "fig8.tcp.vanilla"),
    FidelityCheck("mflow_vanilla_udp", "fig8a",
        "MFLOW/vanilla UDP 64 KB speedup (paper +139%)",
        2.39, _over(1.80), 3.20, "ratio", "fig8.udp.mflow", "fig8.udp.vanilla"),
    FidelityCheck("mflow_native_tcp", "fig8a",
        "MFLOW beats native for TCP (paper 29.8 vs 26.6 Gbps)",
        1.12, _over(1.00), 1.35, "ratio", "fig8.tcp.mflow", "fig8.tcp.native"),
    FidelityCheck("mflow_falcon_tcp", "fig8a",
        "MFLOW/FALCON TCP 64 KB speedup (paper +22%)",
        1.22, 1.05, 1.90, "ratio", "fig8.tcp.mflow", "fig8.tcp.falcon"),
    FidelityCheck("mflow_falcon_udp", "fig8a",
        "MFLOW beats FALCON, UDP 64 KB (paper +21%)",
        1.21, _over(1.0), INF, "ratio", "fig8.udp.mflow", "fig8.udp.falcon"),
    FidelityCheck("udp_mflow_below_native", "fig8a",
        "UDP MFLOW stays below native — clients bottleneck first",
        0.93, 0.55, _under(1.00), "ratio", "fig8.udp.mflow", "fig8.udp.native"),
    FidelityCheck("cpu_breakdown_tables", "fig8b",
        "per-core MFLOW breakdown produced for TCP and UDP",
        2.0, 2.0, 2.0, "value", "fig8.breakdown_tables", None),
    FidelityCheck("latency_vanilla_mflow", "fig9",
        "vanilla/MFLOW TCP p99 at saturation — MFLOW drains its window",
        None, 2.00, 30.00, "ratio", "fig9.tcp.vanilla.p99_us", "fig9.tcp.mflow.p99_us"),
    FidelityCheck("latency_p50_vanilla_mflow", "fig9",
        "vanilla/MFLOW TCP p50 (paper median −46%)",
        1.85, _over(1.0), INF, "ratio", "fig9.tcp.vanilla.p50_us", "fig9.tcp.mflow.p50_us"),
    FidelityCheck("latency_p50_falcon_mflow", "fig9",
        "FALCON/MFLOW TCP p50 — MFLOW's median is the lower",
        None, _over(1.0), INF, "ratio", "fig9.tcp.falcon.p50_us", "fig9.tcp.mflow.p50_us"),
    FidelityCheck("latency_udp_p50_vanilla_mflow", "fig9",
        "vanilla/MFLOW UDP p50 at 90% of capacity",
        None, _over(1.0), INF, "ratio", "fig9.udp.vanilla.p50_us", "fig9.udp.mflow.p50_us"),
    FidelityCheck("multiflow_16b_scaling", "fig10",
        "MFLOW 16 B, 5 flows over 1 — client-bound, scales linearly",
        5.0, _over(4.0), INF, "ratio", "fig10.mflow.16.5", "fig10.mflow.16.1"),
    FidelityCheck("multiflow_lead_1flow", "fig10",
        "MFLOW/vanilla 64 KB at 1 flow (paper +81%)",
        1.81, _over(1.3), INF, "value", "fig10.lead.1", None),
    FidelityCheck("multiflow_lead_narrows", "fig10",
        "MFLOW's 64 KB lead at 10 flows over its lead at 1 — contention narrows it",
        None, -INF, _under(1.0), "ratio", "fig10.lead.10", "fig10.lead.1"),
    FidelityCheck("webserving_success", "fig11",
        "MFLOW/vanilla successful ops/s, 200 users (paper 2.3–7.5× per op)",
        None, _over(1.8), INF, "ratio", "fig11.mflow.success_per_s",
        "fig11.vanilla.success_per_s"),
    FidelityCheck("webserving_browse_response", "fig11",
        "MFLOW/vanilla browse response time (paper −35…−65%)",
        None, -INF, _under(0.75), "ratio", "fig11.mflow.browse_us", "fig11.vanilla.browse_us"),
    FidelityCheck("multiflow_balance", "fig12",
        "FALCON/MFLOW kernel-pool utilization std (paper 20.5 vs 11.6)",
        1.77, 1.02, 2.50, "ratio", "fig12.falcon.util_std", "fig12.mflow.util_std"),
    FidelityCheck("memcached_p99_cut", "fig13",
        "MFLOW p99 reduction at 10 clients (paper −47%)",
        0.47, _over(0.30), 0.75, "cut", "fig13.mflow.p99_us", "fig13.vanilla.p99_us"),
    FidelityCheck("memcached_mean_cut", "fig13",
        "MFLOW mean reduction at 10 clients (paper −48%)",
        0.48, _over(0.30), INF, "cut", "fig13.mflow.mean_us", "fig13.vanilla.mean_us"),
    FidelityCheck("memcached_mean_falcon", "fig13",
        "MFLOW/FALCON mean at 10 clients — MFLOW at or below FALCON",
        None, -INF, 1.05, "ratio", "fig13.mflow.mean_us", "fig13.falcon.mean_us"),
    FidelityCheck("extensions_future_work", "ext",
        "parallel readers + faster sender over the paper config (§VII)",
        None, _over(1.1), INF, "ratio", "ext.faster_sender", "ext.paper_config"),
]


def score(inputs: FidelityInputs, quick: bool = True, seed: int = 0) -> Scoreboard:
    """Score every headline check against its tolerance band (pure)."""
    checks = [
        replace(c).score(FORMS[c.form](inputs.get(c.num), inputs.get(c.den)))
        for c in CHECKS
    ]
    return Scoreboard(checks, quick=quick, seed=seed)


def run_fidelity(quick: bool = True, seed: int = 0) -> Scoreboard:
    """Collect + score: the ``repro fidelity`` entry point."""
    return score(collect_inputs(quick=quick, seed=seed), quick=quick, seed=seed)
