"""Structured run artifacts.

A :class:`RunRecord` is the JSON-serializable outcome of executing one
:class:`~repro.runner.spec.RunSpec`: the spec identity, the measurements
the factory produced, execution metadata (wall time, simulator events,
attempts), and an error field for runs that failed after retry.  Records
are what the engine caches, what ``results/<experiment>/`` stores on
disk, and what experiment ``reduce`` functions consume.

Measurement payloads are plain dicts; the helpers here convert the
simulator's result objects to and from that form so reducers can keep
working with the familiar :class:`ScenarioResult` API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.metrics.summary import LatencySummary
from repro.workloads.scenario import ScenarioResult

from repro.runner.spec import RunSpec


# ------------------------------------------------------- result serialization
def latency_to_dict(latency: LatencySummary) -> Dict[str, float]:
    return latency.to_dict()


def latency_from_dict(data: Dict[str, float]) -> LatencySummary:
    return LatencySummary.from_dict(data)


def scenario_result_to_dict(res: ScenarioResult) -> Dict[str, Any]:
    """Flatten a :class:`ScenarioResult` into a JSON-safe measurement dict.

    The ``obs`` payload is included only when the run was instrumented, so
    uninstrumented measurement dicts are byte-identical to pre-obs builds
    (cache-key and result-hash stability).
    """
    out = {
        "kind": "scenario",
        "throughput_gbps": res.throughput_gbps,
        "messages_delivered": res.messages_delivered,
        "latency": latency_to_dict(res.latency),
        "cpu_utilization": list(res.cpu_utilization),
        "cpu_breakdown": [dict(b) for b in res.cpu_breakdown],
        "counters": dict(res.counters),
        "drops": dict(res.drops),
        "ooo_arrivals": res.ooo_arrivals,
        "window_ns": res.window_ns,
        "events_executed": res.events_executed,
        "fault_plan": res.fault_plan,
        "fault_counters": dict(res.fault_counters),
        "degradation_events": [dict(e) for e in res.degradation_events],
        "conservation_checks": res.conservation_checks,
        "conservation_violations": res.conservation_violations,
    }
    if res.obs is not None:
        out["obs"] = dict(res.obs)
    if res.migration is not None:
        out["migration"] = dict(res.migration)
    if res.health_counts:
        out["health_counts"] = {k: dict(v) for k, v in res.health_counts.items()}
    if res.hist is not None:
        out["hist"] = dict(res.hist)
    return out


def scenario_result_from_dict(data: Dict[str, Any]) -> ScenarioResult:
    return ScenarioResult(
        throughput_gbps=float(data["throughput_gbps"]),
        messages_delivered=int(data["messages_delivered"]),
        latency=latency_from_dict(data["latency"]),
        cpu_utilization=[float(u) for u in data["cpu_utilization"]],
        cpu_breakdown=[dict(b) for b in data["cpu_breakdown"]],
        counters={k: int(v) for k, v in data.get("counters", {}).items()},
        drops={k: int(v) for k, v in data.get("drops", {}).items()},
        ooo_arrivals=int(data.get("ooo_arrivals", 0)),
        window_ns=float(data.get("window_ns", 0.0)),
        events_executed=int(data.get("events_executed", 0)),
        fault_plan=str(data.get("fault_plan", "")),
        fault_counters={
            k: int(v) for k, v in data.get("fault_counters", {}).items()
        },
        degradation_events=[dict(e) for e in data.get("degradation_events", [])],
        conservation_checks=int(data.get("conservation_checks", 0)),
        conservation_violations=int(data.get("conservation_violations", 0)),
        obs=data.get("obs"),
        migration=data.get("migration"),
        health_counts={
            k: dict(v) for k, v in data.get("health_counts", {}).items()
        },
        hist=data.get("hist"),
    )


# --------------------------------------------------------------- run records
@dataclass
class RunRecord:
    """Everything one executed (or cached, or failed) spec leaves behind."""

    spec_key: str
    factory: str
    params: Dict[str, Any]
    tags: List[str]
    seed: int                    # effective (derived) scenario seed
    global_seed: int
    warmup_ns: float
    measure_ns: float
    code_version: str = ""
    experiment: str = ""
    measurements: Optional[Dict[str, Any]] = None
    wall_time_s: float = 0.0
    events_executed: int = 0
    events_per_sec: float = 0.0
    attempts: int = 1
    cached: bool = False
    error: Optional[str] = None
    timeout_s: Optional[float] = None
    #: whether ``timeout_s`` was actually enforced (a worker past the cap
    #: gets killed) or merely recorded.  In-process execution — the local
    #: executor, or a socket pool degraded to it — has no hang
    #: protection, and its records say so instead of implying it.
    timeout_enforced: Optional[bool] = None
    retries: List[Dict[str, Any]] = field(default_factory=list)
    checkpoint_restores: int = 0
    quarantined: bool = False
    #: identity of the pool runner that executed the cell (socket
    #: executor; None for local/process execution)
    runner: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.measurements is not None

    # ------------------------------------------------------------ accessors
    def scenario_result(self) -> ScenarioResult:
        """Reconstruct the :class:`ScenarioResult` for scenario-kind records."""
        if not self.ok:
            raise ValueError(f"record {self.spec_key[:16]} failed: {self.error}")
        assert self.measurements is not None
        if self.measurements.get("kind") != "scenario":
            raise ValueError(
                f"record {self.spec_key[:16]} holds "
                f"{self.measurements.get('kind')!r} measurements, not a scenario"
            )
        return scenario_result_from_dict(self.measurements)

    def latency(self) -> LatencySummary:
        assert self.measurements is not None
        return latency_from_dict(self.measurements["latency"])

    def progress_payload(self) -> Dict[str, Any]:
        """The completion progress block journaled on v2 ``spec`` entries.

        Consumed by ``repro top`` / ``repro metrics`` via the journal, so
        keys here are part of the journal schema (see OBSERVABILITY.md).
        """
        progress: Dict[str, Any] = {
            "events_executed": self.events_executed,
            "events_per_sec": round(self.events_per_sec, 1),
        }
        measurements = self.measurements or {}
        if measurements.get("window_ns"):
            progress["sim_ns"] = measurements["window_ns"]
        return progress

    # -------------------------------------------------------------- JSON IO
    def to_json_dict(self) -> Dict[str, Any]:
        """The record's fields in declaration order.

        Every field already holds plain JSON values, so this is a shallow
        view, not a copy: the dict shares the record's containers.
        """
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def to_json_bytes(self) -> bytes:
        """The record as compact JSON: the one serialised form written
        both to the result cache and to ``runs/<key16>.json``."""
        return json.dumps(self.to_json_dict()).encode("utf-8")

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(**data)

    @classmethod
    def for_spec(
        cls, spec: RunSpec, global_seed: int, experiment: str = "", code_version: str = ""
    ) -> "RunRecord":
        """An empty record pre-filled with the spec's identity."""
        return cls(
            spec_key=spec.key,
            factory=spec.factory,
            params=spec.params_dict(),
            tags=list(spec.tags),
            seed=spec.derived_seed(global_seed),
            global_seed=global_seed,
            warmup_ns=spec.warmup_ns,
            measure_ns=spec.measure_ns,
            experiment=experiment,
            code_version=code_version,
        )


_FIELD_NAMES = tuple(f.name for f in fields(RunRecord))
