"""Built-in scenario factories: named, parameterized simulator runs.

Each factory is a pure function of ``(params, seed, windows)`` returning
a JSON-safe measurement dict — the property the engine's cache and the
serial-vs-parallel determinism guarantee both rest on.  Workload modules
are imported here (never the other way around), so factories can be
resolved inside freshly spawned worker processes.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.netstack.costs import DEFAULT_COSTS, CostModel
from repro.workloads.options import KINDS, RunOptions


def costs_to_overrides(costs: Optional[CostModel]) -> Optional[Dict[str, Any]]:
    """Serialize a cost model into a spec-embeddable override dict."""
    if costs is None:
        return None
    return asdict(costs)


def costs_from_params(params: Dict[str, Any]) -> Optional[CostModel]:
    """Rebuild the cost model from ``params['cost_overrides']`` (or None)."""
    overrides = params.get("cost_overrides")
    if not overrides:
        return None
    int_fields = {
        name
        for name, f in CostModel.__dataclass_fields__.items()
        if f.type == "int" or isinstance(getattr(DEFAULT_COSTS, name), int)
    }
    clean = {
        k: (int(v) if k in int_fields and not isinstance(v, dict) else v)
        for k, v in overrides.items()
    }
    return DEFAULT_COSTS.with_overrides(**clean)


def _no_options(params: Dict[str, Any], factory: str) -> None:
    """Reject a spec whose params carry an option ``factory`` cannot apply,
    so no record claims a plan its run never had."""
    options = RunOptions.from_params(params)
    for key in KINDS:
        if getattr(options, key) is not None:
            raise ValueError(f"the {factory!r} factory takes no {key!r} option")


def _scenario_measurements(res) -> Dict[str, Any]:
    from repro.runner.records import scenario_result_to_dict

    return scenario_result_to_dict(res)


# ------------------------------------------------------------------ sockperf
def sockperf_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """One Fig. 4a / 8a cell: single-flow sockperf for one system."""
    from repro.workloads.sockperf import run_single_flow

    res = run_single_flow(
        params["system"],
        params["proto"],
        int(params["size"]),
        costs=costs_from_params(params),
        seed=seed,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        batch_size=int(params.get("batch_size", 256)),
        n_split_cores=int(params.get("n_split_cores", 2)),
        interval_ns=params.get("interval_ns"),
        options=RunOptions.from_params(params),
    )
    return _scenario_measurements(res)


def sockperf_loaded_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """One Fig. 9 open-loop cell: probe goodput capacity, then replay at
    ``load_factor`` of it and sample latency there (both phases inside one
    spec so the cell stays a pure function of its parameters).  Both
    phases run under the spec's options."""
    from repro.workloads.sockperf import CLIENTS, run_single_flow

    system = params["system"]
    proto = params["proto"]
    size = int(params["size"])
    batch = int(params.get("batch_size", 256))
    load_factor = float(params.get("load_factor", 0.9))
    costs = costs_from_params(params)
    options = RunOptions.from_params(params)
    probe = run_single_flow(
        system, proto, size, costs=costs, seed=seed,
        warmup_ns=warmup_ns, measure_ns=measure_ns, batch_size=batch,
        options=options,
    )
    cap = max(probe.throughput_gbps, 1e-3)
    per_client_gbps = cap * load_factor / CLIENTS[proto]
    interval_ns = size * 8.0 / per_client_gbps
    res = run_single_flow(
        system, proto, size, costs=costs, seed=seed,
        warmup_ns=warmup_ns, measure_ns=measure_ns, batch_size=batch,
        interval_ns=interval_ns, options=options,
    )
    out = _scenario_measurements(res)
    out["probe_gbps"] = cap
    out["events_executed"] += probe.events_executed
    return out


# ----------------------------------------------------------------- multiflow
def multiflow_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """One Fig. 10 / Fig. 12 cell: N concurrent overlay TCP flows."""
    from repro.workloads.multiflow import run_multiflow

    res = run_multiflow(
        params["system"],
        int(params["n_flows"]),
        int(params["size"]),
        costs=costs_from_params(params),
        seed=seed,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        placement=params.get("placement", "least-loaded"),
        options=RunOptions.from_params(params),
    )
    return _scenario_measurements(res)


# ----------------------------------------------------------------- memcached
def memcached_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """One Fig. 13 bar group: data-caching latency for one client count."""
    from repro.workloads.memcached import run_memcached

    from repro.runner.records import latency_to_dict

    _no_options(params, "memcached")
    res = run_memcached(
        params["system"],
        int(params["n_clients"]),
        costs=costs_from_params(params),
        seed=seed,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
    )
    return {
        "kind": "memcached",
        "system": res.system,
        "n_clients": res.n_clients,
        "latency": latency_to_dict(res.latency),
        "requests_per_sec": res.requests_per_sec,
        "cpu_utilization": list(res.cpu_utilization),
        "events_executed": res.events_executed,
    }


# ---------------------------------------------------------------- webserving
def webserving_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """One Fig. 11 system: CloudSuite Web Serving under N closed-loop users."""
    from repro.workloads.webserving import OP_TYPES, WebServingBenchmark

    _no_options(params, "webserving")
    bench = WebServingBenchmark(
        params["system"],
        n_users=int(params["n_users"]),
        costs=costs_from_params(params),
        seed=seed,
    )
    res = bench.run(warmup_ns=warmup_ns, measure_ns=measure_ns)
    per_op = {
        op.name: {
            "issued": res.per_op[op.name].issued,
            "completed": res.per_op[op.name].completed,
            "success": res.per_op[op.name].success,
            "success_per_sec": res.success_ops_per_sec(op.name),
            "mean_response_us": res.mean_response_us(op.name),
            "mean_delay_us": res.mean_delay_us(op.name),
        }
        for op in OP_TYPES
    }
    return {
        "kind": "webserving",
        "system": res.system,
        "n_users": res.n_users,
        "window_s": res.window_s,
        "per_op": per_op,
        "total_success_per_sec": res.total_success_per_sec(),
        "events_executed": bench.sim.events_executed,
    }


# -------------------------------------------------------------- test doubles
def _echo_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """Deterministic no-simulation factory for engine unit tests."""
    return {
        "kind": "echo",
        "value": params.get("value"),
        "seed": seed,
        "warmup_ns": warmup_ns,
        "measure_ns": measure_ns,
        "attempt": params.get("_attempt", 0),
        "pid": os.getpid(),
        "events_executed": 0,
    }


def _crashy_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """Dies (hard exit or exception) until attempt >= ``fail_attempts``."""
    attempt = int(params.get("_attempt", 0))
    if attempt < int(params.get("fail_attempts", 1)):
        if params.get("mode", "exit") == "exit":
            os._exit(17)
        raise RuntimeError("injected failure")
    return _echo_factory(params, seed, warmup_ns, measure_ns)


def _sleepy_factory(
    params: Dict[str, Any], seed: int, warmup_ns: float, measure_ns: float
) -> Dict[str, Any]:
    """Hangs for ``sleep_s`` until attempt >= ``hang_attempts``."""
    attempt = int(params.get("_attempt", 0))
    if attempt < int(params.get("hang_attempts", 1)):
        time.sleep(float(params.get("sleep_s", 60.0)))
    return _echo_factory(params, seed, warmup_ns, measure_ns)
