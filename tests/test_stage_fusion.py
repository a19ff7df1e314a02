"""Fused stage runs against stage-by-stage dispatch: an equivalence oracle.

A pure stage (see ``repro.netstack.stages.Stage``) lets the pipeline
charge it, the pure stages after it on the same core and one final stage
as a single fused work item with one wheel event.  Fusion must be
invisible: every scenario here runs twice, once as built and once with
every stage class's ``pure`` flag set to False (so every hop is its own
work item), and the two runs must agree on the whole benchmark payload
(events, counters, drops, throughput, latency, the exact histograms,
messages delivered) and on every core's per-tag busy time and item
count.

The cases cover each hot path and each reason a run falls back to per-stage
items or is cut short: drops inside a run, window boundaries inside a run
and zero jitter.  The runs that any option puts on the reference path (a
fault plan, a live migration, the flight recorder) are in
``tests/test_options.py``.
Every core, client machines' included, draws from its own jitter stream,
so receiver cores 0 and 1 fuse too (the MFLOW UDP case fuses on core 1).
"""

from __future__ import annotations

import pytest

from helpers import compare_unfused, fusion_payload, fuses, run_plans, stage_classes, unfuse
from repro.experiments.extensions import _mflow_scenario
from repro.netstack import stages as stage_module
from repro.netstack.costs import DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.workloads.memcached import build_memcached
from repro.workloads.multiflow import build_multiflow_scenario
from repro.workloads.sockperf import build_scenario

WINDOWS = {"warmup_ns": 300_000.0, "measure_ns": 1_000_000.0}
SEED = 5


def _compare(monkeypatch, build, run=lambda sc: sc.run(**WINDOWS)):
    """Run ``build()`` fused, then unfused; return the fused scenario."""
    return compare_unfused(monkeypatch, build, run)


HOT_PATHS = {
    "mflow_tcp64k": lambda: build_scenario("mflow", "tcp", 65536, seed=SEED),
    "mflow_udp64k": lambda: build_scenario("mflow", "udp", 65536, seed=SEED),
    "vanilla_tcp4k_x8": lambda: build_multiflow_scenario("vanilla", 8, 4096, seed=SEED),
    "falcon_tcp64k": lambda: build_scenario("falcon", "tcp", 65536, seed=SEED),
    "mflow_2readers": lambda: _mflow_scenario(2, [0, 13], seed=SEED),
}


@pytest.mark.parametrize("name", sorted(HOT_PATHS))
def test_hot_paths_match_stage_by_stage(monkeypatch, name):
    sc = _compare(monkeypatch, HOT_PATHS[name])
    if name == "mflow_2readers":
        # per-packet tcp_deliver routing: the route cache is not the
        # whole answer, so nothing may fuse
        assert not sc.policy.per_flow_routes and not fuses(sc)
    else:
        assert fuses(sc), "the case no longer exercises fusion"
    if name == "mflow_udp64k":
        # the device-split core runs skb_alloc .. mflow_split as one item
        assert sc.cpus[1] in {plan.core for plan in run_plans(sc) if plan is not None}


def test_two_stage_runs_match_stage_by_stage(monkeypatch):
    """Only skb allocation stays pure, so every run is the two-stage
    ``[skb_alloc, gro]`` (the shortest run that fuses), against
    stage-by-stage dispatch."""
    from repro.cpu.core import Core

    completed = []
    complete_run = Core._complete_run

    def counted(core, run):
        completed.append(len(run.durs))
        complete_run(core, run)

    with monkeypatch.context() as m:
        for cls in stage_classes():
            if cls.__dict__.get("pure") and cls is not stage_module.SkbAllocStage:
                m.setattr(cls, "pure", False)
        m.setattr(Core, "_complete_run", counted)
        sc = _compare(m, HOT_PATHS["vanilla_tcp4k_x8"])
    tags = {plan.tags for plan in run_plans(sc) if plan is not None}
    assert tags == {("skb_alloc", "gro")}
    # a horizon or a backlog cut may end a run after its first stage
    assert 2 in completed and set(completed) <= {1, 2}


class _CountCalls:
    def __init__(self, monkeypatch, cls, name):
        self.n = 0
        orig = getattr(cls, name)

        def counted(obj, *args):
            self.n += 1
            return orig(obj, *args)

        monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize(
    "build",
    [
        lambda costs: build_scenario("mflow", "udp", 65536, seed=SEED, costs=costs),
        lambda costs: build_multiflow_scenario("vanilla", 8, 4096, seed=SEED, costs=costs),
    ],
    ids=["mflow_udp", "vanilla_x8"],
)
def test_backlog_drops_inside_runs(monkeypatch, build):
    """A tiny backlog makes submissions fill the queue while runs hold
    their cores: each such run is cut at its next droppable stage, whose
    own dispatch then drops exactly what stage-by-stage dispatch drops."""
    costs = DEFAULT_COSTS.with_overrides(backlog_limit=4)
    cuts = _CountCalls(monkeypatch, Simulator, "_unsched")
    sc = _compare(monkeypatch, lambda: build(costs))
    assert cuts.n > 0, "no run was cut"
    dropped_inside = set(sc.pipeline.drops) - {"skb_alloc", "mflow_split"}
    assert dropped_inside, "no drop landed on a stage a run covers"


def _sliced(step_ns):
    """Run the scenario's two windows as many short ``run(until_ns)``
    calls, so horizons fall inside runs."""

    def run(sc):
        warmup, measure = WINDOWS["warmup_ns"], WINDOWS["measure_ns"]
        sc._begin_run(warmup, measure)
        t = 0.0
        while t < warmup:
            t = min(t + step_ns, warmup)
            sc.sim.run(until_ns=t)
        sc._begin_measure_window()
        while t < warmup + measure:
            t = min(t + step_ns, warmup + measure)
            sc.sim.run(until_ns=t)
        sc._run_phase = "done"
        return sc._collect(measure)

    return run


def test_window_boundaries_inside_runs(monkeypatch):
    """Each horizon truncates the runs in flight to the prefix that ends
    at or before it; sliced fused runs equal one unsliced plain run."""
    from repro.cpu.core import Core

    truncated = []
    orig = Core._start_run

    def start(core, run, paid=0.0):
        orig(core, run, paid)
        if len(run.durs) < len(run.costs):
            truncated.append(run)

    build = HOT_PATHS["vanilla_tcp4k_x8"]
    with monkeypatch.context() as m:
        m.setattr(Core, "_start_run", start)
        fused_sc = build()
        fused = fusion_payload(fused_sc, _sliced(3_217.0)(fused_sc))
    assert truncated, "no horizon fell inside a run"
    with monkeypatch.context() as m:
        unfuse(m)
        plain_sc = build()
        plain = fusion_payload(plain_sc, plain_sc.run(**WINDOWS))
    for key in plain:
        assert fused[key] == plain[key], key


WITH_CLIENTS = {
    "mflow_tcp64k": HOT_PATHS["mflow_tcp64k"],
    "mflow_udp64k": HOT_PATHS["mflow_udp64k"],
    "vanilla_tcp4k_x8": HOT_PATHS["vanilla_tcp4k_x8"],
    "memcached_mflow": lambda: build_memcached("mflow", 2, seed=SEED).scenario,
}


@pytest.mark.parametrize("name", sorted(WITH_CLIENTS))
def test_every_core_draws_its_own_jitter_stream(name):
    """Client machines name their own streams, so no buffer has two
    consumers and receiver cores 0 and 1 may fuse."""
    sc = WITH_CLIENTS[name]()
    clients = [c for s in sc._senders.values() for c in (s.app_core, s.kernel_core)]
    assert clients, "no client machine attached"
    cores = list(sc.cpus) + clients
    assert len({id(core._normals) for core in cores}) == len(cores)
    assert sc.cpus[0].fuses and sc.cpus[1].fuses


def test_zero_jitter_never_fuses(monkeypatch):
    """Without jitter, boundaries tie other events exactly, and a fused
    run's one entry would reorder those ties."""
    costs = DEFAULT_COSTS.with_overrides(core_jitter_sigma=0.0)
    sc = _compare(
        monkeypatch, lambda: build_multiflow_scenario("vanilla", 8, 4096, seed=SEED, costs=costs)
    )
    assert not fuses(sc)


def test_retiring_a_flow_cuts_its_runs(monkeypatch):
    """A flow retired while fused runs hold its packets: each run ends
    where stage-by-stage dispatch next reads the flow's routes, so the
    straggler's later stages take the re-placed routes either way."""
    from repro.cpu.core import Core

    cut = []
    cut_runs = Core.cut_runs

    def counted(core, holds):
        before = [(w, len(w.costs)) for w in core._queue if w.fused]
        ends = {fn.__self__: end for end, _, fn, _ in core.sim.entries()
                if fn == core._on_run_complete}
        cut_runs(core, holds)
        cut.extend(w for w, n in before if len(w.costs) < n)
        after = {fn.__self__: end for end, _, fn, _ in core.sim.entries()
                 if fn == core._on_run_complete}
        cut.extend(c for c in ends if after.get(c) != ends[c])

    def build():
        sc = build_multiflow_scenario("mflow", 4, 65536, seed=3)
        victim = next(iter(sc._senders))
        sc.sim.call_at(150_000.0, sc.retire_flow, victim)
        return sc

    monkeypatch.setattr(Core, "cut_runs", counted)
    sc = _compare(monkeypatch, build,
                  run=lambda sc: sc.run(warmup_ns=100_000.0, measure_ns=300_000.0))
    assert fuses(sc)
    assert cut, "the retirement cut no run"


def test_forget_flow_drops_the_cached_plan():
    sc = HOT_PATHS["vanilla_tcp4k_x8"]()
    sc.run(**WINDOWS)
    policy = sc.policy
    flow = next(f for f, by_stage in policy.run_plans.items()
                if any(p is not None for b in by_stage.values() for p in b.values()))
    assert flow in policy._routes
    policy._forget_flow(flow)
    assert flow not in policy.run_plans
    assert flow not in policy._routes


def test_stage_purity():
    """The pass-through devices, VxLAN decap and skb allocation are pure;
    stateful stages are not."""
    from repro.netstack.protocol.tcp import TcpReceiverStage
    from repro.overlay.devices import BridgeStage, VxlanDecapStage

    assert BridgeStage.pure and VxlanDecapStage.pure
    assert stage_module.SkbAllocStage.pure and stage_module.IpRcvStage.pure
    assert not stage_module.GroStage.pure and not TcpReceiverStage.pure
