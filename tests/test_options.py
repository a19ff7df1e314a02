"""One run's options: ``repro.workloads.options.RunOptions``.

* An inert value of each option (``None``, ``FaultPlan()``, the named
  ``clean`` plan, ``MigrationPlan()``, no obs config) is no option: the
  run keeps its fused stage runs and lazy NIC arrivals, and its record is
  byte-identical to a run with no options, whether the option comes
  through a builder or through a spec's params.
* Each attached option puts the run on the reference path
  (``Pipeline.reference_path``): the run matches stage-by-stage dispatch
  and fuses nothing, and every frame that lands in an RX ring took its
  own wheel entry.
* A factory applies the options its spec carries, or refuses the spec.
"""

from __future__ import annotations

import json

import pytest

from helpers import compare_unfused, fuses
from repro.faults.plan import PLANS as FAULT_PLANS
from repro.faults.plan import FaultPlan
from repro.migration.plan import PLANS as MIGRATION_PLANS
from repro.migration.plan import MigrationPlan
from repro.netstack.nic import Nic, _RxQueue
from repro.obs.config import ObsConfig
from repro.runner.factories import (
    memcached_factory,
    multiflow_factory,
    sockperf_factory,
    sockperf_loaded_factory,
    webserving_factory,
)
from repro.workloads.multiflow import build_multiflow_scenario
from repro.workloads.options import RunOptions
from repro.workloads.sockperf import build_scenario

WINDOWS = {"warmup_ns": 300_000.0, "measure_ns": 1_000_000.0}
#: long enough for a flow to be quarantined and for a cutover to finish
LONG = {"warmup_ns": 1_000_000.0, "measure_ns": 3_000_000.0}
SEED = 5
CELL = {"system": "mflow", "proto": "tcp", "size": 65536}

INERT = {
    "faults=None": {"faults": None},
    "faults=FaultPlan()": {"faults": FaultPlan()},
    "faults=clean": {"faults": FAULT_PLANS["clean"]},
    "migration=None": {"migration": None},
    "migration=MigrationPlan()": {"migration": MigrationPlan()},
    "obs=None": {"obs": None},
}


def _record(measurements) -> str:
    return json.dumps(measurements, sort_keys=True)


@pytest.fixture(scope="module")
def plain_record():
    return _record(sockperf_factory(CELL, SEED, **WINDOWS))


@pytest.mark.parametrize("name", sorted(INERT))
def test_inert_option_is_no_option(name, plain_record):
    kwargs = INERT[name]
    options = RunOptions(**kwargs)
    assert options == RunOptions() and not options.reference_path
    sc = build_scenario("mflow", "tcp", 65536, seed=SEED, options=options)
    assert not sc.pipeline.reference_path
    sc.run(**WINDOWS)
    assert fuses(sc), "an inert option gave up fused runs"
    # the same value, carried in a spec's params
    params = {k: None if v is None else v.to_dict() for k, v in kwargs.items()}
    assert _record(sockperf_factory({**CELL, **params}, SEED, **WINDOWS)) == plain_record


def _quarantined(sc):
    assert sc.telemetry.get("mflow_degraded") > 0, "no flow was quarantined"


def _migrated(sc):
    assert sc.migration.restore_ns is not None, "the migration never completed"


def _recorded(sc):
    assert sc.recorder.events_seen > 0 and sc.recorder.journeys.n_journeys > 0


#: option -> (scenario builder, windows, what the run must show)
ATTACHED = {
    # quarantine and readmission re-route a flow mid-run, and the
    # conservation watchdog reads counters mid-run
    "faults": (
        lambda: build_scenario(
            "mflow", "udp", 16384, seed=0, options=RunOptions(faults=FAULT_PLANS["loss1"])
        ),
        LONG,
        _quarantined,
    ),
    # the cutover re-routes flows mid-run
    "migration": (
        lambda: build_scenario(
            "mflow", "tcp", 65536, seed=SEED,
            options=RunOptions(migration=MIGRATION_PLANS["default"]),
        ),
        LONG,
        _migrated,
    ),
    # the flight recorder and its journeys see every frame, span and queue entry
    "obs": (
        lambda: build_multiflow_scenario(
            "vanilla", 8, 4096, seed=SEED, options=RunOptions(obs=ObsConfig())
        ),
        WINDOWS,
        _recorded,
    ),
}


@pytest.mark.parametrize("name", sorted(ATTACHED))
def test_option_takes_the_reference_path(monkeypatch, name):
    build, windows, check = ATTACHED[name]
    entries, landings = [], []
    receive, land = Nic.receive, _RxQueue.receive

    def entry(nic, pkt):
        entries.append(pkt)
        receive(nic, pkt)

    def landed(queue, pkt):
        landings.append(pkt)
        land(queue, pkt)

    monkeypatch.setattr(Nic, "receive", entry)
    monkeypatch.setattr(_RxQueue, "receive", landed)
    sc = compare_unfused(monkeypatch, build, lambda sc: sc.run(**windows))
    assert sc.options.reference_path and sc.pipeline.reference_path
    assert not fuses(sc)
    # one wheel entry per frame: every landing is a frame's own arrival
    assert landings and len(entries) == len(landings)
    check(sc)


class TestFactoriesApplyTheirOptions:
    """A spec's options enter its key, so a factory that dropped them
    would cache a record claiming a plan its run never had."""

    def test_multiflow_runs_its_migration(self):
        params = {
            "system": "mflow", "n_flows": 2, "size": 65536,
            "migration": MIGRATION_PLANS["default"].to_dict(),
        }
        out = multiflow_factory(params, SEED, **LONG)
        assert out["migration"]["phase"] == "restored"
        assert out["migration"]["flows_repointed"] == 2

    def test_loaded_sockperf_runs_its_fault_plan(self):
        params = {**CELL, "proto": "udp", "size": 16384, "faults": FAULT_PLANS["loss1"].to_dict()}
        out = sockperf_loaded_factory(params, SEED, **WINDOWS)
        assert out["fault_plan"] == "loss1"
        assert out["fault_counters"]["fault_lost_frames"] > 0

    @pytest.mark.parametrize("factory,params", [
        (memcached_factory, {"system": "mflow", "n_clients": 1}),
        (webserving_factory, {"system": "mflow", "n_users": 2}),
    ])
    def test_factories_without_options_refuse_them(self, factory, params):
        with pytest.raises(ValueError, match="'faults'"):
            factory({**params, "faults": FAULT_PLANS["loss1"].to_dict()}, SEED, **WINDOWS)
        with pytest.raises(ValueError, match="'obs'"):
            factory({**params, "obs": ObsConfig().to_dict()}, SEED, **WINDOWS)
        # an inert plan is no option, so there is nothing to refuse
        factory({**params, "faults": FaultPlan().to_dict()}, SEED, 10_000.0, 10_000.0)
