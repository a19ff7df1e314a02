"""Pinned simulated-timeline digests for the stage-dispatch hot path.

The per-hop path (core completion, stage histograms, steering, dispatch,
jitter draws) is tuned for host speed, and every such change must leave
the simulated timeline bit-identical.  The golden seeds in
``test_runner``/``test_perf`` pin only the vanilla path, so this module
pins one short-window run of each distinct hot path: MFLOW over TCP and
UDP, the vanilla multi-flow RSS layout, FALCON, and the two-reader
parallel-copy policy (whose per-packet delivery routing bypasses the
steering route cache).  A checkpoint taken mid-run and restored must
reproduce the uninterrupted digest too.

Each digest covers the same payload as the end-to-end benchmark's rep
check: events executed, counters, drops, throughput, the latency
summary, the histogram payload and messages delivered.  A deliberate
model change re-pins them under the protocol in docs/BENCHMARKS.md
("Changing the simulated timeline"): print ``_digest(CASES[name]())``
per case and list each digest old -> new in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.extensions import _mflow_scenario
from repro.resilience.checkpoint import Checkpointer, checkpoint_scope, load_checkpoint
from repro.sim.rng import NORMAL_BLOCK
from repro.workloads.multiflow import build_multiflow_scenario
from repro.workloads.sockperf import build_scenario

WINDOWS = {"warmup_ns": 300_000.0, "measure_ns": 1_000_000.0}
SEED = 5

CASES = {
    "mflow_tcp64k": lambda: build_scenario("mflow", "tcp", 65536, seed=SEED),
    "mflow_udp64k": lambda: build_scenario("mflow", "udp", 65536, seed=SEED),
    "vanilla_tcp4k_x8": lambda: build_multiflow_scenario("vanilla", 8, 4096, seed=SEED),
    "falcon_tcp64k": lambda: build_scenario("falcon", "tcp", 65536, seed=SEED),
    "mflow_2readers": lambda: _mflow_scenario(2, [0, 13], seed=SEED),
}

PINNED = {
    "falcon_tcp64k": "8227f111b1018d72bef8",
    "mflow_2readers": "0c7e1cb54d92200dfc7a",
    "mflow_tcp64k": "b1db2b9eed2dd3a9dcfa",
    "mflow_udp64k": "e4dc339616ff7f85d1f6",
    "vanilla_tcp4k_x8": "580465bbb930f31be9bf",
}


def _digest(sc) -> str:
    res = sc.run(**WINDOWS)
    payload = {
        "events_executed": res.events_executed,
        "counters": res.counters,
        "drops": res.drops,
        "throughput_gbps": res.throughput_gbps,
        "latency": res.latency.to_dict(),
        "hist": res.hist,
        "messages_delivered": res.messages_delivered,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


@pytest.mark.parametrize("name", sorted(CASES))
def test_hot_path_digest_pinned(name):
    assert _digest(CASES[name]()) == PINNED[name]


class _Killed(BaseException):
    """Escapes the run loop right after the first snapshot is written."""


def test_checkpoint_restore_matches_uninterrupted(tmp_path, monkeypatch):
    every = {"every_sim_ns": 437_000.0}
    orig = Checkpointer.save

    def save_then_die(self, sim):
        orig(self, sim)
        raise _Killed()

    monkeypatch.setattr(Checkpointer, "save", save_then_die)
    with checkpoint_scope(tmp_path, "hotpath", **every):
        with pytest.raises(_Killed):
            _digest(CASES["mflow_tcp64k"]())
    monkeypatch.setattr(Checkpointer, "save", orig)
    [ckpt] = tmp_path.glob("*.ckpt")
    _, snapshot = load_checkpoint(ckpt)
    # the dispatch core's jitter buffer was caught part-way through a block
    pending = len(snapshot.rngs.normals("core1.jitter").buf)
    assert 0 < pending < NORMAL_BLOCK
    with checkpoint_scope(tmp_path, "hotpath", **every) as ctx:
        resumed = _digest(CASES["mflow_tcp64k"]())
    assert ctx.restores == 1
    assert resumed == PINNED["mflow_tcp64k"]
