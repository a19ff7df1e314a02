"""Tests for the crash-safety layer: atomic artifacts, checkpoints,
supervised retry/quarantine, resume, and fsck (:mod:`repro.resilience`)."""

import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.resilience.atomic import (
    append_jsonl,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    read_jsonl,
)
from repro.resilience.checkpoint import (
    CheckpointError,
    Checkpointer,
    checkpoint_scope,
    claim_slot,
    load_checkpoint,
    verify_checkpoint,
    write_checkpoint,
)
from repro.resilience.fsck import fsck_results
from repro.resilience.resume import ResumeError, resume_results
from repro.runner import ResultCache, RunEngine, RunSpec, code_version
from repro.runner.engine import SWEEP_KIND, SWEEP_SCHEMA_VERSION
from repro.runner.records import scenario_result_to_dict
from repro.faults.plan import PLANS as FAULT_PLANS
from repro.obs.config import ObsConfig
from repro.sim.engine import Simulator
from repro.workloads.options import RunOptions
from repro.workloads.sockperf import run_single_flow

TINY = {"warmup_ns": 100_000.0, "measure_ns": 400_000.0}
#: short but real simulation windows for checkpoint round-trip tests
SHORT = {"warmup_ns": 300_000.0, "measure_ns": 1_500_000.0}


class KilledMidRun(BaseException):
    """Stands in for SIGKILL: escapes the run loop without cleanup."""


def echo_spec(value, **kw):
    return RunSpec.make("_test_echo", {"value": value}, **kw)


# ------------------------------------------------------------- atomic writes
class TestAtomicWrites:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "a.json"
        atomic_write_json(path, {"x": 1})
        assert json.loads(path.read_text()) == {"x": 1}

    def test_replace_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_json(path, {"v": "old"})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"v": object()})  # not serializable
        assert json.loads(path.read_text()) == {"v": "old"}

    def test_no_tmp_droppings_after_failure(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_json(tmp_path / "a.json", object())
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_text_and_bytes(self, tmp_path):
        atomic_write_text(tmp_path / "t.txt", "hello")
        atomic_write_bytes(tmp_path / "b.bin", b"\x00\x01")
        assert (tmp_path / "t.txt").read_text() == "hello"
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"

    def test_jsonl_append_and_read(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"a": 1}, durable=False)
        append_jsonl(path, {"b": 2}, durable=False)
        entries, torn = read_jsonl(path)
        assert entries == [{"a": 1}, {"b": 2}]
        assert torn == 0

    def test_jsonl_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"a": 1}, durable=False)
        with open(path, "a") as fh:
            fh.write('{"b": 2')  # mid-append SIGKILL
        entries, torn = read_jsonl(path)
        assert entries == [{"a": 1}]
        assert torn == 1

    def test_jsonl_append_after_torn_tail_keeps_the_entry(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"a": 1}, durable=False)
        with open(path, "a") as fh:
            fh.write('{"b": 2')  # mid-append SIGKILL
        append_jsonl(path, {"c": 3}, durable=False)
        entries, torn = read_jsonl(path)
        assert entries == [{"a": 1}, {"c": 3}]
        assert torn == 1

    def test_jsonl_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "nope.jsonl") == ([], 0)


# --------------------------------------------------------- checkpoint format
class TestCheckpointFormat:
    def test_write_verify_load_round_trip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"state": [1, 2, 3]}, meta={"key": "k", "slot": 0})
        header = verify_checkpoint(path)
        assert header["key"] == "k"
        assert header["code_version"] == code_version()
        header2, root = load_checkpoint(path)
        assert root == {"state": [1, 2, 3]}
        assert header2 == header

    def test_truncated_payload_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, list(range(1000)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(CheckpointError, match="torn payload"):
            verify_checkpoint(path)

    def test_flipped_payload_byte_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, list(range(1000)))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            verify_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b'{"kind": "something-else"}\n1234')
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            verify_checkpoint(path)

    def test_headerless_garbage_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"\x80\x04garbage with no newline")
        with pytest.raises(CheckpointError, match="truncated header"):
            verify_checkpoint(path)

    def test_schema_version_gate(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, 1)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["schema_version"] = 999
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="schema"):
            verify_checkpoint(path)

    def test_verify_never_unpickles(self, tmp_path):
        """fsck can call verify on a file whose pickle payload is hostile
        or broken; only load_checkpoint touches pickle."""
        import hashlib

        payload = b"not a pickle at all"
        header = {
            "kind": "repro-checkpoint",
            "schema_version": 1,
            "code_version": code_version(),
            "payload_len": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        path = tmp_path / "a.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert verify_checkpoint(path)["payload_len"] == len(payload)
        with pytest.raises(CheckpointError, match="does not unpickle"):
            load_checkpoint(path)


# ----------------------------------------------------- checkpointer plumbing
class TestCheckpointer:
    def test_intervals_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "c", every_sim_ns=0)
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "c", every_wall_s=-1.0)

    def test_sim_time_schedule(self, tmp_path):
        sim = Simulator()
        ckpt = Checkpointer(tmp_path / "c.ckpt", root={"r": 1}, every_sim_ns=100.0)
        ckpt.begin(sim)
        assert not ckpt.due(50.0)
        assert ckpt.due(100.0)
        sim._now = 100.0
        ckpt.save(sim)
        assert ckpt.saves == 1
        assert not ckpt.due(150.0)  # deadline advanced past the save

    def test_pickled_checkpointer_drops_deadlines(self, tmp_path):
        import pickle

        sim = Simulator()
        ckpt = Checkpointer(tmp_path / "c.ckpt", every_sim_ns=100.0, every_wall_s=1.0)
        ckpt.begin(sim)
        clone = pickle.loads(pickle.dumps(ckpt))
        assert clone._next_sim_ns is None and clone._next_wall is None

    def test_snapshotting_run_and_its_resume_equal_golden(self, tmp_path, monkeypatch):
        """A run under a checkpoint scope takes snapshots and measures
        exactly what a plain run does, and its mid-run snapshot resumes to
        the same measurements."""
        golden = run_single_flow("mflow", "tcp", 65536, seed=3, **SHORT)
        every = {"every_sim_ns": 300_000.0}

        saves = []
        orig = Checkpointer.save

        def counting_save(self, sim):
            orig(self, sim)
            saves.append(sim.now)

        monkeypatch.setattr(Checkpointer, "save", counting_save)
        with checkpoint_scope(tmp_path / "full", "k", **every):
            full = run_single_flow("mflow", "tcp", 65536, seed=3, **SHORT)
        _restore_save(monkeypatch, orig)
        assert saves, "the checkpointed run took no snapshot"
        assert full == golden

        _kill_after_first_save(monkeypatch)
        with checkpoint_scope(tmp_path / "kill", "k", **every):
            with pytest.raises(KilledMidRun):
                run_single_flow("mflow", "tcp", 65536, seed=3, **SHORT)
        _restore_save(monkeypatch, orig)
        with checkpoint_scope(tmp_path / "kill", "k", **every) as ctx:
            resumed = run_single_flow("mflow", "tcp", 65536, seed=3, **SHORT)
        assert ctx.restores == 1
        assert resumed == golden

    def test_detach_with_none(self, tmp_path):
        sim = Simulator()
        ckpt = Checkpointer(tmp_path / "c", every_sim_ns=1.0)
        sim.checkpointer = ckpt
        sim.checkpointer = None
        sim.call_in(5.0, lambda: None)
        sim.run()
        assert ckpt.saves == 0

    def test_no_scope_claims_nothing(self):
        assert claim_slot() is None

    def test_slots_are_deterministic(self, tmp_path):
        with checkpoint_scope(tmp_path, "key", every_sim_ns=1.0) as ctx:
            a, b = claim_slot(), claim_slot()
        assert (a.slot, b.slot) == (0, 1)
        assert a.path != b.path
        assert ctx.slots == 2

    def test_try_restore_rejects_wrong_key_and_deletes(self, tmp_path):
        with checkpoint_scope(tmp_path, "key-a", every_sim_ns=1.0):
            slot = claim_slot()
        write_checkpoint(slot.path, {"x": 1}, meta={"key": "key-b", "slot": 0})
        assert slot.try_restore() is None
        assert not slot.path.exists()

    def test_try_restore_rejects_corrupt_and_deletes(self, tmp_path):
        with checkpoint_scope(tmp_path, "key", every_sim_ns=1.0):
            slot = claim_slot()
        slot.path.write_bytes(b"garbage")
        assert slot.try_restore() is None
        assert not slot.path.exists()

    def test_restore_only_scope_writes_nothing(self, tmp_path):
        """A scope with no interval consumes leftovers but never snapshots."""
        with checkpoint_scope(tmp_path, "key"):
            slot = claim_slot()
        assert slot.checkpointer_for(object()) is None


# --------------------------------------------------- kill/resume bit-identity
def _kill_after_first_save(monkeypatch):
    """Make the next checkpoint save behave like a SIGKILL landing right
    after the snapshot hits disk."""
    orig = Checkpointer.save

    def save_then_die(self, sim):
        orig(self, sim)
        raise KilledMidRun()

    monkeypatch.setattr(Checkpointer, "save", save_then_die)
    return orig


def _restore_save(monkeypatch, orig):
    monkeypatch.setattr(Checkpointer, "save", orig)


CONFIGS = {
    "plain": {},
    "faults": {"options": RunOptions(faults=FAULT_PLANS["loss1"])},
    "obs": {"options": RunOptions(obs=ObsConfig(interval_ns=100_000.0, capacity=10_000))},
}


class TestKillResumeBitIdentity:
    """SIGKILL mid-run + restore-from-checkpoint == never interrupted,
    across all four steering systems and the faults/obs-on configurations."""

    def _round_trip(self, tmp_path, monkeypatch, system, extra, seed=3,
                    every_sim_ns=400_000.0):
        golden = run_single_flow(system, "tcp", 65536, seed=seed, **SHORT, **extra)

        orig = _kill_after_first_save(monkeypatch)
        with checkpoint_scope(tmp_path, "spec-key", every_sim_ns=every_sim_ns):
            with pytest.raises(KilledMidRun):
                run_single_flow(system, "tcp", 65536, seed=seed, **SHORT, **extra)
        leftover = list(tmp_path.glob("*.ckpt"))
        assert len(leftover) == 1, "the kill must leave a snapshot behind"

        _restore_save(monkeypatch, orig)
        with checkpoint_scope(tmp_path, "spec-key", every_sim_ns=every_sim_ns) as ctx:
            resumed = run_single_flow(system, "tcp", 65536, seed=seed, **SHORT, **extra)
        assert ctx.restores == 1
        assert not list(tmp_path.glob("*.ckpt")), "completion spends the snapshot"

        assert resumed == golden
        left = json.dumps(scenario_result_to_dict(resumed), sort_keys=True)
        right = json.dumps(scenario_result_to_dict(golden), sort_keys=True)
        assert left == right  # byte-identical serialized measurements

    @pytest.mark.parametrize("system", ["vanilla", "rss", "rps", "mflow"])
    def test_all_steering_systems(self, tmp_path, monkeypatch, system):
        self._round_trip(tmp_path, monkeypatch, system, {})

    @pytest.mark.parametrize("config", ["faults", "obs"])
    def test_faults_and_obs_configurations(self, tmp_path, monkeypatch, config):
        self._round_trip(tmp_path, monkeypatch, "mflow", CONFIGS[config])

    # upper bound stays well below measure_ns: the checkpointer re-bases
    # its deadline at each run-loop entry, so an interval near the whole
    # window would never come due and the simulated kill would not land
    @given(
        seed=st.integers(0, 2**16),
        every_sim_ns=st.floats(150_000.0, 1_000_000.0),
    )
    @settings(max_examples=5, deadline=None)
    def test_property_any_kill_point(self, tmp_path_factory, seed, every_sim_ns):
        """Wherever the kill lands in sim time, resume is bit-identical."""
        tmp_path = tmp_path_factory.mktemp("ckpt")
        mp = pytest.MonkeyPatch()
        try:
            self._round_trip(
                tmp_path, mp, "mflow", {}, seed=seed, every_sim_ns=every_sim_ns
            )
        finally:
            mp.undo()

    def test_checkpoint_on_equals_checkpoint_off(self, tmp_path):
        """An *uninterrupted* checkpointed run also matches the golden —
        snapshots only read state, never perturb it."""
        golden = run_single_flow("mflow", "tcp", 65536, seed=3, **SHORT)
        with checkpoint_scope(tmp_path, "k", every_sim_ns=300_000.0) as ctx:
            res = run_single_flow("mflow", "tcp", 65536, seed=3, **SHORT)
        assert ctx.slots == 1 and ctx.restores == 0
        assert res == golden


# ------------------------------------------------------------ cache hardening
class TestCacheHardening:
    def _entry_path(self, cache, spec):
        return cache._path(spec.key, code_version())

    def _seeded_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = echo_spec(1, **TINY)
        cache.put(
            spec.key, code_version(), json.dumps({"spec_key": spec.key, "v": 1}).encode()
        )
        return cache, spec

    def test_round_trip(self, tmp_path):
        cache, spec = self._seeded_cache(tmp_path)
        assert cache.get(spec.key, code_version())["v"] == 1
        assert (cache.hits, cache.misses, cache.evictions) == (1, 0, 0)

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(echo_spec(9, **TINY).key, code_version()) is None
        assert (cache.misses, cache.evictions) == (1, 0)

    def test_truncated_entry_is_miss_and_evicted(self, tmp_path):
        cache, spec = self._seeded_cache(tmp_path)
        path = self._entry_path(cache, spec)
        path.write_text(path.read_text()[:10])  # torn mid-write
        assert cache.get(spec.key, code_version()) is None
        assert cache.evictions == 1
        assert not path.exists()

    def test_garbage_entry_is_miss_and_evicted(self, tmp_path):
        cache, spec = self._seeded_cache(tmp_path)
        self._entry_path(cache, spec).write_text("\x00\x01 not json")
        assert cache.get(spec.key, code_version()) is None
        assert cache.evictions == 1

    def test_non_dict_payload_evicted(self, tmp_path):
        cache, spec = self._seeded_cache(tmp_path)
        self._entry_path(cache, spec).write_text("[1, 2, 3]")
        assert cache.get(spec.key, code_version()) is None
        assert cache.evictions == 1

    def test_wrong_spec_key_payload_evicted(self, tmp_path):
        cache, spec = self._seeded_cache(tmp_path)
        self._entry_path(cache, spec).write_text(json.dumps({"spec_key": "bogus"}))
        assert cache.get(spec.key, code_version()) is None
        assert cache.evictions == 1

    def test_corrupt_entry_reruns_spec(self, tmp_path):
        """End to end: a poisoned cache entry re-executes instead of raising."""
        engine = RunEngine(jobs=1, results_dir=tmp_path)
        spec = echo_spec(42, **TINY)
        engine.run("exp", [spec])
        entry = ResultCache(tmp_path)._path(spec.key, code_version())
        entry.write_text("{corrupt")
        records = RunEngine(jobs=1, results_dir=tmp_path).run("exp", [spec])
        assert records[0].ok and not records[0].cached
        assert records[0].measurements["value"] == 42


# -------------------------------------------------------- engine supervision
class TestEngineSupervision:
    def test_backoff_is_bounded_exponential(self):
        engine = RunEngine(jobs=1, backoff_base_s=0.5, backoff_cap_s=4.0)
        assert [engine._backoff_s(a) for a in (1, 2, 3, 4, 5)] == [
            0.5, 1.0, 2.0, 4.0, 4.0
        ]
        assert RunEngine(jobs=1, backoff_base_s=0.0)._backoff_s(3) == 0.0

    def test_retry_history_in_record_and_manifest(self, tmp_path):
        engine = RunEngine(
            jobs=1, results_dir=tmp_path, retries=2,
            backoff_base_s=0.01, backoff_cap_s=0.02,
        )
        spec = RunSpec.make(
            "_test_crashy", {"fail_attempts": 2, "mode": "raise"}, **TINY
        )
        records = engine.run("exp", [spec])
        assert records[0].ok and records[0].attempts == 3
        assert [r["attempt"] for r in records[0].retries] == [1, 2]
        assert all(r["cause"] == "exception" for r in records[0].retries)
        assert records[0].retries[1]["backoff_s"] == 0.02  # capped
        manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
        assert manifest["runs"][0]["retries"] == records[0].retries
        assert manifest["retries"] == 2

    def test_quarantine_keeps_siblings_running(self, tmp_path):
        engine = RunEngine(
            jobs=1, results_dir=tmp_path, retries=1, strict=False,
            backoff_base_s=0.0,
        )
        bad = RunSpec.make(
            "_test_crashy", {"fail_attempts": 99, "mode": "raise"}, **TINY
        )
        good = echo_spec(7, **TINY)
        records = engine.run("exp", [bad, good])
        assert not records[0].ok and records[0].quarantined
        assert records[1].ok and not records[1].quarantined
        assert engine.quarantined == [bad.key]
        manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
        assert manifest["quarantined"] == [bad.key]

    def test_timeout_recorded_on_records(self, tmp_path):
        engine = RunEngine(jobs=1, results_dir=tmp_path, timeout_s=123.0)
        records = engine.run("exp", [echo_spec(1, **TINY)])
        assert records[0].timeout_s == 123.0
        spec = echo_spec(2, timeout_s=5.0, **TINY)
        assert engine.run("exp2", [spec])[0].timeout_s == 5.0  # per-spec override

    def test_sweep_written_before_execution(self, tmp_path):
        """Even when every spec fails, sweep.json + journal already exist."""
        engine = RunEngine(
            jobs=1, results_dir=tmp_path, retries=0, strict=False,
            backoff_base_s=0.0,
        )
        bad = RunSpec.make(
            "_test_crashy", {"fail_attempts": 99, "mode": "raise"}, **TINY
        )
        engine.run("exp", [bad])
        sweep = json.loads((tmp_path / "exp" / "sweep.json").read_text())
        assert sweep["kind"] == SWEEP_KIND
        assert sweep["schema_version"] == SWEEP_SCHEMA_VERSION
        assert len(sweep["specs"]) == 1
        entries, torn = read_jsonl(tmp_path / "exp" / "journal.jsonl")
        assert torn == 0
        kinds = [e["kind"] for e in entries]
        assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_end"
        assert "spec" in kinds

    def test_journal_tracks_cached_and_live_specs(self, tmp_path):
        spec = echo_spec(1, **TINY)
        RunEngine(jobs=1, results_dir=tmp_path).run("exp", [spec])
        RunEngine(jobs=1, results_dir=tmp_path).run("exp", [spec])
        entries, _ = read_jsonl(tmp_path / "exp" / "journal.jsonl")
        spec_entries = [e for e in entries if e["kind"] == "spec"]
        assert [e["cached"] for e in spec_entries] == [False, True]

    def test_sweep_resumed_over_a_torn_journal_keeps_its_start(self, tmp_path):
        """A crash mid-append leaves the journal without a final newline;
        the next sweep's ``sweep_start`` must not be lost on that line."""
        specs = [echo_spec(1, **TINY), echo_spec(2, **TINY)]
        RunEngine(jobs=1, results_dir=tmp_path).run("exp", specs)
        journal = tmp_path / "exp" / "journal.jsonl"
        first, _ = read_jsonl(journal)
        with open(journal, "a") as fh:
            fh.write('{"kind": "spec", "seq": 9')
        RunEngine(jobs=1, results_dir=tmp_path).run("exp", specs)
        entries, torn = read_jsonl(journal)
        assert torn == 1
        assert [e["seq"] for e in entries] == list(range(len(entries)))
        assert entries[len(first)]["kind"] == "sweep_start"
        assert [e["kind"] for e in entries].count("sweep_start") == 2


# --------------------------------------------------------- sweep spec JSON IO
class TestSweepSpecRoundTrip:
    def test_key_stable_round_trip(self):
        spec = RunSpec.make(
            "sockperf",
            {"system": "mflow", "proto": "tcp", "size": 65536,
             "cost_overrides": {"a_ns": 1.5}},
            seed=7, tags=("fig8", "mflow"), timeout_s=30.0, **TINY,
        )
        clone = RunSpec.from_json_dict(spec.to_json_dict())
        assert clone == spec
        assert clone.key == spec.key
        assert clone.tags == spec.tags and clone.timeout_s == spec.timeout_s

    def test_int_windows_normalize_to_float(self):
        a = RunSpec.make("sockperf", {"size": 16},
                         warmup_ns=100_000, measure_ns=400_000)
        b = RunSpec.make("sockperf", {"size": 16},
                         warmup_ns=100_000.0, measure_ns=400_000.0)
        assert a.key == b.key
        assert RunSpec.from_json_dict(a.to_json_dict()).key == a.key

    def test_json_dict_survives_json_serialization(self):
        spec = echo_spec(3, **TINY)
        wire = json.loads(json.dumps(spec.to_json_dict()))
        assert RunSpec.from_json_dict(wire).key == spec.key


# -------------------------------------------------------------------- resume
def _interrupted_sweep(tmp_path, n_done=2, n_total=4):
    """Fabricate what a SIGKILLed sweep leaves behind: a full sweep.json,
    cache entries for the first ``n_done`` specs, and no manifest."""
    specs = [echo_spec(i, **TINY) for i in range(n_total)]
    done_dir = tmp_path / "warm"
    RunEngine(jobs=1, results_dir=done_dir).run("exp", specs[:n_done])
    results = tmp_path / "results"
    (results / ".cache").mkdir(parents=True)
    for entry in (done_dir / ".cache").glob("*.json"):
        (results / ".cache" / entry.name).write_bytes(entry.read_bytes())
    atomic_write_json(
        results / "exp" / "sweep.json",
        {
            "kind": SWEEP_KIND,
            "schema_version": SWEEP_SCHEMA_VERSION,
            "experiment": "exp",
            "global_seed": 0,
            "jobs": 1,
            "timeout_s": None,
            "retries": 1,
            "checkpoint_sim_ns": None,
            "checkpoint_wall_s": None,
            "specs": [s.to_json_dict() for s in specs],
        },
    )
    return specs, results


class TestResume:
    def test_salvages_completed_and_finishes_rest(self, tmp_path):
        specs, results = _interrupted_sweep(tmp_path)
        report = resume_results(results, jobs=1)
        assert report.ok and report.exit_code() == 0
        (outcome,) = report.experiments
        assert (outcome.n_specs, outcome.salvaged, outcome.executed,
                outcome.failed) == (4, 2, 2, 0)
        manifest = json.loads((results / "exp" / "manifest.json").read_text())
        assert manifest["n_specs"] == 4 and manifest["failed"] == 0

    def test_resumed_records_match_uninterrupted_run(self, tmp_path):
        specs, results = _interrupted_sweep(tmp_path)
        resume_results(results, jobs=1)
        golden_dir = tmp_path / "golden"
        golden = RunEngine(jobs=1, results_dir=golden_dir).run("exp", specs)
        resumed = {
            p.name: json.loads(p.read_text())["measurements"]
            for p in (results / "exp" / "runs").glob("*.json")
        }
        expected = {
            f"{r.spec_key[:16]}.json": r.measurements for r in golden
        }
        assert resumed == expected

    def test_nothing_to_resume_raises(self, tmp_path):
        with pytest.raises(ResumeError, match="nothing to resume"):
            resume_results(tmp_path)

    def test_corrupt_sweep_is_reported_not_fatal(self, tmp_path):
        _, results = _interrupted_sweep(tmp_path)
        (results / "broken").mkdir()
        (results / "broken" / "sweep.json").write_text("{torn")
        report = resume_results(results, jobs=1)
        by_name = {e.experiment: e for e in report.experiments}
        assert by_name["broken"].error
        assert by_name["exp"].ok
        assert report.exit_code() == 1

    def test_experiment_filter(self, tmp_path):
        _, results = _interrupted_sweep(tmp_path)
        report = resume_results(results, jobs=1, experiments=["exp"])
        assert [e.experiment for e in report.experiments] == ["exp"]
        with pytest.raises(ResumeError):
            resume_results(results, jobs=1, experiments=["nope"])


# ---------------------------------------------------------------------- fsck
class TestFsck:
    def _populated_results(self, tmp_path):
        results = tmp_path / "results"
        RunEngine(jobs=1, results_dir=results).run("exp", [echo_spec(1, **TINY)])
        return results

    def test_clean_tree_is_ok(self, tmp_path):
        results = self._populated_results(tmp_path)
        report = fsck_results(results)
        assert report.ok and report.exit_code() == 0
        assert report.count("corrupt") == 0
        assert report.count("ok") >= 3  # sweep + manifest + journal + record + cache

    def test_truncated_record_is_corrupt(self, tmp_path):
        results = self._populated_results(tmp_path)
        record = next((results / "exp" / "runs").glob("*.json"))
        record.write_text(record.read_text()[:25])
        report = fsck_results(results)
        assert not report.ok and report.exit_code() == 1
        assert any(f.kind == "record" and f.state == "corrupt"
                   for f in report.findings)

    def test_torn_journal_is_salvageable(self, tmp_path):
        results = self._populated_results(tmp_path)
        with open(results / "exp" / "journal.jsonl", "a") as fh:
            fh.write('{"kind": "spec", "trunc')
        report = fsck_results(results)
        assert report.ok  # salvageable, not corrupt
        assert any(f.kind == "journal" and f.state == "salvageable"
                   for f in report.findings)

    def test_missing_manifest_is_salvageable(self, tmp_path):
        results = self._populated_results(tmp_path)
        (results / "exp" / "manifest.json").unlink()
        report = fsck_results(results)
        assert report.ok
        assert any(f.kind == "manifest" and f.state == "salvageable"
                   for f in report.findings)

    def test_leftover_checkpoint_is_salvageable(self, tmp_path):
        results = self._populated_results(tmp_path)
        ckpt_dir = results / "checkpoints"
        write_checkpoint(ckpt_dir / "abc.0.ckpt", {"x": 1},
                         meta={"key": "abc", "slot": 0, "sim_ns": 5.0})
        report = fsck_results(results)
        assert any(f.kind == "checkpoint" and f.state == "salvageable"
                   for f in report.findings)

    def test_evict_removes_corrupt_cache_and_checkpoints_only(self, tmp_path):
        results = self._populated_results(tmp_path)
        entry = next((results / ".cache").glob("*.json"))
        entry.write_text("{torn")
        bad_ckpt = results / "checkpoints" / "bad.0.ckpt"
        bad_ckpt.parent.mkdir(exist_ok=True)
        bad_ckpt.write_bytes(b"garbage")
        record = next((results / "exp" / "runs").glob("*.json"))
        record.write_text("{torn")
        report = fsck_results(results, evict=True)
        assert not entry.exists() and not bad_ckpt.exists()
        assert record.exists()  # records are never auto-deleted
        evicted = [f for f in report.findings if f.evicted]
        assert {f.kind for f in evicted} == {"cache", "checkpoint"}


# ----------------------------------------------------------------- CLI level
class TestCliResilience:
    def test_fsck_cli_clean(self, tmp_path, capsys):
        results = tmp_path / "results"
        RunEngine(jobs=1, results_dir=results).run("exp", [echo_spec(1, **TINY)])
        assert cli_main(["fsck", str(results)]) == 0
        assert "0 corrupt" in capsys.readouterr().out

    def test_fsck_cli_json_out_is_atomic_artifact(self, tmp_path, capsys):
        results = tmp_path / "results"
        RunEngine(jobs=1, results_dir=results).run("exp", [echo_spec(1, **TINY)])
        out = tmp_path / "fsck.json"
        assert cli_main(["fsck", str(results), "--json-out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "repro-fsck-report"

    def test_resume_cli_roundtrip(self, tmp_path, capsys):
        _, results = _interrupted_sweep(tmp_path)
        assert cli_main(["resume", str(results), "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 salvaged" in out and "OK" in out

    def test_resume_cli_nothing_to_resume(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["resume", str(tmp_path)])


# ------------------------------------------------------------- artifact lint
class TestArtifactWriteLint:
    """Grep-level gate: artifact emission must go through repro.resilience.

    ``json.dump(`` (the file-writing form — ``json.dumps`` is fine) and
    ``.write_text(`` are forbidden in ``src/repro`` outside the atomic
    helpers themselves, unless the line carries an ``atomic-ok`` marker
    (reserved for serialization into caller-owned streams).  ``pickle.dump``
    and ``pickle.dumps`` are forbidden outside ``repro.resilience`` entirely:
    every snapshot must flow through the digest-verified checkpoint blob
    format (``freeze_blob``/``write_checkpoint``), never raw pickles.
    """

    FORBIDDEN = re.compile(r"(?<!\w)json\.dump\(|\.write_text\(")
    PICKLE = re.compile(r"(?<!\w)pickle\.dumps?\(")
    EXEMPT_FILES = {os.path.join("resilience", "atomic.py")}
    PICKLE_EXEMPT_DIRS = {"resilience"}

    def _src_root(self):
        import repro

        return Path(repro.__file__).parent

    def test_no_bare_artifact_writes(self):
        root = self._src_root()
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = str(path.relative_to(root))
            if rel in self.EXEMPT_FILES:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if self.FORBIDDEN.search(line) and "atomic-ok" not in line:
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "bare artifact writes found (use repro.resilience.atomic, or mark "
            "caller-owned streams with '# atomic-ok: stream'):\n"
            + "\n".join(offenders)
        )

    def test_no_raw_pickles_outside_resilience(self):
        root = self._src_root()
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = str(path.relative_to(root))
            if rel.split(os.sep)[0] in self.PICKLE_EXEMPT_DIRS:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if self.PICKLE.search(line):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "raw pickle emission outside repro.resilience (use freeze_blob / "
            "write_checkpoint so every snapshot is digest-verified):\n"
            + "\n".join(offenders)
        )

    def test_lint_actually_detects(self, tmp_path):
        """The pattern matches the idioms it exists to forbid."""
        assert self.FORBIDDEN.search("json.dump(obj, fh)")
        assert self.FORBIDDEN.search("path.write_text(data)")
        assert not self.FORBIDDEN.search("json.dumps(obj)")
        assert not self.FORBIDDEN.search("atomic_write_text(path, data)")
        assert self.PICKLE.search("pickle.dump(obj, fh)")
        assert self.PICKLE.search("pickle.dumps(obj)")
        assert not self.PICKLE.search("pickle.loads(blob)")
        assert not self.PICKLE.search("unpickle.dumps(obj)")


# ------------------------------------------------- wheel-populated snapshots
class _WheelRecorder:
    """Module-level so the pickled object graph can re-import it."""

    def __init__(self):
        self.log = []

    def hit(self, label):
        self.log.append(label)


class TestWheelPopulatedKillResume:
    """Engine-level kill/resume: a snapshot taken while the timer wheel
    has entries on every level (active heap, L0, L1, overflow) must
    restore and finish exactly like an uninterrupted run."""

    EXPECTED = ["warm", "mid", "l0", "l1", "l1-late", "far"]

    def _build(self):
        sim = Simulator()
        rec = _WheelRecorder()
        sim.call_in(10.0, rec.hit, "warm")           # fires early
        sim.call_at(900.0, rec.hit, "mid")
        sim.call_at(5_000.0, rec.hit, "l0")
        sim.call_at(1_000_000.0, rec.hit, "l1")
        sim.call_in(3_000_000.0, rec.hit, "l1-late")
        sim.call_at(200_000_000.0, rec.hit, "far")   # beyond the ~67 ms horizon
        assert sim._active and any(sim._slot0) and sim._n1 == 2 and sim._far
        return sim, rec

    def test_golden_uninterrupted(self):
        sim, rec = self._build()
        sim.run()
        assert rec.log == self.EXPECTED

    def test_kill_after_save_then_resume_is_identical(self, tmp_path, monkeypatch):
        sim, rec = self._build()
        path = tmp_path / "wheel.ckpt"
        ckpt = Checkpointer(path, root={"sim": sim, "rec": rec},
                            every_sim_ns=500.0)
        sim.checkpointer = ckpt
        orig = _kill_after_first_save(monkeypatch)
        with pytest.raises(KilledMidRun):
            sim.run()
        _restore_save(monkeypatch, orig)
        # the kill landed after "warm" and "mid" but with L0/L1/overflow
        # entries all still on the wheel
        assert rec.log == ["warm", "mid"]

        header, root = load_checkpoint(path)
        rsim, rrec = root["sim"], root["rec"]
        assert header["sim_ns"] == rsim.now
        assert rrec.log == ["warm", "mid"]
        assert rsim.pending == sim.pending == 4
        assert rsim._seq == sim._seq
        rsim.checkpointer = None
        rsim.run()
        assert rrec.log == self.EXPECTED
        assert rsim.pending == 0

    def test_snapshot_mid_run_does_not_perturb(self, tmp_path):
        """Checkpointing on (no kill) fires the same sequence at the same
        times as the golden run."""
        golden_sim, golden_rec = self._build()
        golden_sim.run()
        sim, rec = self._build()
        ckpt = Checkpointer(tmp_path / "w.ckpt", root={"sim": sim, "rec": rec},
                            every_sim_ns=500.0)
        sim.checkpointer = ckpt
        sim.run()
        assert ckpt.saves >= 1
        assert rec.log == golden_rec.log == self.EXPECTED
        assert sim.now == golden_sim.now
        assert sim.events_executed == golden_sim.events_executed
