"""Unit and integration tests for the RunSpec / RunEngine subsystem."""

import dataclasses
import json

import pytest

from repro.experiments import fig7_batch_size
from repro.runner import (
    ResultCache,
    RunEngine,
    RunFailure,
    RunSpec,
    canonical_params,
    code_version,
    run_specs,
)

TINY = {"warmup_ns": 100_000.0, "measure_ns": 400_000.0}


def echo_spec(value, **kw):
    return RunSpec.make("_test_echo", {"value": value}, **kw)


class TestRunSpec:
    def test_param_order_is_canonical(self):
        a = RunSpec.make("sockperf", {"system": "mflow", "size": 65536})
        b = RunSpec.make("sockperf", {"size": 65536, "system": "mflow"})
        assert a == b
        assert a.key == b.key
        assert hash(a) == hash(b)

    def test_nested_dict_params_round_trip(self):
        params = {"cost_overrides": {"b_ns": 2.0, "a_ns": 1.0}, "size": 16}
        spec = RunSpec.make("sockperf", params)
        assert spec.params_dict() == params

    def test_tags_do_not_affect_key(self):
        a = RunSpec.make("sockperf", {"size": 16}, tags=("fig8",))
        b = RunSpec.make("sockperf", {"size": 16}, tags=("renamed", "x"))
        assert a.key == b.key

    def test_windows_and_seed_affect_key(self):
        base = RunSpec.make("sockperf", {"size": 16})
        assert base.with_windows(1.0, 2.0).key != base.key
        assert RunSpec.make("sockperf", {"size": 16}, seed=1).key != base.key

    def test_timeout_not_part_of_identity(self):
        a = RunSpec.make("sockperf", {"size": 16}, timeout_s=1.0)
        b = RunSpec.make("sockperf", {"size": 16}, timeout_s=99.0)
        assert a == b and a.key == b.key

    def test_non_json_params_rejected(self):
        with pytest.raises(TypeError):
            RunSpec.make("sockperf", {"bad": object()})

    def test_canonical_params_sorted(self):
        items = canonical_params({"b": 1, "a": [1, {"y": 2}]})
        assert [k for k, _ in items] == ["a", "b"]

    def test_derived_seed_is_content_addressed(self):
        a = RunSpec.make("sockperf", {"size": 16})
        b = RunSpec.make("sockperf", {"size": 32})
        assert a.derived_seed(0) == a.derived_seed(0)
        assert a.derived_seed(0) != b.derived_seed(0)
        assert a.derived_seed(0) != a.derived_seed(1)
        assert 0 <= a.derived_seed(0) < 2**32

    def test_describe_prefers_tags(self):
        assert echo_spec(1, tags=("fig8", "tcp")).describe() == "fig8/tcp"
        assert echo_spec(1).describe().startswith("_test_echo:")


class TestEngineBasics:
    def test_records_come_back_in_spec_order(self):
        specs = [echo_spec(i) for i in range(5)]
        records = run_specs("t", specs)
        assert [r.measurements["value"] for r in records] == list(range(5))

    def test_serial_and_parallel_identical(self):
        specs = [echo_spec(i) for i in range(4)]
        serial = RunEngine(jobs=1, global_seed=7).run("t", specs)
        parallel = RunEngine(jobs=4, global_seed=7).run("t", specs)
        for s, p in zip(serial, parallel):
            ms, mp_ = dict(s.measurements), dict(p.measurements)
            ms.pop("pid"), mp_.pop("pid")
            assert ms == mp_
            assert s.seed == p.seed

    def test_parallel_uses_separate_processes(self):
        import os

        records = RunEngine(jobs=2).run("t", [echo_spec(i) for i in range(2)])
        pids = {r.measurements["pid"] for r in records}
        assert os.getpid() not in pids


class TestFaultTolerance:
    def test_crash_is_retried_on_fresh_process(self):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 1, "mode": "exit"})
        [rec] = RunEngine(jobs=2).run("t", [spec])
        assert rec.ok and rec.attempts == 2
        assert rec.measurements["attempt"] == 1

    def test_crash_events_are_reported(self):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 1, "mode": "exit"})
        engine = RunEngine(jobs=2)
        engine.run("t", [spec])
        kinds = [e.kind for e in engine.events]
        assert "crash" in kinds and "retry" in kinds

    def test_serial_exception_is_retried(self):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 1, "mode": "raise"})
        engine = RunEngine(jobs=1)
        [rec] = engine.run("t", [spec])
        assert rec.ok and rec.attempts == 2
        assert [e.kind for e in engine.events] == ["exception", "retry"]

    def test_hung_worker_is_killed_and_retried(self):
        spec = RunSpec.make(
            "_test_sleepy", {"hang_attempts": 1, "sleep_s": 30.0}, timeout_s=0.5
        )
        engine = RunEngine(jobs=2)
        [rec] = engine.run("t", [spec])
        assert rec.ok and rec.attempts == 2
        assert "timeout" in [e.kind for e in engine.events]

    def test_persistent_failure_raises_under_strict(self):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 99, "mode": "raise"})
        with pytest.raises(RunFailure) as exc:
            RunEngine(jobs=1, retries=1).run("t", [spec])
        assert "failed after 2 attempt(s)" in str(exc.value)

    def test_persistent_failure_reported_when_not_strict(self):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 99, "mode": "raise"})
        [rec] = RunEngine(jobs=1, retries=1, strict=False).run("t", [spec])
        assert not rec.ok
        assert "failed after 2 attempt(s)" in rec.error


class TestArtifactsAndCache:
    def test_artifacts_written(self, tmp_path):
        engine = RunEngine(jobs=1, results_dir=tmp_path)
        records = engine.run("exp", [echo_spec(1, tags=("exp", "a")), echo_spec(2)])
        runs = sorted((tmp_path / "exp" / "runs").glob("*.json"))
        assert len(runs) == 2
        manifest = json.loads((tmp_path / "exp" / "manifest.json").read_text())
        assert manifest["n_specs"] == 2
        assert manifest["failed"] == 0
        assert manifest["code_version"] == code_version()
        stored = json.loads(runs[0].read_text())
        assert stored["spec_key"] in {r.spec_key for r in records}

    def test_second_run_hits_cache(self, tmp_path):
        specs = [echo_spec(i) for i in range(3)]
        first = RunEngine(jobs=1, results_dir=tmp_path).run("exp", specs)
        second = RunEngine(jobs=1, results_dir=tmp_path).run("exp", specs)
        assert not any(r.cached for r in first)
        assert all(r.cached for r in second)
        for a, b in zip(first, second):
            assert a.measurements == b.measurements

    def test_no_cache_flag_bypasses(self, tmp_path):
        specs = [echo_spec(0)]
        RunEngine(jobs=1, results_dir=tmp_path).run("exp", specs)
        [rec] = RunEngine(jobs=1, results_dir=tmp_path, use_cache=False).run(
            "exp", specs
        )
        assert not rec.cached

    def test_cache_keyed_on_code_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", "v1", json.dumps({"x": 1}).encode())
        assert cache.get("k", "v1") == {"x": 1}
        assert cache.get("k", "v2") is None

    def test_failed_records_are_not_cached(self, tmp_path):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 99, "mode": "raise"})
        engine = RunEngine(jobs=1, retries=0, strict=False, results_dir=tmp_path)
        engine.run("exp", [spec])
        [rec] = RunEngine(
            jobs=1, retries=0, strict=False, results_dir=tmp_path
        ).run("exp", [spec])
        assert not rec.cached

    def test_progress_finds_the_record_on_disk(self, tmp_path):
        specs = [echo_spec(i) for i in range(2)] + [
            RunSpec.make("_test_crashy", {"fail_attempts": 99, "mode": "raise"})
        ]
        seen = []

        def progress(done, total, record):
            path = tmp_path / "exp" / "runs" / f"{record.spec_key[:16]}.json"
            stored = json.loads(path.read_text())
            seen.append((record.ok, record.cached, stored["cached"]))

        for _ in range(2):
            RunEngine(
                jobs=1, retries=0, strict=False, results_dir=tmp_path,
                progress=progress,
            ).run("exp", specs)
        # the file is this run's record, written before the cell is reported
        assert sorted(seen) == sorted(
            [(True, False, False)] * 2 + [(True, True, True)] * 2
            + [(False, False, False)] * 2
        )

    def test_second_warm_rerun_leaves_artifacts_untouched(self, tmp_path):
        specs = [echo_spec(i) for i in range(3)]
        for _ in range(2):   # cold, then a warm re-run that marks records cached
            RunEngine(jobs=1, results_dir=tmp_path).run("exp", specs)
        sweep_dir = tmp_path / "exp"
        paths = sorted((sweep_dir / "runs").glob("*.json"))
        paths.append(sweep_dir / "sweep.json")

        def snapshot():
            return [
                (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
                for p in paths
            ]

        before = snapshot()
        records = RunEngine(jobs=1, results_dir=tmp_path).run("exp", specs)
        assert all(r.cached for r in records)
        assert snapshot() == before

    def test_record_file_holds_the_cache_entry_bytes(self, tmp_path):
        specs = [
            RunSpec.make(
                "sockperf", {"system": system, "proto": "tcp", "size": 65536},
                tags=(system,), **TINY,
            )
            for system in ("vanilla", "mflow")
        ]
        for _ in range(2):   # executed records, then cached ones
            records = RunEngine(jobs=1, results_dir=tmp_path).run("exp", specs)
            for spec, record in zip(specs, records):
                assert record.measurements["hist"]
                stored = (
                    tmp_path / "exp" / "runs" / f"{spec.key[:16]}.json"
                ).read_bytes()
                entry = ResultCache(tmp_path)._path(spec.key, code_version())
                assert stored == json.dumps(dataclasses.asdict(record)).encode()
                if not record.cached:
                    assert stored == entry.read_bytes()


class TestDeterminism:
    """The tentpole guarantee: serial == parallel, and seeds are stable."""

    def _sweep_specs(self):
        return [
            s.with_windows(**TINY)
            for s in fig7_batch_size.specs(quick=True, batch_sizes=[16, 256])
        ]

    def test_sim_sweep_serial_vs_parallel_bit_identical(self):
        specs = self._sweep_specs()
        serial = RunEngine(jobs=1, global_seed=3).run("fig7", specs)
        parallel = RunEngine(jobs=4, global_seed=3).run("fig7", specs)
        for s, p in zip(serial, parallel):
            assert s.measurements == p.measurements
        assert (
            fig7_batch_size.reduce(serial).table()
            == fig7_batch_size.reduce(parallel).table()
        )

    def test_seed_stability_golden(self):
        """Pinned counters: if this breaks, seeding or the sim changed."""
        spec = RunSpec.make(
            "sockperf",
            {"system": "vanilla", "proto": "tcp", "size": 65536},
            warmup_ns=200_000.0,
            measure_ns=1_000_000.0,
        )
        assert spec.derived_seed(0) == 22109247
        assert spec.derived_seed(1) == 1733021422
        [rec] = run_specs("golden", [spec])
        m = rec.measurements
        assert m["messages_delivered"] == 25
        assert m["events_executed"] == 11801
        assert m["throughput_gbps"] == pytest.approx(13.246208, abs=1e-6)
        assert m["counters"]["nic_rx_packets"] == 2346
