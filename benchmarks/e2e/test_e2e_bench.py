"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from layers import rollup  # noqa: E402
from rep import PROBE_EXPONENT, PROBE_REF_S, SpeedProbe  # noqa: E402


def test_smoke_emits_every_declared_metric(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = json.loads(out.read_text())["workloads"]
    assert list(report) == [w["name"] for w in declared["workloads"]]
    for workload, data in report.items():
        for group in ("end_to_end", "per_layer"):
            emitted = data[group]
            assert list(emitted) == [m["name"] for m in declared[group]], (workload, group)
            for metric in declared[group]:
                got = emitted[metric["name"]]
                assert (got["unit"], got["better"]) == (metric["unit"], metric["better"])
                assert result["metrics"][f"{workload}:{metric['name']}"]["unit"] == metric["unit"]
    # the layer mapping sees the bypasses
    assert report["tcp4k_x8_vanilla"]["per_layer"]["core.self_s"]["value"] == 0.0
    assert report["tcp64k_mflow"]["per_layer"]["runner.self_s"]["value"] == 0.0
    assert report["fig7_sweep"]["per_layer"]["runner.cache_hits"]["value"] == 16


def test_tampered_digest_counts_in_ops_failed():
    reps = [{"ok": True, "failures": [], "digest": "d1"} for _ in range(4)]
    assert bench.failed_reps(reps) == []
    reps[2]["digest"] = "tampered"
    assert bench.failed_reps(reps) == [2]
    report = bench.reduce_reps("tcp64k_mflow", 1, [
        dict(r, setup_s=0.1, wall_s=1.0, raw_setup_s=0.2, raw_wall_s=2.0, region_s=2.0,
             probe_s=0.0012, pkts=10, rss_mb=40.0)
        for r in reps
    ], None)
    assert report["failed"] == 1 and report["ops_failed"] == 0.25
    assert bench.result_line([report], ("end_to_end",))["correct"] is False


def test_probe_scales_each_stretch_by_the_latest_sample():
    probe = SpeedProbe([0, 1])
    # (start, duration, cpu): CPU 1 is sampled first at 2x the reference
    # time, then CPU 0 at 1x; the probes' own time is left out
    probe.samples = [(0.0, 0.002, 1), (1.0, 0.001, 0), (2.0, 0.001, 1)]
    normalised, raw = probe.seconds(0.5, 3.0)
    # before CPU 0's first sample, its first one stands in
    def scale(sample_s):
        return (PROBE_REF_S / sample_s) ** PROBE_EXPONENT

    first = 0.5 * scale(0.0015)
    second = (2.0 - 1.001) * scale(0.0015)
    third = (3.0 - 2.001) * scale(0.001)
    assert abs(raw - (0.5 + (2.0 - 1.001) + (3.0 - 2.001))) < 1e-12
    assert abs(normalised - (first + second + third)) < 1e-12
    # serial: one thread runs where the latest sample pinned it
    normalised, _ = probe.seconds(0.5, 3.0, serial=True)
    serial = 0.5 * scale(0.002) + (2.0 - 1.001) * scale(0.001) + (3.0 - 2.001) * scale(0.001)
    assert abs(normalised - serial) < 1e-12


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "tcp64k_mflow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_builtin_time_goes_to_the_calling_layer():
    root = "/virtual/repro"
    namespace = {}
    code = "def spin(n):\n    return sorted(range(n, 0, -1))\n"
    exec(compile(code, f"{root}/sim/engine.py", "exec"), namespace)
    profiler = cProfile.Profile()
    profiler.enable()
    namespace["spin"](300_000)
    profiler.disable()
    layers = rollup(pstats.Stats(profiler).stats, root)
    assert layers["sim"]["calls"] == 1
    # sorted() is a builtin: its time is charged to sim, its caller
    assert layers["sim"]["self_s"] > 10 * layers["ext"]["self_s"]
