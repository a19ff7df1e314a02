"""Tests for the performance observatory (repro.perf).

Covers the three layers and their contracts:

* self-profiler — disabled runs are bit-identical (pinned against the
  golden-seed numbers the runner tests use), enabled runs change no
  simulated measurement, and the counters/attribution are sane;
* statistics — the bootstrap CI is deterministic and behaves correctly
  on fixed synthetic samples;
* bench harness — payload schema, and the --compare CI-overlap gate
  flags an injected slowdown (exit nonzero) while passing identical
  payloads;
* fidelity scoreboard — band classification on synthetic inputs, and
  the markdown/JSON emitters.
"""

import json
import math

import pytest

from repro.cli import main as cli_main
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    BenchScenario,
    bench_payload,
    compare_payloads,
    default_matrix,
    load_payload,
    run_bench,
    write_payload,
)
from repro.perf.fidelity import FidelityCheck, FidelityInputs, classify, score
from repro.perf.selfprof import SelfProfiler, callback_owner, resolve_selfprof
from repro.perf.stats import (
    SampleStats,
    bootstrap_ci,
    intervals_overlap,
    mean,
    percentile,
    stddev,
)
from repro.workloads.sockperf import run_single_flow

WINDOWS = dict(warmup_ns=0.5e6, measure_ns=2e6)


# --------------------------------------------------------------- self-profiler
class TestSelfprofInertness:
    def test_selfprof_off_is_bit_identical(self):
        base = run_single_flow("mflow", "tcp", 65536, **WINDOWS)
        off = run_single_flow("mflow", "tcp", 65536, selfprof=False, **WINDOWS)
        none = run_single_flow("mflow", "tcp", 65536, selfprof=None, **WINDOWS)
        assert off == base  # dataclass equality covers every field
        assert none == base

    def test_selfprof_off_matches_golden_seed(self):
        """Same pinned numbers as tests/test_runner.py (22109247 is the
        golden spec's derived seed): the profiler toggle must not move
        the golden measurements by a bit."""
        res = run_single_flow(
            "vanilla", "tcp", 65536, seed=22109247,
            warmup_ns=200_000.0, measure_ns=1_000_000.0, selfprof=None,
        )
        assert res.events_executed == 11733
        assert res.throughput_gbps == pytest.approx(13.246208, abs=1e-6)
        assert res.counters["nic_rx_packets"] == 2346

    def test_selfprof_on_changes_no_measurement(self):
        """Stronger than obs: the profiler adds zero simulated events,
        so even events_executed is identical."""
        base = run_single_flow("mflow", "tcp", 65536, **WINDOWS)
        on = run_single_flow("mflow", "tcp", 65536, selfprof=True, **WINDOWS)
        assert on.selfprof is not None and base.selfprof is None
        for name in (
            "throughput_gbps", "messages_delivered", "latency",
            "events_executed", "cpu_utilization", "cpu_breakdown",
            "counters", "drops", "ooo_arrivals", "window_ns",
        ):
            assert getattr(on, name) == getattr(base, name), name

    def test_profile_payload_accounts_for_the_run(self):
        res = run_single_flow("mflow", "tcp", 65536, selfprof=True, **WINDOWS)
        prof = res.selfprof
        assert prof["events_executed"] == res.events_executed
        assert prof["run_wall_s"] > 0 and prof["events_per_sec"] > 0
        assert prof["callback_wall_s"] <= prof["run_wall_s"]
        heap = prof["heap"]
        # every pop drains a push; events still pending at the until_ns
        # bound were pushed but never popped
        assert heap["pushes"] >= heap["pops"] + heap["cancelled_skips"]
        assert heap["pops"] >= prof["events_executed"]
        assert heap["peak_size"] >= 1
        centers = prof["cost_centers"]
        assert centers and centers[0]["wall_s"] >= centers[-1]["wall_s"]
        assert sum(c["calls"] for c in centers) <= res.events_executed
        assert math.isclose(
            sum(c["share"] for c in prof["cost_centers"]), 1.0, abs_tol=0.25
        ) or prof["n_cost_centers"] > len(centers)
        assert prof["queues"], "scenario should snapshot NIC queue stats"
        json.dumps(prof)  # payload must be JSON-safe end to end
        # exact accounting for this seed-0 run: the loop must count every
        # pop, skip and requeue, and attribute every callback
        assert prof["events_executed"] == 66963
        assert heap == {
            "pushes": 66977, "pops": 66965, "cancelled_skips": 0,
            "compactions": 0, "peak_size": 57,
            "level_pushes": {"active": 41437, "l0": 25296, "l1": 244, "overflow": 0},
            "cascades": 9, "window_jumps": 0,
        }
        assert {c["name"]: c["calls"] for c in centers} == {
            "Core._complete": 52555,
            "Nic.receive": 5930,
            "Wire.send": 5804,
            "TcpSender.on_ack": 1513,
            "GroStage._flush_check": 1149,
            "ReassemblyStage._progress_check": 11,
            "TcpSender.start": 1,
        }

    def test_shared_profiler_aggregates_runs(self):
        prof = SelfProfiler()
        run_single_flow("vanilla", "tcp", 65536, selfprof=prof, **WINDOWS)
        once = prof.events_executed
        run_single_flow("vanilla", "tcp", 65536, selfprof=prof, **WINDOWS)
        assert prof.events_executed == 2 * once

    def test_resolve_forms(self):
        assert resolve_selfprof(None) is None
        assert resolve_selfprof(False) is None
        assert isinstance(resolve_selfprof(True), SelfProfiler)
        prof = SelfProfiler()
        assert resolve_selfprof(prof) is prof
        with pytest.raises(TypeError):
            resolve_selfprof("yes")

    def test_callback_owner_names(self):
        class Widget:
            def tick(self):
                pass

        assert callback_owner(Widget().tick) == "Widget.tick"

        def free_fn():
            pass

        assert "free_fn" in callback_owner(free_fn)

    def test_counter_mechanics(self):
        prof = SelfProfiler()
        prof.note_push(3)
        prof.note_push(7)
        prof.note_push(5)
        assert prof.heap_pushes == 3 and prof.peak_heap == 7

        class Widget:
            def tick(self):
                pass

        w = Widget()
        prof.note_callback(w.tick, 0.5)
        prof.note_callback(w.tick, 0.25)
        prof.run_wall_s = 1.0
        assert prof.centers["Widget.tick"] == [2, 0.75]
        assert prof.events_per_sec == 2.0
        assert prof.engine_overhead_s == pytest.approx(0.25)
        top = prof.top_centers(5)
        assert top[0]["name"] == "Widget.tick" and top[0]["share"] == 1.0
        assert "Widget.tick" in prof.report()


# ------------------------------------------------------------------ statistics
class TestStats:
    def test_mean_stddev_percentile(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert stddev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(
            2.138, abs=1e-3
        )
        assert stddev([5.0]) == 0.0
        xs = sorted([10.0, 20.0, 30.0, 40.0])
        assert percentile(xs, 0.0) == 10.0
        assert percentile(xs, 1.0) == 40.0
        assert percentile(xs, 0.5) == 25.0

    def test_bootstrap_ci_deterministic(self):
        samples = [1.0, 1.1, 0.9, 1.05, 0.95]
        a = bootstrap_ci(samples, seed=7)
        b = bootstrap_ci(samples, seed=7)
        assert a == b
        assert bootstrap_ci(samples, seed=8) == bootstrap_ci(samples, seed=8)

    def test_bootstrap_ci_brackets_the_mean(self):
        samples = [1.0, 1.2, 0.8, 1.1, 0.9, 1.05, 0.95, 1.15]
        lo, hi = bootstrap_ci(samples)
        m = mean(samples)
        assert lo <= m <= hi
        assert min(samples) <= lo and hi <= max(samples)

    def test_bootstrap_ci_tightens_with_confidence(self):
        samples = [1.0, 1.2, 0.8, 1.1, 0.9, 1.3, 0.7, 1.05]
        lo95, hi95 = bootstrap_ci(samples, confidence=0.95)
        lo50, hi50 = bootstrap_ci(samples, confidence=0.50)
        assert lo95 <= lo50 and hi50 <= hi95

    def test_degenerate_and_invalid(self):
        assert bootstrap_ci([3.0]) == (3.0, 3.0)
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)

    def test_intervals_overlap(self):
        assert intervals_overlap((0, 2), (1, 3))
        assert intervals_overlap((0, 1), (1, 2))  # touching counts
        assert not intervals_overlap((0, 1), (2, 3))

    def test_sample_stats_round_trip(self):
        s = SampleStats.from_samples([1.0, 2.0, 3.0, 4.0], seed=3)
        assert s.n == 4 and s.mean == 2.5 and s.min == 1.0 and s.max == 4.0
        assert s == SampleStats.from_dict(s.to_dict())
        far = SampleStats.from_samples([100.0, 101.0, 99.0], seed=3)
        assert not s.overlaps(far) and far.ci_lo <= far.mean <= far.ci_hi


# ------------------------------------------------------------------- bench
def _payload_from_stats(stats_by_scenario, sha="abc123"):
    """Hand-build a minimal bench payload from {name: (wall, rate)}."""
    scenarios = {}
    for name, (wall, rate) in stats_by_scenario.items():
        scenarios[name] = {
            "kind": "sockperf",
            "params": {"system": "mflow"},
            "wall_s": wall.to_dict(),
            "events_per_sec": rate.to_dict(),
            "events_executed": 1000,
            "throughput_gbps": 10.0,
        }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "git_sha": sha,
        "scenarios": scenarios,
    }


def _stats(samples):
    return SampleStats.from_samples(samples)


class TestBenchCompare:
    def test_identical_payloads_pass(self):
        p = _payload_from_stats(
            {"s1": (_stats([1.0, 1.1, 0.9]), _stats([1e5, 1.1e5, 0.9e5]))}
        )
        report = compare_payloads(p, p)
        assert report.ok and report.exit_code() == 0
        assert all(d.status == "ok" for d in report.deltas)

    def test_injected_slowdown_is_a_regression(self):
        base = _payload_from_stats(
            {"s1": (_stats([1.0, 1.02, 0.98]), _stats([1e5, 1.02e5, 0.98e5]))}
        )
        # simulate a 2x slowdown: wall doubles, events/sec halves
        slow = _payload_from_stats(
            {"s1": (_stats([2.0, 2.04, 1.96]), _stats([5e4, 5.1e4, 4.9e4]))},
            sha="def456",
        )
        report = compare_payloads(slow, base, max_slowdown=0.10)
        assert not report.ok and report.exit_code() == 1
        assert {d.metric for d in report.regressions} == {"wall_s", "events_per_sec"}
        assert "regression" in report.report()

    def test_improvement_is_not_a_regression(self):
        base = _payload_from_stats({"s1": (_stats([2.0, 2.02]), _stats([5e4, 5.1e4]))})
        fast = _payload_from_stats({"s1": (_stats([1.0, 1.01]), _stats([1e5, 1.01e5]))})
        report = compare_payloads(fast, base)
        assert report.ok
        assert {d.status for d in report.deltas} == {"improvement"}

    def test_overlapping_cis_mask_small_drift(self):
        """Noisy samples whose CIs overlap never regress, whatever the means."""
        base = _payload_from_stats({"s1": (_stats([1.0, 2.0, 3.0]), _stats([1.0, 2.0, 3.0]))})
        cur = _payload_from_stats({"s1": (_stats([1.5, 2.5, 3.5]), _stats([1.5, 2.5, 3.5]))})
        assert compare_payloads(cur, base).ok

    def test_missing_and_added_scenarios_reported(self):
        base = _payload_from_stats({"old": (_stats([1.0, 1.1]), _stats([1.0, 1.1]))})
        cur = _payload_from_stats({"new": (_stats([1.0, 1.1]), _stats([1.0, 1.1]))})
        report = compare_payloads(cur, base)
        assert report.missing == ["old"] and report.added == ["new"]
        assert report.ok  # absence is reported, not failed

    def test_compare_json_dict(self):
        p = _payload_from_stats({"s1": (_stats([1.0, 1.1]), _stats([1.0, 1.1]))})
        d = compare_payloads(p, p).to_json_dict()
        assert d["ok"] is True and d["deltas"][0]["scenario"] == "s1"
        json.dumps(d)


class TestBenchHarness:
    def test_default_matrix_shape(self):
        matrix = default_matrix()
        names = [s.name for s in matrix]
        assert len(names) == len(set(names)) == 9
        assert "single_tcp64k_mflow_faults" in names
        assert "single_tcp64k_mflow_obs" in names
        assert "single_tcp64k_mflow_nohist" in names
        kinds = {s.kind for s in matrix}
        assert kinds == {"sockperf", "multiflow"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BenchScenario.make("x", "nope").run_once(0, 1e5, 1e5)

    def test_run_bench_and_payload_round_trip(self, tmp_path):
        scenario = BenchScenario.make(
            "tiny", "sockperf", system="vanilla", proto="tcp", size=65536
        )
        results = run_bench(
            [scenario], reps=2, warmup_ns=1e5, measure_ns=4e5, warmup_reps=0
        )
        (r,) = results
        assert r.wall_s.n == 2 and r.events_per_sec.mean > 0
        assert r.events_executed > 0 and r.throughput_gbps > 0

        payload = bench_payload(results, reps=2, warmup_ns=1e5,
                                measure_ns=4e5, seed=0, sha="test0000")
        path = write_payload(payload, tmp_path / "BENCH_test0000.json")
        loaded = load_payload(path)
        assert loaded["schema_version"] == BENCH_SCHEMA_VERSION
        assert loaded["git_sha"] == "test0000"
        assert loaded["scenarios"]["tiny"]["wall_s"]["n"] == 2
        # a payload compares cleanly against itself
        assert compare_payloads(loaded, loaded).ok

    def test_load_payload_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 999, "kind": "repro-bench"}))
        with pytest.raises(ValueError):
            load_payload(bad)
        notbench = tmp_path / "notbench.json"
        notbench.write_text(
            json.dumps({"schema_version": BENCH_SCHEMA_VERSION, "kind": "other"})
        )
        with pytest.raises(ValueError):
            load_payload(notbench)

    def test_run_bench_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            run_bench([], reps=0)


# ----------------------------------------------------------------- CLI wiring
class TestCli:
    def test_bench_cli_emits_and_compares(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        argv = [
            "bench", "--quick", "--reps", "2", "--scenarios",
            "single_tcp64k_vanilla", "--out", str(out),
        ]
        assert cli_main(argv) == 0
        payload = load_payload(out)
        assert list(payload["scenarios"]) == ["single_tcp64k_vanilla"]
        capsys.readouterr()

        # identical re-run vs itself as baseline: no regression possible
        # at the default 10% gate only if CIs overlap; use a generous
        # gate so harness noise cannot flake the test.
        again = tmp_path / "bench2.json"
        argv2 = argv[:-1] + [str(again), "--compare", str(out), "--slowdown", "5.0"]
        assert cli_main(argv2) == 0
        assert "bench compare" in capsys.readouterr().out

    def test_bench_cli_unknown_scenario(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["bench", "--quick", "--scenarios", "nope",
                      "--out", str(tmp_path / "x.json")])

    def test_bench_cli_compare_flags_doctored_baseline(self, tmp_path, capsys):
        """End-to-end regression gate: doctor the baseline to claim the
        code used to run 100x faster; --compare must exit nonzero."""
        out = tmp_path / "bench.json"
        argv = ["bench", "--quick", "--reps", "2", "--scenarios",
                "single_tcp64k_vanilla", "--out", str(out)]
        assert cli_main(argv) == 0
        payload = load_payload(out)
        fast = json.loads(json.dumps(payload))  # deep copy
        for sc in fast["scenarios"].values():
            for key in ("mean", "min", "max", "ci_lo", "ci_hi"):
                sc["wall_s"][key] /= 100.0
                sc["events_per_sec"][key] *= 100.0
        baseline = tmp_path / "doctored.json"
        baseline.write_text(json.dumps(fast))
        code = cli_main(argv + ["--compare", str(baseline)])
        assert code == 1
        assert "regression" in capsys.readouterr().out

    def test_prof_cli_smoke(self, capsys):
        assert cli_main(["prof", "--system", "vanilla", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "vanilla"
        assert payload["events_executed"] > 0 and payload["cost_centers"]


# -------------------------------------------------------------------- fidelity
def _synthetic_inputs():
    """Inputs engineered to land inside every band."""
    return FidelityInputs(
        tcp_gbps={"native": 24.0, "vanilla": 13.0, "falcon": 19.0, "mflow": 27.0},
        udp_gbps={"native": 15.0, "vanilla": 5.8, "mflow": 12.5},
        tcp_p99_us={"native": 480.0, "vanilla": 880.0, "falcon": 590.0, "mflow": 90.0},
        ooo_microflows_batch1=2000,
        ooo_microflows_batch256=40,
        util_std={"falcon": 28.0, "mflow": 22.0},
        memcached_p99_us={"vanilla": 64.0, "mflow": 27.0},
    )


class TestFidelity:
    def test_classify_bands(self):
        assert classify(1.5, 1.0, 2.0) == "pass"
        assert classify(1.0, 1.0, 2.0) == "pass"  # closed band
        assert classify(2.0, 1.0, 2.0) == "pass"
        assert classify(0.99, 1.0, 2.0) == "fail"
        assert classify(2.01, 1.0, 2.0) == "fail"
        assert classify(float("nan"), 1.0, 2.0) == "fail"

    def test_check_score_sets_status(self):
        check = FidelityCheck("x", "fig0", "d", paper=2.0, band_lo=1.0, band_hi=3.0)
        assert check.status == "pending"
        assert check.score(2.5).status == "pass"
        assert check.score(0.5).status == "fail"

    def test_score_all_pass_on_synthetic(self):
        board = score(_synthetic_inputs())
        assert len(board.checks) >= 5  # acceptance floor: >= 5 headline numbers
        assert board.all_pass and board.exit_code() == 0
        assert "ALL PASS" in board.report()

    def test_score_flags_broken_speedup(self):
        inputs = _synthetic_inputs()
        inputs.tcp_gbps["mflow"] = 13.0  # speedup silently gone
        board = score(inputs)
        assert not board.all_pass and board.exit_code() == 1
        failed = {c.name for c in board.checks if c.status == "fail"}
        assert "mflow_vanilla_tcp" in failed

    def test_missing_input_fails_not_crashes(self):
        board = score(FidelityInputs())  # everything empty/zero
        assert not board.all_pass
        assert all(c.status in ("pass", "fail") for c in board.checks)

    def test_writers_and_schema(self, tmp_path):
        board = score(_synthetic_inputs())
        jpath = board.write_json(tmp_path / "fid.json")
        doc = json.loads(jpath.read_text())
        assert doc["kind"] == "repro-fidelity" and doc["all_pass"] is True
        assert len(doc["checks"]) == len(board.checks)
        md = (board.write_markdown(tmp_path / "fid.md")).read_text()
        assert md.startswith("# Paper-fidelity scoreboard")
        assert "| `mflow_vanilla_tcp` |" in md

    @pytest.mark.slow
    def test_fidelity_end_to_end_quick(self):
        from repro.perf.fidelity import run_fidelity

        board = run_fidelity(quick=True, seed=0)
        assert len(board.checks) >= 5
        assert board.all_pass, board.report()
