"""Tests for the always-on stage histograms and ``repro diff``
(:mod:`repro.obs.hist`, :mod:`repro.obs.diff`)."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.obs.decompose import decompose
from repro.obs.diff import diff_paths, diff_payloads, load_hist_source
from repro.obs.hist import (
    LINEAR_MAX,
    N_BUCKETS,
    SUB_BUCKETS,
    HistConfig,
    LatencyHistogram,
    StageHistograms,
    bucket_bounds,
    bucket_index,
    bucket_mid,
    merge_payloads,
    merge_series,
    resolve_hist,
    series_mean_ns,
    series_quantile_ns,
    series_samples,
    stage_rollup,
)
from repro.runner import RunEngine, RunSpec
from repro.runner.records import scenario_result_from_dict, scenario_result_to_dict
from repro.workloads.sockperf import build_scenario, run_single_flow

TINY = {"warmup_ns": 100_000.0, "measure_ns": 600_000.0}
SHORT = {"warmup_ns": 300_000.0, "measure_ns": 1_500_000.0}


# ------------------------------------------------------------ bucket geometry
class TestBucketGeometry:
    def test_linear_zone_is_exact(self):
        for v in range(LINEAR_MAX):
            idx = bucket_index(v)
            assert idx == v
            assert bucket_bounds(idx) == (v, v + 1)
            assert bucket_mid(idx) == v

    def test_negative_clamps_to_zero(self):
        assert bucket_index(-5) == 0

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_contains_value(self, v):
        idx = bucket_index(v)
        assert 0 <= idx < N_BUCKETS
        lo, hi = bucket_bounds(idx)
        assert lo <= v < hi

    @given(st.integers(LINEAR_MAX, 2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_relative_width_bounded(self, v):
        """Past the linear zone, bucket width <= lo/16: ~6% worst case."""
        lo, hi = bucket_bounds(bucket_index(v))
        assert hi - lo <= max(lo // SUB_BUCKETS, 1)

    def test_indices_monotone_and_contiguous(self):
        """Adjacent buckets tile the value axis with no gaps/overlaps."""
        prev_hi = None
        for idx in range(600):
            lo, hi = bucket_bounds(idx)
            assert lo < hi
            if prev_hi is not None:
                assert lo == prev_hi
            prev_hi = hi

    def test_full_range_fits(self):
        assert bucket_index(2**63 - 1) < N_BUCKETS
        with pytest.raises(ValueError):
            bucket_bounds(N_BUCKETS)
        with pytest.raises(ValueError):
            bucket_bounds(-1)


# ------------------------------------------------------------- config resolve
class TestResolveHist:
    def test_none_and_false_are_inert(self):
        assert resolve_hist(None) is None
        assert resolve_hist(False) is None
        assert resolve_hist({"enabled": False}) is None
        assert resolve_hist(HistConfig(enabled=False)) is None

    def test_true_and_mapping_resolve(self):
        assert resolve_hist(True) == HistConfig()
        assert resolve_hist({"core_tags": False}) == HistConfig(core_tags=False)
        cfg = HistConfig()
        assert resolve_hist(cfg) is cfg

    def test_garbage_raises(self):
        with pytest.raises(TypeError):
            resolve_hist(3.14)


# ---------------------------------------------------------- histogram algebra
def _record_many(values):
    h = LatencyHistogram()
    for v in values:
        h.record(v)
    return h


#: values exercising every branch of the inlined bucket math: negatives
#: (clamped to 0), the exact linear zone, both sides of every octave edge,
#: and magnitudes past 2**32 (float sim-ns, floored like the record path)
_EDGE_INTS = st.one_of(
    st.integers(-(2**40), -1),
    st.integers(0, LINEAR_MAX - 1),
    st.integers(5, 62).flatmap(
        lambda b: st.sampled_from([(1 << b) - 1, 1 << b, (1 << b) + 1])
    ),
    st.integers(2**32, 2**62),
)
_RECORD_VALUES = st.tuples(_EDGE_INTS, st.sampled_from([0.0, 0.25, 0.999])).map(
    lambda t: float(t[0]) + t[1]
)


class TestInlinedRecordPaths:
    """``record_stage``/``record_core`` (batched, folded by ``to_dict``)
    and ``LatencyHistogram.record`` must bucket every value identically."""

    @given(st.lists(_RECORD_VALUES, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_inlined_paths_match_record_and_bucket_index(self, values):
        hist = StageHistograms()
        queue, service, core = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for a, b in zip(values, reversed(values)):
            hist.record_stage("gro", 1, "tcp", a, b)
            hist.record_core("irq:pnic", 1, a)
            queue.record(a)
            service.record(b)
            core.record(a)
        payload = hist.to_dict()
        kinds = payload["stages"]["gro"]["1"]["tcp"]
        assert kinds["queue"] == queue.to_dict()
        assert kinds["service"] == service.to_dict()
        assert payload["cores"]["irq:pnic"]["1"] == core.to_dict()
        expected = [0] * N_BUCKETS
        for v in values:
            expected[bucket_index(max(int(v), 0))] += 1
        assert queue.counts == expected


#: magnitudes the vectorised fold handles itself (below 2**48)
_FOLD_SMALL = st.one_of(
    st.integers(-(2**40), -1),
    st.integers(0, LINEAR_MAX - 1),
    st.integers(5, 47).flatmap(
        lambda b: st.sampled_from([(1 << b) - 1, 1 << b, (1 << b) + 1])
    ),
)
#: magnitudes past 2**53 (not every integer is a float) up to near 2**62
_FOLD_HUGE = st.one_of(
    st.integers(53, 62).flatmap(
        lambda b: st.sampled_from([(1 << b) - 1, 1 << b, (1 << b) + 1])
    ),
    st.integers(2**62 - 2**20, 2**62 + 2**20),
)


def _as_span(t):
    """An int value as a Python int or as a float with a fractional part."""
    v, frac = t
    return v if frac is None else float(v) + frac


_FRACS = st.sampled_from([None, 0.0, 0.25, 0.999])


class TestBatchedFold:
    """``record_stage``/``record_core`` buffer raw spans and fold them in
    batches; the payload must equal one ``LatencyHistogram.record`` call
    per value, across several folds and a mid-batch pickle round-trip."""

    STAGES = [(st_, c, cls) for st_ in ("gro", "vxlan", "tcp_rcv") for c in (1, 2, 3)
              for cls in ("tcp", "udp")]
    TAGS = [(tag, c) for tag in ("irq:pnic", "softirq:net_rx") for c in (1, 2)]

    @given(
        small=st.lists(st.tuples(_FOLD_SMALL, _FRACS), min_size=1, max_size=64),
        huge=st.lists(st.tuples(_FOLD_HUGE, _FRACS), max_size=3),
        seed=st.integers(0, 2**32 - 1),
        n_ops=st.integers(5_000, 9_000),
        pickle_at=st.floats(0.05, 0.95),
    )
    @settings(max_examples=20, deadline=None)
    def test_fold_matches_per_value_record(self, small, huge, seed, n_ops, pickle_at):
        import pickle
        import random

        rng = random.Random(seed)
        small = [_as_span(t) for t in small]
        huge = [_as_span(t) for t in huge]
        # a huge value sends its whole fold through the reference path:
        # keep them to a few ops so most folds stay vectorised
        huge_at = {rng.randrange(n_ops): v for v in huge}
        hist = StageHistograms()
        ref_stages = {key: (LatencyHistogram(), LatencyHistogram()) for key in self.STAGES}
        ref_cores = {key: LatencyHistogram() for key in self.TAGS}
        pickled = False
        for op in range(n_ops):
            a = huge_at.get(op, rng.choice(small))
            b = rng.choice(small)
            if rng.random() < 0.8:
                key = rng.choice(self.STAGES)
                hist.record_stage(*key, a, b)
                ref_stages[key][0].record(a)
                ref_stages[key][1].record(b)
            else:
                key = rng.choice(self.TAGS)
                hist.record_core(*key, a)
                ref_cores[key].record(a)
            if not pickled and op >= pickle_at * n_ops:
                assert any(hist._pending)
                hist = pickle.loads(pickle.dumps(hist))
                pickled = True
        assert pickled
        payload = hist.to_dict()
        expected_stages = {}
        for (stage, core, cls), (q, sv) in ref_stages.items():
            if q.count:
                expected_stages.setdefault(stage, {}).setdefault(str(core), {})[cls] = {
                    "queue": q.to_dict(), "service": sv.to_dict(),
                }
        expected_cores = {}
        for (tag, core), h in ref_cores.items():
            if h.count:
                expected_cores.setdefault(tag, {})[str(core)] = h.to_dict()
        assert payload["stages"] == expected_stages
        assert payload["cores"] == expected_cores
        assert json.dumps(payload) == json.dumps(hist.to_dict())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float(2**63)])
    def test_rejected_span_raises_at_fold_and_keeps_the_batch(self, bad):
        hist = StageHistograms()
        hist.record_stage("gro", 1, "tcp", 5.0, 7.0)
        folded = hist.to_dict()["stages"]["gro"]["1"]["tcp"]["queue"]
        hist.record_stage("gro", 1, "tcp", 40.0, 3.0)
        hist.record_stage("vxlan", 2, "tcp", bad, 9.0)
        for _ in range(2):  # every fold meets it again: the batch is kept
            with pytest.raises((ValueError, IndexError)):
                hist.to_dict()
        assert [len(p) for p in hist._pending] == [1, 1, 1, 1]
        assert hist._series_dict(0) == folded
        hist._pending[2][0] = 11.0  # replace the bad span
        payload = hist.to_dict()
        ref = LatencyHistogram()
        ref.record(5.0)
        ref.record(40.0)
        assert payload["stages"]["gro"]["1"]["tcp"]["queue"] == ref.to_dict()
        assert payload["stages"]["vxlan"]["2"]["tcp"]["queue"]["sum_ns"] == 11

    def test_checkpoint_carries_used_rows_only(self):
        import pickle

        hist = StageHistograms()
        for core in range(3):
            hist.record_stage("gro", core, "tcp", 100.0 + core, 2.0**40)
        hist.record_core("irq:pnic", 1, 17.0)
        blob = pickle.dumps(hist)
        assert len(blob) < N_BUCKETS * 8  # less than one dense int64 row
        restored = pickle.loads(blob)
        assert restored.to_dict() == hist.to_dict()
        # recording continues, new series grow the matrix past the restored rows
        for core in range(3, 100):
            restored.record_stage("gro", core, "udp", 1.0, 2.0)
            hist.record_stage("gro", core, "udp", 1.0, 2.0)
        assert restored.to_dict() == hist.to_dict()


class TestHistogramAlgebra:
    def test_exact_aggregates(self):
        h = _record_many([1.9, 100.2, 7.0, 100.7])
        ser = h.to_dict()
        assert ser["count"] == 4
        assert ser["sum_ns"] == 1 + 100 + 7 + 100  # floored to int ns
        assert ser["min_ns"] == 1 and ser["max_ns"] == 100
        assert sum(c for _, c in ser["buckets"]) == 4

    def test_empty_serializes_zeroed(self):
        ser = LatencyHistogram().to_dict()
        assert ser == {
            "count": 0, "sum_ns": 0, "min_ns": 0, "max_ns": 0, "buckets": []
        }

    @given(st.lists(st.integers(0, 10**9), min_size=0, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_single_histogram(self, values):
        """Splitting a stream arbitrarily and merging == one histogram."""
        whole = _record_many(values).to_dict()
        third = max(1, len(values) // 3)
        parts = [
            _record_many(values[:third]).to_dict(),
            _record_many(values[third:2 * third]).to_dict(),
            _record_many(values[2 * third:]).to_dict(),
        ]
        assert merge_series(parts) == whole

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_merge_order_invariance(self, values):
        half = len(values) // 2
        a = _record_many(values[:half]).to_dict()
        b = _record_many(values[half:]).to_dict()
        assert json.dumps(merge_series([a, b]), sort_keys=True) == json.dumps(
            merge_series([b, a]), sort_keys=True
        )

    def test_merge_payloads_rejects_nothing(self):
        with pytest.raises(ValueError):
            merge_payloads([])

    def test_merge_payloads_rejects_foreign_geometry(self):
        hist = StageHistograms()
        payload = hist.to_dict()
        payload["geometry"]["sub_buckets"] = 8
        with pytest.raises(ValueError):
            merge_payloads([payload])

    def test_quantiles_and_samples(self):
        values = list(range(1000))
        ser = _record_many(values).to_dict()
        assert series_mean_ns(ser) == pytest.approx(sum(values) / len(values))
        assert series_quantile_ns(ser, 0.0) == 0
        assert series_quantile_ns(ser, 1.0) == 999
        p50 = series_quantile_ns(ser, 0.5)
        lo, hi = bucket_bounds(bucket_index(499))
        assert lo - (hi - lo) <= p50 <= hi + (hi - lo)
        samples = series_samples(ser, cap=100)
        assert len(samples) == 100
        assert samples == sorted(samples)
        assert min(values) <= samples[0] and samples[-1] <= max(values) + 64

    def test_samples_of_empty_series(self):
        assert series_samples(LatencyHistogram().to_dict()) == []

    def test_stage_rollup_includes_core_pseudo_stages(self):
        hist = StageHistograms()
        hist.stage_names = frozenset({"gro"})
        hist.record_stage("gro", 1, "tcp", 10.0, 20.0)
        hist.record_stage("gro", 2, "tcp", 30.0, 40.0)
        hist.record_core("softirq:x", 1, 5.0)
        rollup = stage_rollup(hist.to_dict())
        assert rollup["gro"]["queue"]["count"] == 2
        assert rollup["gro"]["service"]["sum_ns"] == 60
        assert rollup["softirq:x"]["service"]["count"] == 1
        assert rollup["softirq:x"]["queue"]["count"] == 0

    def test_core_tags_off_drops_system_work(self):
        hist = StageHistograms(HistConfig(core_tags=False))
        hist.record_core("irq:pnic", 0, 5.0)
        hist.record_stage("gro", 0, "tcp", 1.0, 2.0)
        payload = hist.to_dict()
        assert payload["cores"] == {}
        assert payload["stages"]["gro"]["0"]["tcp"]["service"]["count"] == 1


# ------------------------------------------------------------- scenario wiring
class TestScenarioHistograms:
    def test_hist_on_by_default_and_populated(self):
        res = run_single_flow("mflow", "tcp", 65536, seed=0, **TINY)
        assert res.hist is not None
        assert res.hist["schema"] == 1
        assert "gro" in res.hist["stages"]
        assert any(tag.startswith("irq:") for tag in res.hist["cores"])

    def test_hist_off_identical_timeline(self):
        """Disabling histograms changes nothing but the payload."""
        on = run_single_flow("mflow", "tcp", 65536, seed=0, **TINY)
        off = run_single_flow("mflow", "tcp", 65536, seed=0, hist=False, **TINY)
        assert off.hist is None
        on_dict = scenario_result_to_dict(on)
        off_dict = scenario_result_to_dict(off)
        on_dict.pop("hist")
        assert "hist" not in off_dict
        assert json.dumps(on_dict, sort_keys=True) == json.dumps(
            off_dict, sort_keys=True
        )

    def test_counts_match_stage_work(self):
        """Every histogram count is a real executed work item: the service
        sums must equal the cores' tagged busy time."""
        sc = build_scenario("vanilla", "tcp", 65536, seed=1)
        res = sc.run(**TINY)
        busy = {}
        for core in sc.cpus:
            for tag, ns in core.busy_ns.items():
                busy[tag] = busy.get(tag, 0.0) + ns
        rollup = stage_rollup(res.hist)
        for stage, kinds in rollup.items():
            service = kinds["service"]
            assert stage in busy
            # hist floors each span to int ns: within count ns of exact
            assert busy[stage] - service["count"] <= service["sum_ns"] <= busy[stage] + 1

    def test_records_round_trip(self):
        res = run_single_flow("rps", "tcp", 65536, seed=2, **TINY)
        again = scenario_result_from_dict(
            json.loads(json.dumps(scenario_result_to_dict(res)))
        )
        assert again.hist == res.hist

    def test_flow_classes_key_by_proto(self):
        res = run_single_flow("vanilla", "udp", 1024, seed=0, **TINY)
        classes = set()
        for by_core in res.hist["stages"].values():
            for by_class in by_core.values():
                classes.update(by_class)
        assert classes == {"udp"}


# ---------------------------------------------- journey-vs-histogram envelope
class TestJourneyEnvelope:
    """The PR-3 journey decomposition is a *sampled* view of the same
    spans the histograms count exhaustively — so every journey aggregate
    must sit inside the exact histogram envelope."""

    @pytest.mark.parametrize("system", ["vanilla", "mflow"])
    def test_journeys_inside_histogram_envelope(self, system):
        sc = build_scenario(
            system, "tcp", 65536, seed=4,
            obs={"enabled": True, "interval_ns": 200_000.0, "capacity": 50_000},
        )
        res = sc.run(**SHORT)
        dec = decompose(sc.journeys)
        assert dec.n_journeys > 0
        rollup = stage_rollup(res.hist)
        checked = 0
        for name, agg in dec.stages.items():
            if name not in rollup:
                continue
            service = rollup[name]["service"]
            queue = rollup[name]["queue"]
            # journeys sample a subset of the counted population
            assert agg.visits <= service["count"]
            # subset sums bounded by the exact sums (+1ns/visit flooring)
            assert agg.service_ns <= service["sum_ns"] + service["count"]
            assert agg.queue_ns <= queue["sum_ns"] + queue["count"]
            # per-visit means inside the recorded [min, max+1) envelope
            mean_service = agg.service_ns / agg.visits
            assert service["min_ns"] <= mean_service < service["max_ns"] + 1
            checked += 1
        assert checked >= 3


# --------------------------------------------------- sweep-level merge algebra
class TestSweepMerge:
    def _specs(self):
        return [
            RunSpec.make(
                "sockperf",
                {"system": system, "proto": "tcp", "size": 65536},
                tags=("hist", system),
                **TINY,
            )
            for system in ("vanilla", "rps", "mflow")
        ]

    def test_serial_equals_parallel_sweep_byte_identical(self, tmp_path):
        serial = RunEngine(
            jobs=1, global_seed=5, results_dir=tmp_path / "serial"
        ).run("hist", self._specs())
        parallel = RunEngine(
            jobs=2, global_seed=5, results_dir=tmp_path / "parallel"
        ).run("hist", self._specs())
        for s, p in zip(serial, parallel):
            assert s.measurements["hist"] == p.measurements["hist"]
        merged_serial = merge_payloads([r.measurements["hist"] for r in serial])
        merged_parallel = merge_payloads(
            [r.measurements["hist"] for r in reversed(parallel)]
        )
        assert json.dumps(merged_serial, sort_keys=True) == json.dumps(
            merged_parallel, sort_keys=True
        )

    def test_merged_counts_are_summed(self, tmp_path):
        records = RunEngine(
            jobs=1, global_seed=5, results_dir=tmp_path / "r"
        ).run("hist", self._specs()[:2])
        hists = [r.measurements["hist"] for r in records]
        merged = stage_rollup(merge_payloads(hists))
        for stage in merged:
            parts = sum(
                stage_rollup(h).get(stage, {}).get("service", {}).get("count", 0)
                for h in hists
            )
            assert merged[stage]["service"]["count"] == parts


# -------------------------------------------------------------------- diffing
def _write_run_record(path, res, **extra):
    doc = {"spec_key": "x", "measurements": scenario_result_to_dict(res)}
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


class TestDiff:
    def test_self_diff_is_clean(self, tmp_path):
        res = run_single_flow("mflow", "tcp", 65536, seed=0, **TINY)
        a = _write_run_record(tmp_path / "a.json", res)
        diff = diff_paths(a, a)
        assert diff.exit_code() == 0
        assert diff.total_shift_ns == 0
        assert all(r.status == "ok" for r in diff.rows)

    def test_cpu_stall_flags_core_stage_queueing(self, tmp_path):
        baseline = run_single_flow("mflow", "tcp", 65536, seed=0, **SHORT)
        stalled = run_single_flow(
            "mflow", "tcp", 65536, seed=0, faults="noisy-core", **SHORT
        )
        a = _write_run_record(tmp_path / "a.json", baseline)
        b = _write_run_record(tmp_path / "b.json", stalled)
        diff = diff_paths(a, b)
        assert diff.exit_code() == 1
        assert diff.total_shift_ns > 0
        top = diff.rows[0]
        assert top.status == "regression"
        # a CPU stall shows up as queueing (work waits), not service
        assert top.series == "queue"
        # ranked by contribution: shares must be non-increasing
        shares = [r.share_pct for r in diff.rows]
        assert shares == sorted(shares, reverse=True)
        assert abs(sum(shares) - 100.0) < 1e-6

    def test_improvement_is_not_a_regression(self, tmp_path):
        slow = run_single_flow(
            "mflow", "tcp", 65536, seed=0, faults="noisy-core", **SHORT
        )
        fast = run_single_flow("mflow", "tcp", 65536, seed=0, **SHORT)
        a = _write_run_record(tmp_path / "a.json", slow)
        b = _write_run_record(tmp_path / "b.json", fast)
        diff = diff_paths(a, b)
        assert diff.exit_code() == 0
        assert any(r.status == "improvement" for r in diff.rows)

    def test_sweep_dir_source_merges_runs(self, tmp_path):
        runs = tmp_path / "sweep" / "runs"
        runs.mkdir(parents=True)
        r1 = run_single_flow("vanilla", "tcp", 65536, seed=0, **TINY)
        r2 = run_single_flow("rps", "tcp", 65536, seed=0, **TINY)
        _write_run_record(runs / "one.json", r1)
        _write_run_record(runs / "two.json", r2)
        source = load_hist_source(tmp_path / "sweep")
        assert source.kind == "sweep" and source.n_merged == 2
        direct = merge_payloads([r1.hist, r2.hist])
        assert json.dumps(source.payload, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_source_without_hist_raises(self, tmp_path):
        res = run_single_flow("vanilla", "tcp", 65536, seed=0, hist=False, **TINY)
        a = _write_run_record(tmp_path / "a.json", res)
        with pytest.raises(ValueError):
            load_hist_source(a)

    def test_report_and_json_shapes(self, tmp_path):
        res = run_single_flow("mflow", "tcp", 65536, seed=0, **TINY)
        a = _write_run_record(tmp_path / "a.json", res)
        diff = diff_paths(a, a)
        text = diff.report()
        assert "Stage latency diff" in text and "| stage |" in text
        doc = diff.to_json_dict()
        assert doc["kind"] == "repro-diff" and doc["ok"] is True
        json.dumps(doc)  # JSON-safe

    def test_cli_diff_exit_codes(self, tmp_path, capsys):
        base = run_single_flow("mflow", "tcp", 65536, seed=0, **SHORT)
        stalled = run_single_flow(
            "mflow", "tcp", 65536, seed=0, faults="noisy-core", **SHORT
        )
        a = _write_run_record(tmp_path / "a.json", base)
        b = _write_run_record(tmp_path / "b.json", stalled)
        assert cli_main(["diff", str(a), str(a)]) == 0
        out_json = tmp_path / "diff.json"
        out_md = tmp_path / "diff.md"
        code = cli_main([
            "diff", str(a), str(b),
            "--json-out", str(out_json), "--md-out", str(out_md),
        ])
        assert code == 1
        capsys.readouterr()
        doc = json.loads(out_json.read_text())
        assert doc["ok"] is False
        assert "regression" in out_md.read_text()


# --------------------------------------------------- kill → resume exactness
def _kill_after_first_save(monkeypatch):
    from repro.resilience.checkpoint import Checkpointer

    orig = Checkpointer.save

    def save_then_die(self, sim):
        orig(self, sim)
        raise KilledMidRun()

    monkeypatch.setattr(Checkpointer, "save", save_then_die)
    return orig


class KilledMidRun(BaseException):
    """Stands in for SIGKILL: escapes the run loop without cleanup."""


class TestKillResumeHistExactness:
    """Histogram counts survive checkpoint → SIGKILL → resume exactly:
    no span double-counted across the snapshot boundary, none lost."""

    @pytest.mark.parametrize("system", ["vanilla", "rss", "rps", "mflow"])
    def test_resumed_hist_byte_identical(self, tmp_path, monkeypatch, system):
        from repro.resilience.checkpoint import Checkpointer, checkpoint_scope

        golden = run_single_flow(system, "tcp", 65536, seed=3, **SHORT)
        assert golden.hist is not None

        orig = _kill_after_first_save(monkeypatch)
        with checkpoint_scope(tmp_path, "k", every_sim_ns=400_000.0):
            with pytest.raises(KilledMidRun):
                run_single_flow(system, "tcp", 65536, seed=3, **SHORT)

        monkeypatch.setattr(Checkpointer, "save", orig)
        with checkpoint_scope(tmp_path, "k", every_sim_ns=400_000.0) as ctx:
            resumed = run_single_flow(system, "tcp", 65536, seed=3, **SHORT)
        assert ctx.restores == 1
        assert json.dumps(resumed.hist, sort_keys=True) == json.dumps(
            golden.hist, sort_keys=True
        )


# ---------------------------------------------------------- sweep-level views
def _sockperf_sweep(tmp_path, systems=("vanilla", "mflow")):
    specs = [
        RunSpec.make(
            "sockperf",
            {"system": system, "proto": "tcp", "size": 65536},
            **TINY,
        )
        for system in systems
    ]
    engine = RunEngine(jobs=1, global_seed=7, results_dir=tmp_path)
    records = engine.run("histsweep", specs)
    return tmp_path / "histsweep", records


class TestSweepViews:
    def test_eta_zero_when_all_terminal_cells_cached(self):
        from repro.obs.live.status import CellStatus, SweepStatus

        status = SweepStatus("exp", Path("/nonexistent"))
        status.cells = [
            CellStatus(spec_key="a", label="a", phase="cached", cached=True),
            CellStatus(spec_key="b", label="b", phase="pending"),
        ]
        assert status.eta_s() == 0.0

    def test_eta_unknown_without_any_terminal_cell(self):
        from repro.obs.live.status import CellStatus, SweepStatus

        status = SweepStatus("exp", Path("/nonexistent"))
        status.cells = [
            CellStatus(spec_key="a", label="a", phase="running"),
            CellStatus(spec_key="b", label="b", phase="pending"),
        ]
        assert status.eta_s() is None

    def test_cached_resweep_eta_reads_done(self, tmp_path, capsys):
        """End-to-end: re-running a fully-cached sweep must not report an
        unknown ETA mid-flight — and finishes reading 'done'."""
        from repro.obs.live.status import SweepStatus

        _sockperf_sweep(tmp_path)
        sweep_dir, _ = _sockperf_sweep(tmp_path)  # all cache hits
        capsys.readouterr()
        status = SweepStatus.load(sweep_dir)
        assert status.cache_hits == len(status.cells)
        assert status.eta_s() == 0.0

    def test_openmetrics_stage_families(self, tmp_path):
        from repro.obs.live.openmetrics import (
            parse_openmetrics,
            render_openmetrics,
            sweep_families,
        )
        from repro.obs.live.status import SweepStatus

        sweep_dir, _ = _sockperf_sweep(tmp_path)
        text = render_openmetrics(sweep_families([SweepStatus.load(sweep_dir)]))
        families = parse_openmetrics(text)  # strict: raises on malformed
        assert "repro_run_stage_visits" in families
        assert "repro_run_stage_service_p99_nanoseconds" in families
        assert 'stage="gro"' in text
        assert "repro_run_stage_visits_total{" in text

    def test_report_sparklines_and_diff_section(self, tmp_path):
        from repro.obs.live.report import build_html, build_markdown
        from repro.obs.live.status import SweepStatus

        sweep_dir, records = _sockperf_sweep(tmp_path)
        status = SweepStatus.load(sweep_dir)
        diff = diff_payloads(
            records[0].measurements["hist"], records[1].measurements["hist"]
        ).to_json_dict()
        html = build_html([status], diff=diff)
        assert "Stage histograms" in html and "Stage latency diff" in html
        assert any(block in html for block in "▁▂▃▄▅▆▇█")
        md = build_markdown([status], diff=diff)
        assert "gro" in md and "Stage latency diff" in md

    def test_cli_report_embeds_diff(self, tmp_path, capsys):
        sweep_dir, _ = _sockperf_sweep(tmp_path)
        res = run_single_flow("mflow", "tcp", 65536, seed=0, **TINY)
        a = _write_run_record(tmp_path / "a.json", res)
        diff_json = tmp_path / "d.json"
        cli_main(["diff", str(a), str(a), "--json-out", str(diff_json)])
        out = tmp_path / "report.html"
        rc = cli_main([
            "report", str(tmp_path), "--out", str(out),
            "--diff", str(diff_json),
        ])
        capsys.readouterr()
        assert rc == 0
        assert "Stage latency diff" in out.read_text()


# ------------------------------------------------------------ perf_counter lint
class TestPerfCounterLint:
    """Grep-level gate: wall-clock reads must not leak into the simulator.

    ``time.perf_counter(`` (or a bare ``perf_counter`` imported with
    ``from time import perf_counter``) outside ``repro/perf`` either
    perturbs determinism hygiene or silently measures the wrong clock;
    the only sanctioned call sites are the perf observatory itself and
    lines explicitly marked ``# wallclock-ok`` (harness metering such as
    the sweep engine's per-run wall timers).
    """

    FORBIDDEN = re.compile(
        r"(?<!\w)time\.perf_counter\(|from\s+time\s+import\s+.*\bperf_counter\b"
    )
    EXEMPT_DIRS = {"perf"}

    def _src_root(self):
        import repro

        return Path(repro.__file__).parent

    def test_no_unmarked_perf_counter_outside_perf(self):
        root = self._src_root()
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = str(path.relative_to(root))
            if rel.split("/")[0] in self.EXEMPT_DIRS:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if self.FORBIDDEN.search(line) and "wallclock-ok" not in line:
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "unmarked wall-clock reads outside repro.perf (move the timing "
            "into repro.perf, or mark harness metering with "
            "'# wallclock-ok: <why>'):\n" + "\n".join(offenders)
        )

    def test_lint_actually_detects(self):
        assert self.FORBIDDEN.search("started = time.perf_counter()")
        assert not self.FORBIDDEN.search("mytime.perf_counter()")
        assert self.FORBIDDEN.search("from time import perf_counter")
        assert self.FORBIDDEN.search("from time import monotonic, perf_counter")
        assert not self.FORBIDDEN.search("from time import monotonic")
