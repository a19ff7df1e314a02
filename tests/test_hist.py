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
from repro.faults.plan import PLANS as FAULT_PLANS
from repro.obs.config import ObsConfig
from repro.obs.diff import diff_payloads, diff_sources, load_hist_source
from repro.obs.hist import (
    LINEAR_MAX,
    N_BUCKETS,
    SUB_BUCKETS,
    LatencyHistogram,
    StageHistograms,
    bucket_bounds,
    bucket_index,
    bucket_mid,
    merge_payloads,
    merge_series,
    series_mean_ns,
    series_quantile_ns,
    series_samples,
    stage_rollup,
)
from repro.runner import RunEngine, RunSpec
from repro.runner.records import scenario_result_from_dict, scenario_result_to_dict
from repro.workloads.multiflow import build_multiflow_scenario
from repro.workloads.options import RunOptions
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


def _log_hop(hist, key, queue, service):
    """Log a hop the way a core does (``submit, end, duration``), chosen so
    the per-hop expressions give exactly ``queue`` and ``service``: the
    hop starts at 0.0, so it ends at ``service`` after ``service`` and
    was submitted at ``-queue``."""
    assert _hop_spans(-queue, service, service) == (queue, service)
    hist.stage_series(*key).fromlist([-queue, service, service])


def _hop_spans(submit, end, dur):
    """The per-hop expressions: a hop's queue and service spans."""
    start = end - dur
    return start - submit, end - start


def _run_spans(submit, bounds, durs):
    """The per-hop expressions over a fused run's covered sub-stages: each
    is dispatched as the one before it completes."""
    spans = []
    for end, dur in zip(bounds[1:], durs):
        start = end - dur
        spans.append((start - submit, end - start))
        submit = end
    return spans


class _Reference:
    """The expected payload: one ``LatencyHistogram.record`` per span."""

    def __init__(self):
        self.stages = {}
        self.cores = {}

    def hop(self, key, queue, service):
        q, s = self.stages.setdefault(key, (LatencyHistogram(), LatencyHistogram()))
        q.record(queue)
        s.record(service)

    def system(self, key, duration):
        self.cores.setdefault(key, LatencyHistogram()).record(duration)

    def assert_matches(self, payload):
        # built in sorted key order, so the JSON comparison checks the
        # payload's key order too
        stages = {}
        for (stage, core, cls), (q, s) in sorted(self.stages.items()):
            stages.setdefault(stage, {}).setdefault(str(core), {})[cls] = {
                "queue": q.to_dict(), "service": s.to_dict(),
            }
        cores = {}
        for (tag, core), h in sorted(self.cores.items()):
            cores.setdefault(tag, {})[str(core)] = h.to_dict()
        assert payload["stages"] == stages
        assert payload["cores"] == cores
        assert json.dumps(payload["stages"]) == json.dumps(stages)
        assert json.dumps(payload["cores"]) == json.dumps(cores)


class TestInlinedRecordPaths:
    """The logs the cores append to (folded by ``to_dict``) and
    ``LatencyHistogram.record`` must bucket every span identically."""

    @given(st.lists(_RECORD_VALUES, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_inlined_paths_match_record_and_bucket_index(self, values):
        hist = StageHistograms()
        ref = _Reference()
        for a, b in zip(values, reversed(values)):
            _log_hop(hist, ("gro", 1, "tcp"), a, b)
            hist.core_series("irq:pnic", 1).append(a)
            ref.hop(("gro", 1, "tcp"), a, b)
            ref.system(("irq:pnic", 1), a)
        ref.assert_matches(hist.to_dict())
        expected = [0] * N_BUCKETS
        for v in values:
            expected[bucket_index(max(int(v), 0))] += 1
        assert ref.stages["gro", 1, "tcp"][0].counts == expected


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
    """An int value as a float, with or without a fractional part."""
    v, frac = t
    return float(v) + frac


_FRACS = st.sampled_from([0.0, 0.25, 0.999])


class TestBatchedFold:
    """The logs are folded in batches once the shared budget is charged;
    the payload must equal one ``LatencyHistogram.record`` call per span,
    across several folds and a pickle round-trip of an unfolded log."""

    STAGES = [(st_, c, cls) for st_ in ("gro", "vxlan", "tcp_rcv") for c in (1, 2, 3)
              for cls in ("tcp", "udp")]
    TAGS = [(tag, c) for tag in ("irq:pnic", "softirq:net_rx") for c in (1, 2)]
    PLANS = [(("ip_outer", "vxlan", "ip_inner"), 1, "tcp"), (("veth", "tcp_rcv"), 2, "tcp")]

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
        ref = _Reference()
        pickled = False
        for op in range(n_ops):
            a = huge_at.get(op, rng.choice(small))
            b = rng.choice(small)
            kind = rng.random()
            if kind < 0.7:
                key = rng.choice(self.STAGES)
                _log_hop(hist, key, a, b)
                ref.hop(key, a, b)
                logged, spans = hist.stage_series(*key), 1
            elif kind < 0.9:
                key = rng.choice(self.TAGS)
                hist.core_series(*key).append(a)
                ref.system(key, a)
                logged, spans = hist.core_series(*key), 1
            else:
                # a fused run, maybe cut short: submit, bounds, durations
                stages, core, cls = rng.choice(self.PLANS)
                m = rng.randint(1, len(stages))
                submit = abs(a) % 2**40
                bounds = [submit + abs(rng.choice(small)) % 2**20]
                durs = []
                for _ in range(m):
                    durs.append(abs(rng.choice(small)) % 2**20 + 0.5)
                    bounds.append(bounds[-1] + durs[-1])
                logged = hist.plan_series(stages, core, cls)[m]
                logged.fromlist([submit, *bounds, *durs])
                for stage, (queue, service) in zip(stages, _run_spans(submit, bounds, durs)):
                    ref.hop((stage, core, cls), queue, service)
                spans = m
            if not pickled and op >= pickle_at * n_ops:
                assert len(logged)  # the checkpoint carries an unfolded log
                hist = pickle.loads(pickle.dumps(hist))
                pickled = True
            hist.charge(spans)
        assert pickled
        payload = hist.to_dict()
        ref.assert_matches(payload)
        assert json.dumps(payload) == json.dumps(hist.to_dict())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float(2**63)])
    def test_rejected_span_raises_at_fold_and_keeps_the_batch(self, bad):
        hist = StageHistograms()
        _log_hop(hist, ("gro", 1, "tcp"), 5.0, 7.0)
        hist.to_dict()  # folded
        _log_hop(hist, ("gro", 1, "tcp"), 40.0, 3.0)
        bad_log = hist.stage_series("vxlan", 2, "tcp")
        bad_log.fromlist([-bad, 9.0, 9.0])
        for _ in range(2):  # every fold meets it again: the batch is kept
            with pytest.raises((ValueError, IndexError)):
                hist.to_dict()
        assert len(hist.stage_series("gro", 1, "tcp")) == 3
        assert len(bad_log) == 3
        bad_log[0] = -11.0  # replace the bad span
        payload = hist.to_dict()
        ref = LatencyHistogram()
        ref.record(5.0)
        ref.record(40.0)  # once: the failed folds moved nothing
        assert payload["stages"]["gro"]["1"]["tcp"]["queue"] == ref.to_dict()
        assert payload["stages"]["vxlan"]["2"]["tcp"]["queue"]["sum_ns"] == 11

    def test_checkpoint_carries_used_rows_only(self):
        import pickle

        hist = StageHistograms()
        for core in range(3):
            _log_hop(hist, ("gro", core, "tcp"), 100.0 + core, 2.0**40)
        hist.core_series("irq:pnic", 1).append(17.0)
        hist.to_dict()
        blob = pickle.dumps(hist)
        assert len(blob) < N_BUCKETS * 8  # less than one dense int64 row
        restored = pickle.loads(blob)
        assert restored.to_dict() == hist.to_dict()
        # recording continues, new series grow the matrix past the restored rows
        for core in range(3, 100):
            _log_hop(restored, ("gro", core, "udp"), 1.0, 2.0)
            _log_hop(hist, ("gro", core, "udp"), 1.0, 2.0)
        assert restored.to_dict() == hist.to_dict()


# ------------------------------------------------ recording at the core: oracle
def _token(*_):
    """A work item's callback: the spy identifies items by their args."""


class _RunShape:
    """What a pipeline ``RunPlan`` hands :meth:`Core.submit_run`."""

    def __init__(self, hist, tags, core, guarded):
        self.tags = tags
        self.guards = tuple(range(1, len(tags))) if guarded else ()
        self.limit = 2
        self.series = hist.plan_series(tags, core.id, "tcp")

    def finish(self, run):
        """The run's remaining sub-stages are simply not executed."""


class _Spy:
    """Wraps a core's completion callbacks to see each completion's
    duration, or a fused run's covered boundaries and durations, and
    feeds the reference the spans the per-hop expressions give."""

    def __init__(self, core, ref):
        self.core = core
        self.ref = ref
        self.inner = core._on_complete
        self.inner_run = core._on_run_complete
        core._on_complete = self.complete
        core._on_run_complete = self.complete_run

    def complete(self, item, duration):
        kind, key, submit = item.args
        if kind == "stage":
            self.ref.hop(key, *_hop_spans(submit, self.core.sim.now, duration))
        else:
            self.ref.system(key, duration)
        self.inner(item, duration)

    def complete_run(self, run):
        tags, submit = run.item
        spans = _run_spans(submit, list(run.bounds), list(run.durs))
        for tag, (queue, service) in zip(tags, spans):
            self.ref.hop((tag, self.core.id, "tcp"), queue, service)
        self.inner_run(run)


_COSTS = st.floats(0.0, 3_000.0)
_ORACLE_OPS = st.lists(
    st.tuples(
        st.floats(0.0, 20_000.0),  # submit time
        st.integers(0, 1),  # core
        st.one_of(
            st.tuples(st.just("stage"), st.sampled_from(["gro", "vxlan", "tcp_rcv"]),
                      _COSTS, st.booleans()),
            st.tuples(st.just("system"), st.sampled_from(["irq:pnic", "softirq:net_rx"]),
                      _COSTS),
            st.tuples(st.just("run"), st.lists(_COSTS, min_size=1, max_size=5),
                      st.booleans(), st.booleans()),
        ),
    ),
    max_size=40,
)
_RUN_TAGS = ("skb_alloc", "ip_outer", "vxlan", "ip_inner", "tcp_rcv")


def _oracle_rig(ops, seed=7, base=0.0):
    """Two jittered cores with histograms, and ``ops`` scheduled on them
    from time ``base``."""
    import numpy as np

    from repro.cpu.core import Core
    from repro.sim.engine import Simulator

    sim = Simulator()
    hist = StageHistograms()
    cores = [
        Core(sim, i, jitter_sigma=0.4, rng=np.random.default_rng(seed + i)) for i in range(2)
    ]
    for core in cores:
        core.hist = hist
    for at, idx, op in ops:
        sim.call_at(base + at, _submit, sim, hist, cores[idx], op)
    return sim, hist, cores


def _submit(sim, hist, core, op):
    now = sim.now
    if op[0] == "stage":
        _, stage, cost, front = op
        key = (stage, core.id, "tcp")
        submit = core.submit_front_call if front else core.submit_call
        submit(stage, cost, _token, "stage", key, now,
               series=hist.stage_series(*key))
    elif op[0] == "system":
        _, tag, cost = op
        core.submit_call(tag, cost, _token, "system", (tag, core.id), now)
    else:
        _, costs, front, guarded = op
        tags = _RUN_TAGS[:len(costs)]
        core.submit_run(_RunShape(hist, tags, core, guarded), list(costs), (tags, now), front)


class TestCoreRecordingOracle:
    """Cores log raw spans as work completes and the fold does the span
    arithmetic: the payload must equal one ``LatencyHistogram.record`` per
    span, each computed by the per-hop Python expressions, for any mix of
    stage items, system items and fused runs, including runs truncated at
    a ``run(until_ns)`` horizon and runs cut by a full backlog."""

    @given(
        ops=_ORACLE_OPS,
        horizons=st.lists(st.floats(0.0, 40_000.0), max_size=3),
        # late clocks, where a span's float arithmetic rounds to whole ns
        base=st.sampled_from([0.0, 2.0**44, 2.0**53]),
    )
    @settings(max_examples=300, deadline=None)
    def test_payload_equals_per_span_reference(self, ops, horizons, base):
        sim, hist, cores = _oracle_rig(ops, base=base)
        ref = _Reference()
        for core in cores:
            _Spy(core, ref)
        for horizon in sorted(horizons):
            sim.run(until_ns=base + horizon)
        sim.run()
        ref.assert_matches(hist.to_dict())

    def test_truncated_and_cut_runs_are_exercised(self):
        """The oracle's inputs reach both ways a run ends early."""

        def covered(hist):
            logs = hist.plan_series(_RUN_TAGS, 0, "tcp")
            return [m for m, log in enumerate(logs) if len(log)]

        ops = [(0.0, 0, ("run", [500.0] * 5, False, False))]
        sim, hist, _ = _oracle_rig(ops)
        sim.run(until_ns=1_200.0)  # the horizon falls inside the run
        assert covered(hist) == [2]
        ops = [(0.0, 0, ("run", [500.0] * 5, False, True))] + [
            (100.0, 0, ("system", "irq:pnic", 10.0))
        ] * 2
        sim, hist, _ = _oracle_rig(ops)
        sim.run(until_ns=1_000.0)  # two queued items fill the backlog: cut at the first guard
        assert covered(hist) == [1]

    def test_non_finite_span_raises_at_fold_and_keeps_the_log(self):
        ops = [(float(i * 300), i % 2, ("stage", "gro", 400.0, False)) for i in range(20)]
        sim, hist, cores = _oracle_rig(ops)
        ref = _Reference()
        for core in cores:
            _Spy(core, ref)
        sim.run()
        log = hist.stage_series("gro", 0, "tcp")
        logged = len(log)
        assert logged
        log.fromlist([float("nan"), 1.0, 1.0])
        with pytest.raises(ValueError):
            hist.fold()
        assert len(log) == logged + 3  # nothing folded, nothing dropped
        del log[-3:]
        ref.assert_matches(hist.to_dict())

    def test_checkpoint_round_trip_with_a_live_log(self):
        import pickle

        ops = [
            (float(i * 137), i % 2, op)
            for i, op in enumerate(
                [("stage", "gro", 900.0, False), ("system", "irq:pnic", 300.0),
                 ("run", [400.0, 250.0, 300.0], False, True), ("stage", "vxlan", 700.0, True)] * 12
            )
        ]
        golden, golden_hist, _ = _oracle_rig(ops)
        golden.run()
        sim, hist, cores = _oracle_rig(ops)
        sim.run(until_ns=3_000.0)
        # queued items and logged spans cross the snapshot together
        assert any(core.queue_depth for core in cores)
        assert len(hist.stage_series("gro", 0, "tcp"))
        sim, hist, cores = pickle.loads(pickle.dumps((sim, hist, cores)))
        sim.run()
        assert json.dumps(hist.to_dict()) == json.dumps(golden_hist.to_dict())


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
        _log_hop(hist, ("gro", 1, "tcp"), 10.0, 20.0)
        _log_hop(hist, ("gro", 2, "tcp"), 30.0, 40.0)
        hist.core_series("softirq:x", 1).append(5.0)
        rollup = stage_rollup(hist.to_dict())
        assert rollup["gro"]["queue"]["count"] == 2
        assert rollup["gro"]["service"]["sum_ns"] == 60
        assert rollup["softirq:x"]["service"]["count"] == 1
        assert rollup["softirq:x"]["queue"]["count"] == 0

    def test_merge_payloads_accepts_an_old_config_key(self):
        hist = StageHistograms()
        _log_hop(hist, ("gro", 0, "tcp"), 1.0, 2.0)
        hist.core_series("irq:pnic", 0).append(5.0)
        payload = hist.to_dict()
        old = {**payload, "config": {"enabled": True, "core_tags": True}}
        assert merge_payloads([old]) == merge_payloads([payload]) == payload


# ------------------------------------------------------------- scenario wiring
class TestScenarioHistograms:
    def test_hist_on_by_default_and_populated(self):
        res = run_single_flow("mflow", "tcp", 65536, seed=0, **TINY)
        assert res.hist is not None
        assert res.hist["schema"] == 1
        assert "gro" in res.hist["stages"]
        assert any(tag.startswith("irq:") for tag in res.hist["cores"])

    def test_hist_off_identical_timeline(self):
        """Histograms detached from a built scenario change nothing but
        the payload, on MFLOW TCP and UDP and on vanilla with 8 flows."""
        for build in (
            lambda: build_scenario("mflow", "tcp", 65536, seed=0),
            lambda: build_scenario("mflow", "udp", 65536, seed=0),
            lambda: build_multiflow_scenario("vanilla", 8, 4096, seed=0),
        ):
            on = scenario_result_to_dict(build().run(**TINY))
            sc = build()
            sc.pipeline.hist = None
            for core in sc.cpus:
                core.hist = None
            off = scenario_result_to_dict(sc.run(**TINY))
            assert on.pop("hist")["stages"] and not off.pop("hist")["stages"]
            assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)

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
            options=RunOptions(obs=ObsConfig(interval_ns=200_000.0, capacity=50_000)),
        )
        res = sc.run(**SHORT)
        dec = decompose(sc.recorder.journeys)
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


STALLED = RunOptions(faults=FAULT_PLANS["noisy-core"])


def _diff(path_a, path_b):
    return diff_sources(load_hist_source(path_a), load_hist_source(path_b))


class TestDiff:
    def test_self_diff_is_clean(self, tmp_path):
        res = run_single_flow("mflow", "tcp", 65536, seed=0, **TINY)
        a = _write_run_record(tmp_path / "a.json", res)
        diff = _diff(a, a)
        assert diff.exit_code() == 0
        assert diff.total_shift_ns == 0
        assert all(r.status == "ok" for r in diff.rows)

    def test_cpu_stall_flags_core_stage_queueing(self, tmp_path):
        baseline = run_single_flow("mflow", "tcp", 65536, seed=0, **SHORT)
        stalled = run_single_flow(
            "mflow", "tcp", 65536, seed=0, options=STALLED, **SHORT
        )
        a = _write_run_record(tmp_path / "a.json", baseline)
        b = _write_run_record(tmp_path / "b.json", stalled)
        diff = _diff(a, b)
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
            "mflow", "tcp", 65536, seed=0, options=STALLED, **SHORT
        )
        fast = run_single_flow("mflow", "tcp", 65536, seed=0, **SHORT)
        a = _write_run_record(tmp_path / "a.json", slow)
        b = _write_run_record(tmp_path / "b.json", fast)
        diff = _diff(a, b)
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
        # a memcached record: its cells carry no stage histograms
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"spec_key": "x", "measurements": {
            "kind": "memcached", "latency": {}, "events_executed": 1}}))
        with pytest.raises(ValueError):
            load_hist_source(a)

    def test_report_and_json_shapes(self, tmp_path):
        res = run_single_flow("mflow", "tcp", 65536, seed=0, **TINY)
        a = _write_run_record(tmp_path / "a.json", res)
        diff = _diff(a, a)
        text = diff.report()
        assert "Stage latency diff" in text and "| stage |" in text
        doc = diff.to_json_dict()
        assert doc["kind"] == "repro-diff" and doc["ok"] is True
        json.dumps(doc)  # JSON-safe

    def test_cli_diff_exit_codes(self, tmp_path, capsys):
        base = run_single_flow("mflow", "tcp", 65536, seed=0, **SHORT)
        stalled = run_single_flow(
            "mflow", "tcp", 65536, seed=0, options=STALLED, **SHORT
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
