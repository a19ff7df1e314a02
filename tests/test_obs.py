"""Tests for the flight recorder, its consumers, and non-perturbation.

Covers the observability acceptance criteria:

* trace export conforms to the Chrome ``trace_events`` schema,
* the latency decomposition's components sum to the mean end-to-end
  latency (the telescoping identity, pinned to within 1%),
* a run with no obs config is bit-identical to an uninstrumented one,
  and an instrumented run perturbs nothing but ``events_executed``/``obs``.
"""

import io
import json

import pytest

from repro.obs import (
    Decomposition,
    FlightRecorder,
    JourneyTracker,
    ObsConfig,
    to_trace_events,
    write_trace,
)
from repro.obs.decompose import Hop
from repro.obs.perfetto import GLOBAL_TRACK_TID, TRACE_PID
from repro.workloads.options import RunOptions
from repro.workloads.sockperf import run_single_flow

WINDOWS = dict(warmup_ns=0.5e6, measure_ns=2e6)
OBS = RunOptions(obs=ObsConfig())


# ---------------------------------------------------------------- recorder
class TestFlightRecorder:
    def test_instants_and_spans(self):
        rec = FlightRecorder()
        rec.instant("irq_raise", t_ns=100.0, core=1, ring_depth=3)
        rec.span("gro", 200.0, 350.0, core=2)
        evs = rec.events()
        assert [e.kind for e in evs] == ["I", "X"]
        assert evs[0].fields == {"ring_depth": 3}
        assert evs[1].dur_ns == pytest.approx(150.0)
        assert evs[1].end_ns == pytest.approx(350.0)

    def test_bound_clock_supplies_timestamps(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        rec = FlightRecorder()
        rec.bind_clock(sim)
        sim.call_in(42.0, lambda: rec.instant("tick"))
        sim.run()
        assert rec.events()[0].t_ns == pytest.approx(42.0)

    def test_events_sorted_by_time_then_seq(self):
        rec = FlightRecorder()
        rec.instant("b", t_ns=50.0)
        rec.instant("a", t_ns=10.0)
        rec.instant("c", t_ns=10.0)
        assert [e.name for e in rec.events()] == ["a", "c", "b"]

    def test_exact_below_capacity(self):
        rec = FlightRecorder(capacity=100)
        for i in range(100):
            rec.instant("e", t_ns=float(i))
        assert rec.events_kept == 100
        assert rec.events_dropped == 0

    def test_reservoir_above_capacity(self):
        rec = FlightRecorder(capacity=64)
        for i in range(10_000):
            rec.instant("e", t_ns=float(i), i=i)
        assert rec.events_kept == 64
        assert rec.events_seen == 10_000
        assert rec.events_dropped == 10_000 - 64

    def test_reservoir_deterministic(self):
        def run(seed):
            rec = FlightRecorder(capacity=32, seed=seed)
            for i in range(2_000):
                rec.instant("e", t_ns=float(i))
            return [e.t_ns for e in rec.events()]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_helpers(self):
        rec = FlightRecorder()
        rec.instant("a", t_ns=1.0, core=3)
        rec.instant("b", t_ns=2.0, core=1)
        rec.instant("a", t_ns=3.0)
        assert rec.count_named("a") == 2
        assert [e.name for e in rec.iter_named("b")] == ["b"]
        assert rec.cores() == [1, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# ------------------------------------------------------------------ config
class TestObsConfig:
    def test_resolve_disabled_forms(self):
        """"Off" is no config: there is no off switch inside one."""
        assert RunOptions().obs is None
        assert RunOptions.from_params({}).obs is None
        assert RunOptions.from_params({"obs": None}).obs is None
        with pytest.raises(ValueError, match="unknown ObsConfig fields"):
            RunOptions.from_params({"obs": {"enabled": False}})

    def test_resolve_enabled_forms(self):
        assert RunOptions(obs=ObsConfig()).obs == ObsConfig()
        cfg = RunOptions.from_params({"obs": {"interval_ns": 5e4, "capacity": 99}}).obs
        assert cfg.interval_ns == 5e4 and cfg.capacity == 99
        cfg = ObsConfig(interval_ns=2e5)
        assert RunOptions(obs=cfg).obs is cfg

    def test_resolve_rejects_garbage(self):
        with pytest.raises(TypeError):
            RunOptions.from_params({"obs": 42})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunOptions.from_params({"obs": {"interval_ns": 0.0}})
        with pytest.raises(ValueError):
            RunOptions(obs=ObsConfig(capacity=0))

    def test_round_trips_through_dict(self):
        cfg = ObsConfig(interval_ns=1e5, capacity=10)
        assert ObsConfig.from_dict(cfg.to_dict()) == cfg


# ------------------------------------------------------------- trace export
def _validate_trace_events(trace: dict) -> None:
    """Assert the payload conforms to the trace_events JSON schema subset
    chrome://tracing and ui.perfetto.dev consume."""
    assert isinstance(trace["traceEvents"], list)
    for ev in trace["traceEvents"]:
        assert isinstance(ev["name"], str) and ev["name"]
        assert ev["ph"] in ("X", "i", "M")
        assert ev["pid"] == TRACE_PID
        if ev["ph"] == "M":
            assert ev["name"] in ("process_name", "thread_name", "thread_sort_index")
            assert isinstance(ev["args"], dict)
            continue
        assert isinstance(ev["tid"], int)
        assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
        assert isinstance(ev["cat"], str)
        if ev["ph"] == "X":
            assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
        else:
            assert ev["s"] in ("t", "g")
        if "args" in ev:
            for v in ev["args"].values():
                assert v is None or isinstance(v, (bool, int, float, str))


class TestPerfettoExport:
    def test_schema_and_tracks(self):
        rec = FlightRecorder()
        rec.span("gro", 100.0, 250.0, core=0)
        rec.instant("irq_raise", t_ns=50.0, core=1, ring_depth=2)
        rec.instant("fault_loss", t_ns=60.0)  # core-less -> global track
        trace = to_trace_events(rec, label="unit")
        _validate_trace_events(trace)
        events = trace["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names
        fault = next(e for e in events if e["name"] == "fault_loss")
        assert fault["tid"] == GLOBAL_TRACK_TID and fault["s"] == "g"
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == pytest.approx(0.1)  # ns -> us
        assert span["dur"] == pytest.approx(0.15)
        assert trace["otherData"]["events_seen"] == 3

    def test_write_trace_path_and_fileobj(self, tmp_path):
        rec = FlightRecorder()
        rec.instant("e", t_ns=1.0, core=0)
        path = tmp_path / "t.json"
        write_trace(rec, str(path))
        assert json.loads(path.read_text())["traceEvents"]
        buf = io.StringIO()
        write_trace(rec, buf)
        assert json.loads(buf.getvalue())["traceEvents"]

    def test_nonjson_args_coerced(self):
        rec = FlightRecorder()
        rec.instant("e", t_ns=1.0, flow=object())
        trace = to_trace_events(rec)
        _validate_trace_events(trace)


# ------------------------------------------------------------ decomposition
def _hop(stage, core, q, s, e):
    h = Hop(stage, core, q)
    h.start_ns, h.end_ns = s, e
    return h


class TestDecomposition:
    def test_telescoping_identity_synthetic(self):
        d = Decomposition()
        hops = [
            _hop("gro", 1, 100.0, 120.0, 150.0),   # queue 20, service 30
            _hop("sink", 0, 170.0, 180.0, 200.0),  # hold 20, queue 10, service 20
        ]
        d.add_journey(hops, arrival_ns=90.0)       # ring wait 10
        assert d.e2e_mean_us == pytest.approx((200.0 - 90.0) / 1e3)
        assert d.components_sum_us == pytest.approx(d.e2e_mean_us)
        rows = {r["stage"]: r for r in d.stage_rows()}
        assert rows["gro"]["queue_us"] == pytest.approx(0.020)
        assert rows["gro"]["hold_us"] == pytest.approx(0.020)
        assert rows["sink"]["service_us"] == pytest.approx(0.020)

    def test_report_and_dict(self):
        d = Decomposition()
        d.add_journey([_hop("sink", 0, 10.0, 12.0, 20.0)], arrival_ns=5.0)
        out = d.to_dict()
        assert out["n_journeys"] == 1
        assert out["components_sum_us"] == pytest.approx(out["e2e_mean_us"])
        assert "latency decomposition" in d.report()
        assert Decomposition().report() == "(no complete journeys sampled)"

    def test_incomplete_journeys_excluded(self):
        class FakeSkb:
            def __init__(self, tid):
                self.trace_id = tid
                self.packets = []

        tr = JourneyTracker(start_ns=0.0)
        done, half = FakeSkb(None), FakeSkb(None)

        class P:
            arrival_ts = 1.0

        done.packets = half.packets = [P()]
        tr.on_enqueue(done, "sink", 0, 10.0)
        tr.on_execute(done, "sink", 12.0, 20.0)
        tr.on_enqueue(half, "gro", 1, 10.0)  # never executes, never delivers
        complete = list(tr.complete_journeys())
        assert [tid for tid, _ in complete] == [done.trace_id]

    def test_dropped_journeys_excluded(self):
        class FakeSkb:
            trace_id = None

            class _P:
                arrival_ts = 0.0

            packets = [_P()]

        tr = JourneyTracker()
        skb = FakeSkb()
        tr.on_enqueue(skb, "sink", 0, 5.0)
        tr.on_execute(skb, "sink", 6.0, 9.0)
        tr.on_drop(skb, "sink")
        assert list(tr.complete_journeys()) == []

    def test_adopts_foreign_trace_ids(self):
        class FakeSkb:
            def __init__(self, tid):
                self.trace_id = tid

            class _P:
                arrival_ts = 0.0

            packets = [_P()]

        tr = JourneyTracker()
        tr.on_enqueue(FakeSkb(17), "sink", 0, 1.0)  # id from another tracker
        fresh = FakeSkb(None)
        tr.on_enqueue(fresh, "sink", 0, 2.0)
        assert fresh.trace_id == 18  # adopted id is never reused


# -------------------------------------------------------- end-to-end checks
class TestScenarioIntegration:
    @pytest.fixture(scope="class")
    def mflow_obs(self):
        return run_single_flow(
            "mflow", "tcp", 65536, n_split_cores=1, options=OBS, **WINDOWS
        )

    def test_decomposition_sums_within_1pct(self, mflow_obs):
        dec = mflow_obs.obs["decomposition"]
        assert dec["n_journeys"] > 0
        assert dec["components_sum_us"] == pytest.approx(
            dec["e2e_mean_us"], rel=0.01
        )

    def test_timeseries_has_subwindow_rows(self, mflow_obs):
        ts = mflow_obs.obs["timeseries"]
        assert len(ts["rows"]) >= 4
        for col in ("goodput_gbps", "backlog_depth", "ring_depth", "util_core0"):
            assert col in ts["columns"]

    def test_journeys_start_at_the_pipeline_head(self):
        """An skb already in flight when sampling starts is never adopted
        mid-path: every sampled journey begins at the head stage, with
        every frame it wraps arriving after the warmup horizon."""
        from repro.workloads.sockperf import build_scenario

        sc = build_scenario("mflow", "tcp", 65536, options=OBS)
        sc.run(**WINDOWS)
        tracker = sc.recorder.journeys
        head = sc.pipeline.head.stage.name
        assert tracker.n_journeys > 0
        for tid, hops in tracker.journeys.items():
            assert hops[0].stage == head
            assert tracker.arrival_ns[tid] >= WINDOWS["warmup_ns"]

    def test_obs_off_is_bit_identical(self):
        base = run_single_flow("mflow", "tcp", 65536, **WINDOWS)
        off = run_single_flow("mflow", "tcp", 65536, options=RunOptions(obs=None), **WINDOWS)
        assert off == base  # dataclass equality covers every field

    def test_obs_on_perturbs_nothing_but_event_count(self):
        base = run_single_flow("mflow", "tcp", 65536, **WINDOWS)
        on = run_single_flow("mflow", "tcp", 65536, options=OBS, **WINDOWS)
        assert on.obs is not None and on.events_executed > base.events_executed
        for name in (
            "throughput_gbps", "messages_delivered", "latency",
            "cpu_utilization", "cpu_breakdown", "counters", "drops",
            "ooo_arrivals", "window_ns", "fault_counters",
            "degradation_events",
        ):
            assert getattr(on, name) == getattr(base, name), name

    def test_trace_export_from_real_run(self, tmp_path):
        from repro.workloads.sockperf import build_scenario

        sc = build_scenario("mflow", "tcp", 65536, options=OBS)
        sc.run(**WINDOWS)
        trace = to_trace_events(sc.recorder, label="mflow")
        _validate_trace_events(trace)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) > 100
        assert len({e["tid"] for e in slices}) >= 2  # multiple core tracks
        assert sc.intervals.n_intervals >= 4
        n = sc.intervals.write_csv(str(tmp_path / "ts.csv"))
        assert n == sc.intervals.n_intervals

    def test_spec_hash_unchanged_when_obs_absent(self):
        from repro.runner.spec import RunSpec

        plain = RunSpec.make("sockperf", {"system": "mflow", "size": 65536})
        again = RunSpec.make("sockperf", {"system": "mflow", "size": 65536})
        with_obs = RunSpec.make(
            "sockperf",
            {"system": "mflow", "size": 65536, "obs": ObsConfig().to_dict()},
        )
        assert plain.key == again.key
        assert with_obs.key != plain.key

    def test_obs_payload_round_trips_records(self, mflow_obs):
        from repro.runner.records import (
            scenario_result_from_dict,
            scenario_result_to_dict,
        )

        data = scenario_result_to_dict(mflow_obs)
        assert "obs" in data
        back = scenario_result_from_dict(data)
        assert back.obs["decomposition"] == mflow_obs.obs["decomposition"]
        plain = run_single_flow("mflow", "tcp", 65536, **WINDOWS)
        assert "obs" not in scenario_result_to_dict(plain)


class TestTraceCli:
    def test_trace_command_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        perfetto = tmp_path / "trace.json"
        csv_path = tmp_path / "ts.csv"
        rc = main([
            "trace", "--system", "mflow", "--proto", "tcp", "--size", "65536",
            "--split-cores", "1", "--warmup-ms", "0.5", "--measure-ms", "2",
            "--perfetto", str(perfetto), "--timeseries", str(csv_path),
            "--decompose",
        ])
        assert rc == 0
        _validate_trace_events(json.loads(perfetto.read_text()))
        header = csv_path.read_text().splitlines()[0].split(",")
        assert "goodput_gbps" in header
        out = capsys.readouterr().out
        assert "latency decomposition" in out
