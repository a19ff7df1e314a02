"""Tests for the performance observatory (repro.perf).

Covers the layers and their contracts:

* ``repro prof`` — the cProfile run takes the timeline a plain run
  takes, lazy NIC arrivals included;
* statistics — the bootstrap CI is deterministic and behaves correctly
  on fixed synthetic samples;
* fidelity scoreboard — band classification on synthetic inputs (every
  check just inside and just outside each finite edge of its band), and
  the markdown/JSON emitters.
"""

import json
import math
import os

import pytest

from repro.cli import main as cli_main
from repro.netstack.nic import Nic, _RxQueue
from repro.perf.fidelity import (
    CHECKS,
    INF,
    FidelityCheck,
    FidelityInputs,
    _over,
    _under,
    classify,
    score,
)
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


# ----------------------------------------------------------------- CLI wiring
class TestCli:
    def test_prof_cli_smoke(self, capsys):
        assert cli_main(["prof", "--system", "vanilla", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "vanilla"
        assert payload["events_executed"] > 0 and payload["cost_centers"]
        assert cli_main(["prof", "--system", "vanilla", "--top", "3"]) == 0
        text = capsys.readouterr().out
        for heading in ("top functions", "top packages", "busiest NIC rings"):
            assert heading in text

    def test_prof_profiles_the_plain_run(self, capsys):
        """MFLOW TCP 64 KB under ``repro prof`` executes exactly the events
        a plain run does, with frames landing lazily (more ring landings
        than arrival entries), and rolls self time up by package."""
        argv = ["prof", "--json", "--warmup-ms", "0.5", "--measure-ms", "2", "--top", "100000"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        plain = run_single_flow("mflow", "tcp", 65536, **WINDOWS)
        assert payload["events_executed"] == plain.events_executed
        calls = {f["name"]: f["calls"] for f in payload["cost_centers"]}

        def ncalls(fn):
            code = fn.__code__
            where = os.path.join("netstack", "nic.py")
            return calls.get(f"{where}:{code.co_firstlineno}({code.co_name})", 0)

        assert ncalls(_RxQueue.receive) > ncalls(Nic._arrive) > 0
        packages = {row["package"] for row in payload["packages"]}
        assert {"sim", "cpu", "netstack", "ext"} <= packages


# -------------------------------------------------------------------- fidelity
#: inputs engineered to land inside every band (near the quick-window values)
SYNTHETIC = {
    "fig4.tcp.native": 24.0, "fig4.tcp.vanilla": 13.0, "fig4.tcp.rps": 14.5,
    "fig4.tcp.falcon-dev": 22.0, "fig4.tcp.falcon-fun": 19.5,
    "fig4.udp.native": 15.0, "fig4.udp.vanilla": 5.5, "fig4.udp.rps": 6.5,
    "fig4.udp.falcon-dev": 9.5, "fig4.udp.falcon-fun": 1.6,
    "fig7.ooo.1": 2000.0, "fig7.ooo.256": 36.0, "fig7.ooo.1024": 9.0,
    "fig7.gbps.1": 12.0, "fig7.gbps.256": 26.0, "fig7.gbps.1024": 26.5,
    "fig8.tcp.native": 24.0, "fig8.tcp.vanilla": 13.0, "fig8.tcp.rps": 14.5,
    "fig8.tcp.falcon": 19.0, "fig8.tcp.mflow": 27.0,
    "fig8.udp.native": 15.0, "fig8.udp.vanilla": 5.8, "fig8.udp.rps": 6.5,
    "fig8.udp.falcon": 10.0, "fig8.udp.mflow": 12.5,
    "fig8.breakdown_tables": 2.0,
    "fig9.tcp.vanilla.p50_us": 875.0, "fig9.tcp.vanilla.p99_us": 880.0,
    "fig9.tcp.falcon.p50_us": 590.0, "fig9.tcp.falcon.p99_us": 594.0,
    "fig9.tcp.mflow.p50_us": 76.0, "fig9.tcp.mflow.p99_us": 87.0,
    "fig9.udp.vanilla.p50_us": 280.0, "fig9.udp.mflow.p50_us": 177.0,
    "fig10.mflow.16.1": 0.2, "fig10.mflow.16.5": 1.0,
    "fig10.lead.1": 1.8, "fig10.lead.10": 0.95,
    "fig11.vanilla.success_per_s": 1000.0, "fig11.mflow.success_per_s": 3600.0,
    "fig11.vanilla.browse_us": 1000.0, "fig11.mflow.browse_us": 400.0,
    "fig12.falcon.util_std": 15.6, "fig12.mflow.util_std": 10.3,
    "fig13.vanilla.mean_us": 63.0, "fig13.vanilla.p99_us": 64.0,
    "fig13.falcon.mean_us": 26.5, "fig13.falcon.p99_us": 28.0,
    "fig13.mflow.mean_us": 26.0, "fig13.mflow.p99_us": 27.0,
    "ext.paper_config": 27.1, "ext.faster_sender": 33.4,
}

#: inputs ``(num, den)`` that make a check's form read ``target``
INVERSE = {
    "ratio": lambda t: (t, 1.0),
    "decay": lambda t: (t, 1.0),
    "value": lambda t: (t, 1.0),
    "excess": lambda t: (t, 0.0),
    "cut": lambda t: (1.0 - t, 1.0),
}


def _synthetic_inputs():
    return FidelityInputs(dict(SYNTHETIC))


def _status_at(name, target):
    """Score synthetic inputs moved so that check ``name`` reads ``target``."""
    [check] = [c for c in CHECKS if c.name == name]
    inputs = _synthetic_inputs()
    num, den = INVERSE[check.form](target)
    inputs.values[check.num] = num
    if check.den is not None:
        inputs.values[check.den] = den
    [scored] = [c for c in score(inputs).checks if c.name == name]
    return scored.status


def _band_edges():
    for c in CHECKS:
        for edge, inward in ((c.band_lo, 1.0), (c.band_hi, -1.0)):
            if math.isfinite(edge):
                yield pytest.param(c.name, edge, inward, id=f"{c.name}-{edge:.4g}")


class TestFidelity:
    def test_classify_bands(self):
        assert classify(1.5, 1.0, 2.0) == "pass"
        assert classify(1.0, 1.0, 2.0) == "pass"  # closed band
        assert classify(2.0, 1.0, 2.0) == "pass"
        assert classify(0.99, 1.0, 2.0) == "fail"
        assert classify(2.01, 1.0, 2.0) == "fail"
        assert classify(float("nan"), 1.0, 2.0) == "fail"
        # a strict bound excludes its own value; an open side is unbounded
        assert classify(1.0, _over(1.0), INF) == "fail"
        assert classify(_over(1.0), _over(1.0), INF) == "pass"
        assert classify(1.0, -INF, _under(1.0)) == "fail"
        assert classify(-1e300, -INF, _under(1.0)) == "pass"

    def test_check_score_sets_status(self):
        check = FidelityCheck("x", "fig0", "d", paper=2.0, band_lo=1.0, band_hi=3.0)
        assert check.status == "pending"
        assert check.score(2.5).status == "pass"
        assert check.score(0.5).status == "fail"

    def test_score_all_pass_on_synthetic(self):
        board = score(_synthetic_inputs())
        assert len(board.checks) == len(CHECKS) == 29
        assert len({c.name for c in board.checks}) == len(CHECKS)
        assert board.all_pass and board.exit_code() == 0, board.report()
        assert "ALL PASS" in board.report()

    @pytest.mark.parametrize("name,edge,inward", list(_band_edges()))
    def test_band_edge(self, name, edge, inward):
        """Each finite band edge: just inside passes, just outside fails
        (a one-point band is inside at its point)."""
        step = 1e-9 * max(1.0, abs(edge))
        [check] = [c for c in CHECKS if c.name == name]
        inside = edge if check.band_lo == check.band_hi else edge + inward * step
        assert _status_at(name, inside) == "pass"
        assert _status_at(name, edge - inward * step) == "fail"

    def test_score_flags_broken_speedup(self):
        inputs = _synthetic_inputs()
        inputs.values["fig8.tcp.mflow"] = inputs.values["fig8.tcp.vanilla"]
        board = score(inputs)
        assert not board.all_pass and board.exit_code() == 1
        failed = {c.name for c in board.checks if c.status == "fail"}
        assert "mflow_vanilla_tcp" in failed

    def test_missing_input_fails_not_crashes(self):
        board = score(FidelityInputs())  # everything empty/zero
        assert not board.all_pass
        assert all(c.status in ("pass", "fail") for c in board.checks)
        # a zero denominator scores NaN: written as null, and still a fail
        doc = json.loads(json.dumps(board.to_json_dict(), allow_nan=False))
        nulls = [c for c in doc["checks"] if c["observed"] is None]
        assert nulls and all(c["status"] == "fail" for c in nulls)

    def test_writers_and_schema(self, tmp_path):
        board = score(_synthetic_inputs())
        jpath = board.write_json(tmp_path / "fid.json")
        doc = json.loads(jpath.read_text())
        assert doc["kind"] == "repro-fidelity" and doc["all_pass"] is True
        assert len(doc["checks"]) == len(board.checks)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["mflow_falcon_udp"]["band"] == [_over(1.0), None]  # open side
        assert by_name["ooo_batch_256_vs_1024"]["paper"] is None
        md = (board.write_markdown(tmp_path / "fid.md")).read_text()
        assert md.startswith("# Paper-fidelity scoreboard")
        assert "| `mflow_vanilla_tcp` |" in md

    @pytest.mark.slow
    def test_fidelity_end_to_end_quick(self):
        from repro.perf.fidelity import run_fidelity

        board = run_fidelity(quick=True, seed=0)
        assert len(board.checks) == len(CHECKS)
        assert board.all_pass, board.report()


# ----------------------------------------------------------------- trajectory
class TestTrajectoryDiff:
    """``repro diff`` over two committed benchmark trajectory points."""

    ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
    OLD = os.path.join(ROOT, "BENCH_3106056.json")
    NEW = os.path.join(ROOT, "BENCH_be22e77.json")

    def _diff(self, capsys, a, b, *extra):
        code = cli_main(["diff", a, b, *extra])
        return code, capsys.readouterr().out

    def test_json_lists_medians_and_layers(self, capsys):
        from statistics import median

        code, out = self._diff(capsys, self.OLD, self.NEW, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "repro-trajectory-diff"
        assert (doc["old"], doc["new"]) == ("3106056", "be22e77")
        assert set(doc["workloads"]) == {
            "tcp64k_mflow", "tcp4k_x8_vanilla", "udp64k_mflow", "fig7_sweep"
        }
        with open(self.NEW) as f:
            new = json.load(f)
        row = doc["workloads"]["tcp64k_mflow"]["end_to_end"]["pkts_per_s"]
        sets = new["summary"]["tcp64k_mflow"]["end_to_end"]["pkts_per_s"]["sets"]
        assert row["new"] == median(s["median"] for s in sets)
        assert row["ratio"] == row["new"] / row["old"] and row["bound"] == 0.1
        assert not row["past_bound"]
        layers = doc["workloads"]["tcp64k_mflow"]["layers"]
        assert {"sim.self_s", "cpu.calls", "sim.events_per_pkt", "cpu.items_per_pkt",
                "model.gbps", "model.handoffs"} <= set(layers)
        assert layers["sim.events_per_pkt"]["new"] == pytest.approx(11.38, abs=0.01)
        assert not any(name.endswith(".share") for name in layers)

    def test_a_median_past_its_bound_is_flagged(self, capsys):
        """Reversed, the older point's lower pkts_per_s is a >10% loss."""
        code, out = self._diff(capsys, self.NEW, self.OLD)
        assert code == 1
        assert "trajectory be22e77 -> 3106056" in out
        assert "pkts_per_s" in out and "PAST BOUND" in out
        assert "past bound: " in out and "tcp64k_mflow.pkts_per_s" in out

    def test_a_point_against_a_run_record_is_refused(self, tmp_path):
        other = tmp_path / "run.json"
        other.write_text(json.dumps({"kind": "run"}))
        with pytest.raises(SystemExit, match="trajectory points"):
            cli_main(["diff", self.OLD, str(other)])
