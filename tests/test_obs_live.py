"""Sweep-level live telemetry: journal schema v2, ``repro top``,
OpenMetrics export, the unified report, and the shared status line."""

import io
import json
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.obs.live.openmetrics import (
    Family,
    OpenMetricsError,
    parse_openmetrics,
    render_openmetrics,
    sweep_families,
)
from repro.obs.live.report import build_html, build_markdown
from repro.obs.live.status import (
    StatusError,
    StatusLine,
    SweepProgress,
    SweepStatus,
    find_sweep_dirs,
    load_statuses,
)
from repro.obs.live.top import render, status_document, top
from repro.resilience.atomic import read_jsonl
from repro.runner import CELL_PHASES, JOURNAL_SCHEMA_VERSION, RunEngine, RunSpec

TINY = {"warmup_ns": 100_000.0, "measure_ns": 400_000.0}


def echo_spec(value, **kw):
    return RunSpec.make("_test_echo", {"value": value}, **kw)


def run_sweep(tmp_path, n=3, experiment="exp", **engine_kw):
    engine = RunEngine(jobs=1, results_dir=tmp_path, **engine_kw)
    records = engine.run(experiment, [echo_spec(i) for i in range(n)])
    return tmp_path / experiment, records


def journal_entries(sweep_dir):
    entries, torn = read_jsonl(sweep_dir / "journal.jsonl")
    assert torn == 0
    return entries


class TestJournalV2:
    def test_every_entry_has_monotone_seq_and_float_ts(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path)
        entries = journal_entries(sweep_dir)
        seqs = [e["seq"] for e in entries]
        assert seqs == list(range(len(entries)))
        assert all(isinstance(e["ts"], float) for e in entries)
        ts = [e["ts"] for e in entries]
        assert ts == sorted(ts)

    def test_sweep_start_declares_schema_v2(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path)
        start = journal_entries(sweep_dir)[0]
        assert start["kind"] == "sweep_start"
        assert start["journal_schema"] == JOURNAL_SCHEMA_VERSION == 2

    def test_spec_entries_carry_phase_and_progress(self, tmp_path):
        sweep_dir, records = run_sweep(tmp_path)
        specs = [e for e in journal_entries(sweep_dir) if e["kind"] == "spec"]
        assert len(specs) == len(records)
        for entry in specs:
            assert entry["phase"] == "done"
            assert entry["phase"] in CELL_PHASES
            progress = entry["progress"]
            assert progress["events_executed"] >= 0
            assert "events_per_sec" in progress

    def test_spec_start_entries_precede_each_execution(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        kinds = [e["kind"] for e in journal_entries(sweep_dir)]
        assert kinds == [
            "sweep_start", "spec_start", "spec", "spec_start", "spec",
            "sweep_end",
        ]

    def test_cached_rerun_journals_cached_phase_without_spec_start(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        run_sweep(tmp_path, n=2)  # identical: every cell a cache hit
        entries = journal_entries(sweep_dir)
        second = entries[[e["kind"] for e in entries].index("sweep_end") + 1:]
        assert [e["kind"] for e in second] == [
            "sweep_start", "spec", "spec", "sweep_end",
        ]
        assert all(e["phase"] == "cached" for e in second if e["kind"] == "spec")

    def test_seq_continues_across_appended_runs(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        run_sweep(tmp_path, n=2)
        seqs = [e["seq"] for e in journal_entries(sweep_dir)]
        assert seqs == list(range(len(seqs)))  # no reset at the second run

    def test_retry_and_quarantine_phases(self, tmp_path):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 99, "mode": "raise"})
        engine = RunEngine(jobs=1, retries=1, strict=False, results_dir=tmp_path)
        engine.run("exp", [spec])
        entries = journal_entries(tmp_path / "exp")
        events = [e for e in entries if e["kind"] == "event"]
        assert "retrying" in [e.get("phase") for e in events]
        assert "quarantined" in [e.get("phase") for e in events]
        [final] = [e for e in entries if e["kind"] == "spec"]
        assert final["phase"] == "quarantined" and final["ok"] is False


class TestSweepStatus:
    def test_completed_sweep_counts_and_cells(self, tmp_path):
        sweep_dir, records = run_sweep(tmp_path, n=3)
        status = SweepStatus.load(sweep_dir)
        assert status.finished and status.journal_schema == 2
        assert status.n_specs == 3
        assert status.counts()["done"] == 3
        assert status.remaining == 0 and status.eta_s() == 0.0
        assert {c.spec_key for c in status.cells} == {r.spec_key for r in records}
        assert all(c.started_ts <= c.finished_ts for c in status.cells)
        assert status.wall_time_total_s > 0

    def test_cached_rerun_shows_cache_hits(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        run_sweep(tmp_path, n=2)
        status = SweepStatus.load(sweep_dir)
        assert status.counts()["cached"] == 2
        assert status.cache_hit_ratio == 1.0

    def test_quarantined_cell_surfaces(self, tmp_path):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 99, "mode": "raise"})
        RunEngine(jobs=1, retries=1, strict=False, results_dir=tmp_path).run(
            "exp", [spec]
        )
        status = SweepStatus.load(tmp_path / "exp")
        assert status.quarantined_total == 1
        [cell] = status.cells
        assert cell.phase == "quarantined" and cell.retries == 1

    def test_records_enrich_headline_measurements(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path)
        status = SweepStatus.load(sweep_dir)
        assert status.records  # runs/*.json folded in
        assert all(c.events_executed >= 0 for c in status.cells)

    def test_v1_journal_still_accepted(self, tmp_path):
        # a pre-v2 journal: no seq/ts/phase/spec_start, string sweep ts
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        entries = journal_entries(sweep_dir)
        v1 = []
        for e in entries:
            if e["kind"] == "spec_start":
                continue
            e = {k: v for k, v in e.items()
                 if k not in ("seq", "ts", "phase", "progress", "journal_schema")}
            v1.append(e)
        (sweep_dir / "journal.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in v1)
        )
        status = SweepStatus.load(sweep_dir)
        assert status.journal_schema == 1
        assert status.finished
        assert status.counts()["done"] == 2
        assert all(c.started_ts is None for c in status.cells)

    def test_unfinished_journal_reads_as_in_progress(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=3)
        kept = []
        for line in (sweep_dir / "journal.jsonl").read_text().splitlines()[:-2]:
            entry = json.loads(line)
            if entry["kind"] == "spec":  # give ETA something to extrapolate
                entry["wall_time_s"] = 0.5
            kept.append(json.dumps(entry) + "\n")
        # drop sweep_end + last spec, leave a torn half-line: a crash mid-cell
        (sweep_dir / "journal.jsonl").write_text("".join(kept) + '{"kind": "spe')
        status = SweepStatus.load(sweep_dir)
        assert not status.finished
        assert status.torn_lines == 1
        counts = status.counts()
        assert counts["done"] == 2 and counts["running"] == 1
        assert status.remaining == 1
        assert status.eta_s() is not None and status.eta_s() >= 0

    def test_resume_after_crash_converges_and_reads_clean(self, tmp_path):
        from repro.resilience.resume import resume_results

        sweep_dir, _ = run_sweep(tmp_path, n=3)
        lines = (sweep_dir / "journal.jsonl").read_text().splitlines(True)
        (sweep_dir / "journal.jsonl").write_text("".join(lines[:-2]))
        report = resume_results(tmp_path, jobs=1)
        assert report.ok
        status = SweepStatus.load(sweep_dir)
        assert status.finished
        assert sum(status.counts()[p] for p in ("done", "cached")) == 3
        seqs = [e["seq"] for e in journal_entries(sweep_dir)]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_discovery_and_errors(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=1)
        assert find_sweep_dirs(tmp_path) == [sweep_dir]
        assert find_sweep_dirs(sweep_dir) == [sweep_dir]
        with pytest.raises(StatusError):
            load_statuses(tmp_path / "empty")


class TestTop:
    def test_render_table(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        text = render([SweepStatus.load(sweep_dir)])
        assert "CELL" in text and "PHASE" in text
        assert text.count("done") >= 2
        assert "sweep exp: 2 cells" in text

    def test_status_document_schema(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        doc = status_document([SweepStatus.load(sweep_dir)])
        assert doc["kind"] == "repro-top" and doc["schema_version"] == 1
        [sweep] = doc["sweeps"]
        assert sweep["finished"] and len(sweep["cells"]) == 2
        json.dumps(doc)  # JSON-serializable end to end

    def test_cli_once_json(self, tmp_path, capsys):
        run_sweep(tmp_path, n=2)
        rc = main(["top", str(tmp_path), "--once", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "repro-top"
        assert doc["sweeps"][0]["counts"]["done"] == 2

    def test_exit_code_flags_quarantine(self, tmp_path):
        spec = RunSpec.make("_test_crashy", {"fail_attempts": 99, "mode": "raise"})
        RunEngine(jobs=1, retries=0, strict=False, results_dir=tmp_path).run(
            "exp", [spec]
        )
        assert top(tmp_path, once=True, stream=io.StringIO()) == 1


class TestOpenMetrics:
    def test_sweep_export_round_trips(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        text = render_openmetrics(sweep_families([SweepStatus.load(sweep_dir)]))
        assert text.endswith("# EOF\n")
        families = parse_openmetrics(text)
        assert "repro_sweep_cells" in families
        assert "repro_sweep_retries" in families

    def test_counter_samples_use_total_suffix(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=1)
        text = render_openmetrics(sweep_families([SweepStatus.load(sweep_dir)]))
        assert "repro_sweep_events_total{" in text
        assert "\nrepro_sweep_events{" not in text

    def test_cli_metrics_out(self, tmp_path, capsys):
        run_sweep(tmp_path, n=1)
        out = tmp_path / "sweep.prom"
        assert main(["metrics", str(tmp_path), "--out", str(out)]) == 0
        parse_openmetrics(out.read_text())

    def test_parser_rejects_missing_eof(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics("# TYPE x gauge\nx 1\n")

    def test_parser_rejects_counter_without_total(self):
        text = "# TYPE x counter\nx 1\n# EOF\n"
        with pytest.raises(OpenMetricsError):
            parse_openmetrics(text)

    def test_parser_rejects_duplicate_series(self):
        text = '# TYPE x gauge\nx{a="1"} 1\nx{a="1"} 2\n# EOF\n'
        with pytest.raises(OpenMetricsError):
            parse_openmetrics(text)

    def test_parser_rejects_untyped_sample(self):
        with pytest.raises(OpenMetricsError):
            parse_openmetrics("x 1\n# EOF\n")

    def test_render_rejects_non_finite(self):
        fam = Family("x", "gauge", "h")
        fam.add(float("nan"))
        with pytest.raises(OpenMetricsError):
            render_openmetrics([fam])


class TestReport:
    def test_html_report_sections(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        html = build_html([SweepStatus.load(sweep_dir)])
        for needle in ("<!DOCTYPE html>", "Run matrix", "Timeline",
                       "Latency decomposition", "Fault summary"):
            assert needle in html
        assert "http" not in html.split("<body>")[1]  # self-contained

    def test_markdown_report_has_matrix(self, tmp_path):
        sweep_dir, _ = run_sweep(tmp_path, n=2)
        md = build_markdown([SweepStatus.load(sweep_dir)])
        assert "| cell | phase |" in md
        assert "cache hit ratio" in md

    def test_cli_report_writes_html(self, tmp_path, capsys):
        run_sweep(tmp_path, n=1)
        out = tmp_path / "report.html"
        assert main(["report", str(tmp_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_report_embeds_bench_payload(self, tmp_path):
        """A hand-built e2e trajectory point (agreement.py's layout)
        renders its per-workload medians and spreads."""
        sweep_dir, _ = run_sweep(tmp_path, n=1)
        sets = [{"median": 24652.0, "q1": 24000.0, "q3": 25000.0, "spread": 0.0406},
                {"median": 24100.0, "q1": 23500.0, "q3": 24500.0, "spread": 0.0415}]
        point = {
            "kind": "e2e-bench-agreement", "sha": "abc1234",
            "created": "2026-01-01T00:00:00+0000", "platform": "Linux",
            "benchmark": {"end_to_end": [{"name": "pkts_per_s", "unit": "packets/s"}]},
            "summary": {"tcp64k_mflow": {
                "end_to_end": {"pkts_per_s": {"sets": sets}}, "failed": 0,
            }},
        }
        html = build_html([SweepStatus.load(sweep_dir)], bench=point)
        assert "Benchmark trajectory point" in html and "abc1234" in html
        assert "tcp64k_mflow" in html and "packets/s" in html
        assert "24652 (4.1%) / 24100 (4.2%)" in html
        md = build_markdown([SweepStatus.load(sweep_dir)], bench=point)
        assert ("| tcp64k_mflow | pkts_per_s | packets/s | "
                "24652 (4.1%) / 24100 (4.2%) | 0 |") in md


    def test_report_embeds_fidelity_scoreboard(self, tmp_path):
        """Bands render with two decimals and an open side as ∞; the
        observed value is shown."""
        from repro.perf.fidelity import FidelityInputs, score

        sweep_dir, _ = run_sweep(tmp_path, n=1)
        inputs = FidelityInputs({"fig8.udp.mflow": 12.5, "fig8.udp.falcon": 10.0})
        doc = score(inputs).to_json_dict()
        html = build_html([SweepStatus.load(sweep_dir)], fidelity=doc)
        assert "<td>mflow_falcon_udp</td><td>[1.00, ∞]</td><td class=\"num\">1.25</td>" in html
        md = build_markdown([SweepStatus.load(sweep_dir)], fidelity=doc)
        assert "| mflow_vanilla_tcp | [1.50, 2.80] |" in md
        assert "| fig4_tcp_overlay_penalty | [−∞, 1.00] |" in md


class TestConcurrentTailing:
    def test_reader_never_sees_partial_records(self, tmp_path):
        """A writer appends (with a torn final line at every step); a
        tailing reader polling via read_jsonl never crashes, never sees a
        partial record, and converges on the full journal."""
        path = tmp_path / "journal.jsonl"
        full = [{"kind": "spec", "spec_key": f"k{i}", "seq": i} for i in range(20)]
        with open(path, "a", encoding="utf-8") as fh:
            for i, entry in enumerate(full):
                line = json.dumps(entry) + "\n"
                fh.write(line[: len(line) // 2])  # torn tail on disk
                fh.flush()
                entries, torn = read_jsonl(path)
                assert torn == 1
                assert entries == full[:i]  # only whole records, in order
                fh.write(line[len(line) // 2:])
                fh.flush()
                entries, torn = read_jsonl(path)
                assert torn == 0 and entries == full[: i + 1]
        entries, torn = read_jsonl(path)
        assert torn == 0 and entries == full

    def test_tail_during_live_sweep_subprocess(self, tmp_path):
        """End to end: a child process runs a sweep while this process
        polls the journal; every poll parses, and the final poll shows
        the finished sweep."""
        script = textwrap.dedent(
            """
            import sys
            from repro.runner import RunEngine, RunSpec
            specs = [RunSpec.make("_test_echo", {"value": i}) for i in range(4)]
            RunEngine(jobs=1, results_dir=sys.argv[1]).run("exp", specs)
            """
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal = tmp_path / "exp" / "journal.jsonl"
        polls = 0
        try:
            while proc.poll() is None:
                entries, torn = read_jsonl(journal)  # absent file: ([], 0)
                assert torn in (0, 1)
                for e in entries:
                    assert isinstance(e, dict) and "kind" in e
                polls += 1
        finally:
            proc.wait(timeout=60)
        assert proc.returncode == 0 and polls > 0
        status = SweepStatus.load(tmp_path / "exp")
        assert status.finished and status.counts()["done"] == 4


class TestPerfettoDropAccounting:
    def test_complete_buffer_flagged(self):
        from repro.obs.perfetto import to_trace_events
        from repro.obs.recorder import FlightRecorder

        rec = FlightRecorder(capacity=100)
        for i in range(10):
            rec.instant("irq", t_ns=float(i), core=0)
        other = to_trace_events(rec)["otherData"]
        assert other["complete"] is True and other["events_dropped"] == 0

    def test_reservoir_sampled_buffer_flagged(self):
        from repro.obs.perfetto import to_trace_events
        from repro.obs.recorder import FlightRecorder

        rec = FlightRecorder(capacity=5)
        for i in range(50):
            rec.instant("irq", t_ns=float(i), core=0)
        other = to_trace_events(rec)["otherData"]
        assert other["complete"] is False
        assert other["events_dropped"] == 45
        assert other["events_seen"] == 50 and other["events_kept"] == 5


class _FakeRecord:
    def __init__(self, cached=False, wall_time_s=0.5, events_per_sec=120_000.0):
        self.cached = cached
        self.wall_time_s = wall_time_s
        self.events_per_sec = events_per_sec


class TestStatusLine:
    def test_rewrites_in_place_with_padding(self):
        buf = io.StringIO()
        line = StatusLine("x", stream=buf)
        line.update("a long first line")
        line.update("short")
        line.done()
        out = buf.getvalue()
        assert out.startswith("\r[x] a long first line")
        assert "\r[x] short" in out
        # the shorter rewrite is padded past the stale tail
        assert out.index("\r[x] short") + len("\r[x] a long first line") <= len(out)
        assert out.endswith("\n")

    def test_done_without_update_is_silent(self):
        buf = io.StringIO()
        StatusLine("x", stream=buf).done()
        assert buf.getvalue() == ""

    def test_sweep_progress_format(self):
        buf = io.StringIO()
        progress = SweepProgress("fig8", stream=buf)
        progress(1, 3, _FakeRecord(cached=True))
        progress(2, 3, _FakeRecord())
        progress(3, 3, _FakeRecord())
        out = buf.getvalue()
        assert "[fig8] 2/3 cached=1 last 0.50s 120k ev/s eta" in out
        assert out.endswith("\n")  # closed at done == total

    def test_sweep_progress_resets_between_sweeps(self):
        buf = io.StringIO()
        progress = SweepProgress("resume", stream=buf)
        progress(1, 1, _FakeRecord(cached=True))
        progress(1, 2, _FakeRecord())  # next experiment in the same resume
        assert "cached" not in buf.getvalue().split("\n")[-1]


class TestObsOffBitIdentity:
    def test_journal_v2_leaves_measurements_identical(self, tmp_path):
        """The journal is a side artifact: records produced with artifacts
        on equal those produced with no results_dir at all."""
        specs = [echo_spec(i) for i in range(3)]
        with_journal = RunEngine(
            jobs=1, global_seed=7, results_dir=tmp_path
        ).run("exp", specs)
        bare = RunEngine(jobs=1, global_seed=7, use_cache=False).run("exp", specs)
        for a, b in zip(with_journal, bare):
            assert a.measurements == b.measurements
            assert a.seed == b.seed
