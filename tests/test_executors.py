"""Executor-protocol tests: local/process/socket backends, the journal
single-writer lock, and runner-loss chaos (the pool's kill-anywhere
guarantee: records stay byte-identical to a serial run)."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.obs.live.openmetrics import parse_openmetrics, render_openmetrics, sweep_families
from repro.obs.live.status import SweepStatus
from repro.obs.live.top import render
from repro.runner import (
    JournalLockError,
    LocalExecutor,
    ProcessExecutor,
    RunEngine,
    RunSpec,
    SocketExecutor,
    make_executor,
)

TINY = {"warmup_ns": 100_000.0, "measure_ns": 400_000.0}


def echo_spec(value, **kw):
    return RunSpec.make("_test_echo", {"value": value}, **kw)


def sockperf_specs(n=4):
    """Real-simulation cells: fully deterministic measurements (unlike
    the echo double, whose payload includes the worker pid)."""
    return [
        RunSpec.make(
            "sockperf",
            {"system": "mflow", "proto": "tcp", "size": 1024 * (i + 1)},
            tags=(f"cell{i}",),
            **TINY,
        )
        for i in range(n)
    ]


def measurements_by_key(records):
    return {
        r.spec_key: json.dumps(r.measurements, sort_keys=True) for r in records
    }


# ------------------------------------------------------------- local executor
class TestLocalExecutor:
    def test_serial_records_admit_unenforced_timeout(self, tmp_path):
        engine = RunEngine(jobs=1, results_dir=tmp_path, use_cache=False)
        [record] = engine.run("exp", [echo_spec(1, **TINY)])
        assert record.ok
        assert record.timeout_enforced is False
        assert record.runner is None

    def test_overrun_of_unenforced_timeout_warns(self):
        spec = RunSpec.make(
            "_test_sleepy", {"sleep_s": 0.05, "hang_attempts": 1},
            timeout_s=0.01, **TINY,
        )
        engine = RunEngine(jobs=1, timeout_s=0.01)
        [record] = engine.run("exp", [spec])
        assert record.ok and record.attempts == 1    # completed, not killed
        assert record.timeout_enforced is False
        kinds = [e.kind for e in engine.events]
        assert kinds == ["timeout_overrun"]
        assert "unenforced" in engine.events[0].detail

    def test_no_overrun_event_within_timeout(self):
        engine = RunEngine(jobs=1, timeout_s=30.0)
        [record] = engine.run("exp", [echo_spec(2, **TINY)])
        assert record.ok and engine.events == []

    def test_explicit_local_executor_matches_default(self):
        serial = RunEngine(jobs=1).run("exp", [echo_spec(3, **TINY)])
        forced = RunEngine(jobs=4, executor=LocalExecutor()).run(
            "exp", [echo_spec(3, **TINY)]
        )
        assert serial[0].measurements == forced[0].measurements


# ----------------------------------------------------------- process executor
class TestProcessExecutor:
    def test_parallel_records_claim_enforced_timeout(self, tmp_path):
        engine = RunEngine(jobs=2, results_dir=tmp_path, use_cache=False)
        records = engine.run("exp", [echo_spec(i, **TINY) for i in range(3)])
        assert all(r.timeout_enforced is True for r in records)
        assert all(r.runner is None for r in records)

    def test_explicit_process_executor_runs_in_subprocess(self):
        engine = RunEngine(jobs=1, executor=ProcessExecutor(jobs=2))
        [record] = engine.run("exp", [echo_spec(9, **TINY)])
        assert record.ok
        assert record.measurements["pid"] != os.getpid()

    def test_crash_is_retried_through_executor(self):
        spec = RunSpec.make(
            "_test_crashy", {"fail_attempts": 1, "mode": "exit"}, **TINY
        )
        engine = RunEngine(jobs=2, retries=1, backoff_base_s=0.0)
        [record] = engine.run("exp", [spec])
        assert record.ok and record.attempts == 2
        assert [e.kind for e in engine.events] == ["crash", "retry"]


# --------------------------------------------------------------- journal lock
class TestJournalLock:
    def test_second_engine_fails_fast(self, tmp_path):
        import fcntl

        sweep_dir = tmp_path / "exp"
        sweep_dir.mkdir()
        lock_path = sweep_dir / "journal.jsonl.lock"
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        try:
            engine = RunEngine(jobs=1, results_dir=tmp_path, use_cache=False)
            with pytest.raises(JournalLockError, match="journal"):
                engine.run("exp", [echo_spec(1, **TINY)])
        finally:
            os.close(fd)

    def test_stale_lockfile_from_killed_run_is_harmless(self, tmp_path):
        # flock dies with its process: a leftover lock *file* must not
        # wedge resume (PR-5 kill-anywhere contract)
        sweep_dir = tmp_path / "exp"
        sweep_dir.mkdir()
        (sweep_dir / "journal.jsonl.lock").write_text("99999\n")
        engine = RunEngine(jobs=1, results_dir=tmp_path, use_cache=False)
        [record] = engine.run("exp", [echo_spec(1, **TINY)])
        assert record.ok

    def test_lock_released_after_run(self, tmp_path):
        engine = RunEngine(jobs=1, results_dir=tmp_path, use_cache=False)
        engine.run("exp", [echo_spec(1, **TINY)])
        again = RunEngine(jobs=1, results_dir=tmp_path, use_cache=False)
        [record] = again.run("exp", [echo_spec(2, **TINY)])
        assert record.ok

    def test_lock_released_on_failure(self, tmp_path):
        # mode=raise: jobs=1 executes inline, a hard exit would kill pytest
        spec = RunSpec.make(
            "_test_crashy", {"fail_attempts": 9, "mode": "raise"}, **TINY
        )
        engine = RunEngine(
            jobs=1, retries=0, results_dir=tmp_path, use_cache=False
        )
        with pytest.raises(Exception):
            engine.run("exp", [spec])
        ok_engine = RunEngine(jobs=1, results_dir=tmp_path, use_cache=False)
        [record] = ok_engine.run("exp", [echo_spec(1, **TINY)])
        assert record.ok


# ---------------------------------------------------------------- socket pool
def spawn_runner(*extra):
    """Start `repro runner serve --port 0` and scrape its bound address."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "runner", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        bufsize=1,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+:\d+)", line)
    assert match, f"runner failed to start: {line!r}"
    return proc, match.group(1)


class RunnerPool:
    """Spawns `repro runner serve` subprocesses and keeps kill handles."""

    def __init__(self):
        self.procs = []
        self.addrs = []

    def spawn(self, n=2, *extra):
        for _ in range(n):
            proc, addr = spawn_runner(*extra)
            self.procs.append(proc)
            self.addrs.append(addr)
        return self.addrs

    def shutdown(self):
        for proc in self.procs:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture
def runner_pool():
    pool = RunnerPool()
    yield pool
    pool.shutdown()


class TestSocketExecutor:
    def test_make_executor_socket_requires_runners(self):
        with pytest.raises(ValueError, match="runners"):
            make_executor("socket", jobs=2)
        assert make_executor("auto", jobs=2) is None

    def test_unreachable_fleet_refuses_to_start(self):
        engine = RunEngine(
            jobs=2, executor=SocketExecutor(["127.0.0.1:1"], connect_timeout_s=0.5)
        )
        with pytest.raises(RuntimeError, match="no runners reachable"):
            engine.run("exp", [echo_spec(1, **TINY)])

    def test_pool_matches_serial_bit_for_bit(self, tmp_path, runner_pool):
        specs = sockperf_specs(4)
        serial = RunEngine(jobs=1, results_dir=tmp_path / "serial",
                           use_cache=False).run("exp", specs)
        addrs = runner_pool.spawn(2)
        pooled = RunEngine(
            jobs=2, results_dir=tmp_path / "pool", use_cache=False,
            executor=SocketExecutor(addrs),
        ).run("exp", specs)
        assert measurements_by_key(serial) == measurements_by_key(pooled)
        used = {r.runner for r in pooled}
        assert len(used) == 2, f"expected both runners used, got {used}"
        assert all(r.timeout_enforced is True for r in pooled)

    def test_serial_process_and_pool_write_identical_run_files(
        self, tmp_path, runner_pool
    ):
        specs = sockperf_specs(3)
        addrs = runner_pool.spawn(2)
        backends = {
            "serial": LocalExecutor(),
            "process": ProcessExecutor(2),
            "pool": SocketExecutor(addrs),
        }
        # where and how long a cell ran is the only thing allowed to differ
        placement = ("wall_time_s", "events_per_sec", "timeout_enforced", "runner")
        written = {}
        for name, executor in backends.items():
            RunEngine(
                jobs=2, results_dir=tmp_path / name, use_cache=False,
                executor=executor,
            ).run("exp", specs)
            files = {}
            for path in sorted((tmp_path / name / "exp" / "runs").glob("*.json")):
                data = path.read_bytes()
                doc = json.loads(data)
                assert json.dumps(doc).encode("utf-8") == data   # compact form
                for key in placement:
                    doc.pop(key)
                files[path.name] = json.dumps(doc).encode("utf-8")
            written[name] = files
        assert len(written["serial"]) == len(specs)
        assert written["serial"] == written["process"] == written["pool"]

    def test_pool_enforces_timeouts_and_retries(self, runner_pool):
        addrs = runner_pool.spawn(1)
        spec = RunSpec.make(
            "_test_sleepy", {"sleep_s": 30.0, "hang_attempts": 1},
            timeout_s=0.5, **TINY,
        )
        engine = RunEngine(
            jobs=1, retries=1, backoff_base_s=0.0,
            executor=SocketExecutor(addrs),
        )
        [record] = engine.run("exp", [spec])
        assert record.ok and record.attempts == 2
        assert [e.kind for e in engine.events] == ["timeout", "retry"]
        assert "killed after" in engine.events[0].detail

    def test_pool_isolates_cell_crashes(self, runner_pool):
        addrs = runner_pool.spawn(1)
        spec = RunSpec.make(
            "_test_crashy", {"fail_attempts": 1, "mode": "exit"}, **TINY
        )
        engine = RunEngine(
            jobs=1, retries=1, backoff_base_s=0.0,
            executor=SocketExecutor(addrs),
        )
        [record] = engine.run("exp", [spec])
        assert record.ok and record.attempts == 2     # runner survived the crash
        assert [e.kind for e in engine.events] == ["crash", "retry"]

    @pytest.mark.chaos
    def test_runner_sigkill_mid_sweep_is_byte_identical(self, tmp_path, runner_pool):
        """The acceptance scenario: SIGKILL one of two live runners
        mid-sweep; the sweep completes with zero quarantines and records
        byte-identical to `--jobs 1` serial."""
        specs = sockperf_specs(6)
        serial = RunEngine(jobs=1, results_dir=tmp_path / "serial",
                           use_cache=False).run("exp", specs)

        addrs = runner_pool.spawn(2)

        def progress(done, total, record):
            # first completion: the fleet is mid-flight on the rest —
            # SIGKILL runner 0 now
            if done == 1:
                runner_pool.procs[0].kill()

        executor = SocketExecutor(addrs, heartbeat_s=0.2, redispatch_backoff_s=0.05)
        engine = RunEngine(
            jobs=2, results_dir=tmp_path / "pool", use_cache=False,
            progress=progress, executor=executor,
        )
        pooled = engine.run("exp", specs)

        assert engine.quarantined == []
        assert all(r.ok for r in pooled)
        assert measurements_by_key(serial) == measurements_by_key(pooled)
        lost = [e for e in engine.runner_events if e.get("event") == "lost"]
        assert lost, "the killed runner was never declared lost"

    def test_fleet_drained_to_zero_degrades_to_local(self, tmp_path, runner_pool):
        specs = sockperf_specs(3)
        serial = RunEngine(jobs=1, results_dir=tmp_path / "serial",
                           use_cache=False).run("exp", specs)
        addrs = runner_pool.spawn(1)

        def progress(done, total, record):
            if done == 1:
                runner_pool.procs[0].kill()

        engine = RunEngine(
            jobs=1, results_dir=tmp_path / "pool", use_cache=False,
            progress=progress,
            executor=SocketExecutor(addrs, heartbeat_s=0.2, redispatch_backoff_s=0.05),
        )
        pooled = engine.run("exp", specs)
        assert engine.quarantined == []
        assert measurements_by_key(serial) == measurements_by_key(pooled)
        events = [e.get("event") for e in engine.runner_events]
        assert "lost" in events and "degraded" in events
        assert any(r.runner == "local" for r in pooled)
        # degraded cells ran in-process: no hang protection, records say so
        local = [r for r in pooled if r.runner == "local"]
        assert all(r.timeout_enforced is False for r in local)

    def test_fleet_visibility_in_journal_top_and_metrics(self, tmp_path, runner_pool):
        addrs = runner_pool.spawn(2)
        engine = RunEngine(
            jobs=2, results_dir=tmp_path, use_cache=False,
            executor=SocketExecutor(addrs),
        )
        engine.run("fleet", sockperf_specs(3))

        status = SweepStatus.load(tmp_path / "fleet")
        assert status.executor == "socket"
        assert len(status.runners) == 2
        assert status.runners_live == 2
        assert all(c.runner for c in status.cells)

        screen = render([status])
        assert "RUNNER" in screen and "fleet 2/2 live" in screen

        text = render_openmetrics(sweep_families([status]))
        families = parse_openmetrics(text)
        assert "repro_sweep_runners" in families

        manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
        assert manifest["executor"] == "socket"
        registered = [
            e for e in manifest["runner_events"] if e.get("event") == "registered"
        ]
        assert len(registered) == 2
        assert all(run["runner"] for run in manifest["runs"])
