"""Tests for the CLI."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        actions = {a.dest: a for a in parser._actions}
        choices = actions["command"].choices
        assert set(choices) == {
            "throughput", "latency", "multiflow", "memcached", "compare",
            "ceilings", "faults", "trace", "prof", "fidelity",
            "resume", "fsck", "migrate", "top", "metrics", "report", "diff",
            "runner",
        }

    def test_throughput_command_runs(self, capsys):
        rc = main([
            "throughput", "--system", "vanilla", "--proto", "tcp",
            "--size", "65536", "--warmup-ms", "0.5", "--measure-ms", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Gbps" in out and "core utilization" in out

    def test_ceilings_command_runs(self, capsys):
        assert main(["ceilings", "--proto", "udp"]) == 0
        out = capsys.readouterr().out
        assert "vanilla overlay" in out

    def test_multiflow_command_runs(self, capsys):
        rc = main([
            "multiflow", "--system", "mflow", "--flows", "2",
            "--warmup-ms", "0.5", "--measure-ms", "2",
        ])
        assert rc == 0
        assert "aggregate" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_invalid_system_exits(self):
        with pytest.raises(SystemExit):
            main(["throughput", "--system", "bogus"])
