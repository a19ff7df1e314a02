"""Final coverage batch: small behaviours not exercised elsewhere."""

import pytest

from repro.experiments.base import (
    FULL_MEASURE_NS,
    QUICK_MEASURE_NS,
    breakdown_row,
    windows,
)


class TestExperimentWindows:
    def test_quick_windows_shorter(self):
        assert windows(True)["measure_ns"] == QUICK_MEASURE_NS
        assert windows(False)["measure_ns"] == FULL_MEASURE_NS
        assert windows(True)["measure_ns"] < windows(False)["measure_ns"]

    def test_breakdown_row_format(self):
        row = breakdown_row(3, {"vxlan": 0.4, "irq:pnic": 0.1, "tiny": 0.001})
        assert row.startswith("core3:")
        assert "vxlan_dev=40%" in row
        assert "driver=10%" in row
        assert "tiny" not in row  # below display threshold


class TestPackageApi:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_subpackage_imports(self):
        import repro.analysis
        import repro.cli
        import repro.core
        import repro.cpu
        import repro.experiments
        import repro.metrics
        import repro.netstack
        import repro.overlay
        import repro.sim
        import repro.steering
        import repro.workloads  # noqa: F401


class TestScenarioRssIndices:
    def test_rss_indices_create_queues(self):
        from repro.overlay.topology import DatapathKind
        from repro.steering.rss import RssPolicy
        from repro.workloads.scenario import Scenario

        sc = Scenario(
            DatapathKind.OVERLAY,
            "tcp",
            lambda c: RssPolicy(c, app_core=0, core_pool=[1, 2, 3]),
            n_receiver_cores=6,
            rss_core_indices=[1, 2, 3],
        )
        assert sc.nic.n_queues == 3


class TestWebServingResultHelpers:
    def test_result_math(self):
        from repro.workloads.webserving import OpStats, WebServingResult

        stats = {
            "browse": OpStats(issued=10, completed=8, success=6,
                              latencies_ns=[1e6, 2e6], delays_ns=[5e5]),
            "login": OpStats(),
        }
        res = WebServingResult("mflow", 10, stats, window_s=2.0)
        assert res.success_ops_per_sec("browse") == 3.0
        assert res.total_success_per_sec() == 3.0
        assert res.mean_response_us("browse") == pytest.approx(1500.0)
        assert res.mean_delay_us("browse") == pytest.approx(500.0)
        assert res.mean_response_us("login") == 0.0


class TestBottleneckLayouts:
    def test_native_stage_list_excludes_overlay(self):
        from repro.analysis.bottleneck import BottleneckModel
        from repro.workloads.sockperf import build_scenario

        m = BottleneckModel(build_scenario("native", "tcp", 65536))
        names = {load.stage for load in m.loads}
        assert "vxlan" not in names and {"tcp_rcv", "tcp_deliver"} <= names


class TestRpcConnectionLifecycle:
    def test_stop_halts_issuing(self):
        from repro.workloads.memcached import build_memcached

        eng = build_memcached("vanilla", 1, connections_per_client=2)
        conns = list(eng.connections.values())
        eng.start()
        eng.sim.run(until_ns=1e6)
        conns[0].stop()
        done_before = conns[0].stats.completed
        eng.sim.run(until_ns=3e6)
        # a stopped connection completes at most its in-flight request
        assert conns[0].stats.completed <= done_before + 1
        # the other connection keeps going
        assert conns[1].stats.completed > conns[0].stats.completed
