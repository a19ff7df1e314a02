"""Tests for the analysis package: bottleneck model, charts, conservation."""

import pytest

from repro.analysis.bottleneck import BottleneckModel
from repro.analysis.charts import bar_chart, line_chart
from repro.analysis.conservation import check_conservation
from repro.cli import CEILING_ROWS
from repro.netstack.costs import DEFAULT_COSTS
from repro.overlay.topology import DatapathKind
from repro.steering.base import SteeringPolicy
from repro.workloads.scenario import Scenario
from repro.workloads.sockperf import build_scenario, run_single_flow


def model(system, proto="tcp", branches=2):
    return BottleneckModel(build_scenario(system, proto, 65536, n_split_cores=branches))


class TestBottleneckModel:
    def test_rejects_unknown_proto(self):
        with pytest.raises(ValueError):
            model("vanilla", proto="sctp")

    def test_gro_factor_udp_is_one(self):
        assert model("vanilla", proto="udp").gro_factor() == 1.0

    def test_gro_factor_encap_smaller(self):
        assert model("vanilla").gro_factor() < model("native").gro_factor()

    def test_vanilla_native_ceiling_matches_calibration(self):
        """The analytic native TCP ceiling must sit near the paper's
        26.6 Gbps target (that is what the cost model is calibrated to)."""
        assert 22.0 < model("native").ceiling_gbps() < 31.0

    def test_overlay_ceiling_below_native(self):
        assert model("vanilla").ceiling_gbps() < 0.75 * model("native").ceiling_gbps()

    def test_falcon_above_vanilla_overlay(self):
        assert model("falcon").ceiling_gbps() > model("vanilla").ceiling_gbps()

    def test_mflow_branches_raise_ceiling(self):
        two = model("mflow", proto="udp").ceiling_gbps()
        assert two > model("vanilla", proto="udp").ceiling_gbps()
        assert two >= model("mflow", proto="udp", branches=1).ceiling_gbps()

    def test_missing_stage_in_assignment_rejected(self):
        """The walk asks the policy for every hop: a placement that leaves
        a stage out is an error, not a stage charged nowhere."""

        class AllocOnly(SteeringPolicy):
            def kernel_core_for(self, stage_name, skb, from_core):
                return self.cpus[{"skb_alloc": 1}[stage_name]]

        sc = Scenario(DatapathKind.NATIVE, "tcp", AllocOnly)
        with pytest.raises(KeyError):
            BottleneckModel(sc)

    def test_simulator_respects_analytic_ceiling(self):
        """Measured throughput must not exceed the upper bound, on every
        ``repro ceilings`` row, TCP and UDP."""
        over = []
        for proto in ("tcp", "udp"):
            for label, (system, branches) in CEILING_ROWS.items():
                ceiling = model(system, proto, branches).ceiling_gbps()
                measured = run_single_flow(
                    system, proto, 65536, warmup_ns=1e6, measure_ns=3e6,
                    n_split_cores=branches,
                ).throughput_gbps
                if measured > ceiling * 1.02:  # float slack
                    over.append(f"{proto} {label}: {measured:.2f} > {ceiling:.2f}")
        assert not over

    def test_mflow_tcp_bound_is_the_delivery_copy(self):
        """Paper §V-A: MFLOW TCP is bounded by the one delivery thread's
        copy to user space, on the application core."""
        m = model("mflow")
        assert m.binding() == (m.scenario.policy.app_cores[0], "tcp_deliver")
        assert m.ceiling_gbps() > model("native").ceiling_gbps()

    def test_core_loads_sum_handoffs(self):
        """FALCON device-level UDP is vanilla's path cut at two more core
        boundaries (before VxLAN and before the bridge): each adds one
        handoff on the receiving core and one dispatch on the sending one."""
        one_core = sum(model("vanilla", proto="udp").core_loads().values())
        pipelined = sum(model("falcon", proto="udp").core_loads().values())
        crossing = DEFAULT_COSTS.handoff_cost_ns + DEFAULT_COSTS.steer_dispatch_ns
        assert pipelined - one_core == pytest.approx(2 * crossing)

    def test_cost_what_if(self):
        """A cheaper copy lifts MFLOW TCP's ceiling: the copy binds it."""
        cheap = DEFAULT_COSTS.with_overrides(copy_per_byte_ns=0.08)
        faster = BottleneckModel(build_scenario("mflow", "tcp", 65536, costs=cheap))
        assert faster.ceiling_gbps() > model("mflow").ceiling_gbps()


class TestCharts:
    def test_bar_chart_contains_labels_and_values(self):
        out = bar_chart({"native": 26.6, "mflow": 29.8}, unit=" Gbps", title="t")
        assert "native" in out and "29.80 Gbps" in out and out.startswith("t")

    def test_bar_chart_peak_fills_width(self):
        out = bar_chart({"a": 10.0, "b": 5.0}, width=20)
        rows = out.splitlines()
        assert rows[0].count("#") == 20
        assert rows[1].count("#") == 10

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_line_chart_renders_all_series(self):
        out = line_chart(
            {"x2": [(1, 1), (2, 4)], "x3": [(1, 1), (2, 8)]}, width=20, height=6
        )
        assert "x2" in out and "x3" in out
        assert "*" in out and "o" in out

    def test_line_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})


class TestConservation:
    def test_balanced_run_is_ok(self):
        counters = {
            "nic_rx_packets": 100,
            "nic_ring_drops": 0,
            "backlog_drops": 10,
            "tcp_delivered_segments": 85,
        }
        rep = check_conservation(counters, sent_packets=100, proto="tcp",
                                 in_flight_estimate=10)
        assert rep.unaccounted == 5
        assert rep.ok()

    def test_overdelivery_fails(self):
        counters = {"nic_rx_packets": 10, "tcp_delivered_segments": 20}
        rep = check_conservation(counters, sent_packets=10, proto="tcp")
        assert not rep.ok()

    def test_unknown_proto_rejected(self):
        with pytest.raises(ValueError):
            check_conservation({}, 0, "sctp")

    def test_real_tcp_run_conserves(self):
        from repro.overlay.topology import DatapathKind
        from repro.steering.vanilla import VanillaPolicy
        from repro.workloads.scenario import Scenario

        sc = Scenario(
            DatapathKind.OVERLAY,
            "tcp",
            lambda c: VanillaPolicy(c, app_core=0, role_cores={"first": 1}),
        )
        sender = sc.add_tcp_sender(65536)
        res = sc.run(warmup_ns=1e6, measure_ns=3e6)
        sent_packets = res.counters.get("nic_rx_packets", 0)  # lossless wire
        rep = check_conservation(res.counters, sent_packets, "tcp")
        assert rep.ok()

    def test_real_udp_overload_run_conserves(self):
        from repro.overlay.topology import DatapathKind
        from repro.steering.vanilla import VanillaPolicy
        from repro.workloads.scenario import Scenario

        sc = Scenario(
            DatapathKind.OVERLAY,
            "udp",
            lambda c: VanillaPolicy(c, app_core=0, role_cores={"first": 1}),
        )
        for _ in range(3):
            sc.add_udp_sender(65536)
        res = sc.run(warmup_ns=1e6, measure_ns=4e6)
        rep = check_conservation(
            res.counters, res.counters.get("nic_rx_packets", 0), "udp",
            in_flight_estimate=2 * DEFAULT_COSTS.backlog_limit + DEFAULT_COSTS.rx_ring_size,
        )
        assert rep.ok()
