"""Cross-cutting integration invariants over full scenario runs.

These are the guarantees the whole system must uphold regardless of
configuration: in-order TCP delivery, work conservation, utilization
bounds, determinism of the experiment harness.
"""

import pytest

from repro.netstack.costs import DEFAULT_COSTS
from repro.overlay.topology import DatapathKind
from repro.workloads.scenario import Scenario
from repro.workloads.sockperf import build_scenario, run_single_flow

WARM = 1e6
MEAS = 3e6


class TestTcpOrderInvariant:
    """MFLOW's raison d'être: parallelism must never reorder TCP bytes."""

    @pytest.mark.parametrize("batch", [1, 16, 256])
    def test_no_ooo_segments_reach_tcp_any_batch(self, batch):
        res = run_single_flow(
            "mflow", "tcp", 65536, warmup_ns=WARM, measure_ns=MEAS, batch_size=batch
        )
        # OOO segments at TCP would mean the reassembler leaked disorder
        # into the stateful layer (timeout skips are the only excuse, and
        # a lossless TCP path must not need them)
        assert res.counters.get("tcp_dup_segments", 0) == 0
        assert res.counters.get("mflow_merge_skips", 0) == 0

    @pytest.mark.parametrize("n_cores", [1, 3])
    def test_order_with_any_branch_count(self, n_cores):
        sc = build_scenario(
            "mflow", "tcp", 65536,
            n_split_cores=n_cores, n_receiver_cores=4 + 2 * n_cores,
        )
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        assert res.counters.get("tcp_ooo_segments", 0) == 0
        assert res.throughput_gbps > 5.0

    def test_delivered_bytes_monotone_with_window(self):
        short = run_single_flow("mflow", "tcp", 65536, warmup_ns=WARM, measure_ns=2e6)
        long = run_single_flow("mflow", "tcp", 65536, warmup_ns=WARM, measure_ns=4e6)
        assert (
            long.counters["tcp_delivered_bytes"] > short.counters["tcp_delivered_bytes"]
        )


class TestUtilizationBounds:
    @pytest.mark.parametrize("system", ["native", "vanilla", "falcon", "mflow"])
    def test_utilization_in_unit_interval(self, system):
        res = run_single_flow(system, "tcp", 65536, warmup_ns=WARM, measure_ns=MEAS)
        for u in res.cpu_utilization:
            assert -1e-6 <= u <= 1.0 + 1e-6

    def test_busy_cores_match_policy_footprint(self):
        res = run_single_flow("vanilla", "tcp", 65536, warmup_ns=WARM, measure_ns=MEAS)
        # vanilla touches exactly cores 0 (app) and 1 (kernel)
        for idx, u in enumerate(res.cpu_utilization):
            if idx in (0, 1):
                assert u > 0.05
            else:
                assert u < 0.01


class TestThroughputSanity:
    def test_never_exceeds_link_rate(self):
        for system in ("native", "mflow"):
            res = run_single_flow(system, "tcp", 65536, warmup_ns=WARM, measure_ns=MEAS)
            assert res.throughput_gbps < DEFAULT_COSTS.link_gbps

    def test_udp_goodput_never_exceeds_offered(self):
        sc = build_scenario("mflow", "udp", 65536)
        senders = list(sc._senders.values())
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        offered_bytes = sum(s.messages_sent for s in senders) * 65536
        assert res.counters["udp_delivered_bytes"] <= offered_bytes

    def test_more_clients_do_not_reduce_vanilla_udp_goodput_much(self):
        """Goodput under overload stays broadly stable (drops are burst-
        aligned at the ring, not random per fragment)."""

        def goodput(n):
            from repro.steering.vanilla import VanillaPolicy

            sc = Scenario(
                DatapathKind.OVERLAY,
                "udp",
                lambda c: VanillaPolicy(c, app_core=0, role_cores={"first": 1}),
            )
            for _ in range(n):
                sc.add_udp_sender(65536)
            return sc.run(warmup_ns=WARM, measure_ns=MEAS).throughput_gbps

        assert goodput(5) > 0.4 * goodput(3)


class TestDeterminism:
    def test_mflow_run_replays_bit_identically(self):
        def run():
            res = run_single_flow("mflow", "udp", 65536, warmup_ns=WARM, measure_ns=MEAS, seed=7)
            return (
                res.throughput_gbps,
                res.messages_delivered,
                res.counters.get("mflow_ooo_packets", 0),
                tuple(round(u, 9) for u in res.cpu_utilization),
            )

        assert run() == run()

    def test_memcached_replays(self):
        from repro.workloads.memcached import run_memcached

        a = run_memcached("mflow", 2, warmup_ns=WARM, measure_ns=MEAS, seed=3)
        b = run_memcached("mflow", 2, warmup_ns=WARM, measure_ns=MEAS, seed=3)
        assert a.requests_per_sec == b.requests_per_sec
        assert a.latency.p99_us == b.latency.p99_us


class TestMflowRegionIsolation:
    def test_pre_split_work_stays_on_dispatch_core(self):
        sc = build_scenario("mflow", "udp", 65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        # device scaling: skb_alloc/gro are pre-split -> dispatch core 1
        for idx in (2, 3):
            assert "skb_alloc" not in res.cpu_breakdown[idx]
        assert "vxlan" not in res.cpu_breakdown[1]

    def test_branch_cores_share_evenly(self):
        sc = build_scenario("mflow", "udp", 65536)
        res = sc.run(warmup_ns=WARM, measure_ns=MEAS)
        u2, u3 = res.cpu_utilization[2], res.cpu_utilization[3]
        assert abs(u2 - u3) < 0.12  # even micro-flow distribution

    def test_full_path_tcp_alloc_isolated(self):
        res = run_single_flow("mflow", "tcp", 65536, warmup_ns=WARM, measure_ns=MEAS)
        # alloc cores run only skb_alloc (+steering overhead)
        for idx in (2, 3):
            tags = {t.split(":")[0] for t in res.cpu_breakdown[idx]}
            assert "vxlan" not in tags and "gro" not in tags
