"""Unit tests for the MFLOW steering policy."""

import pytest

from helpers import TEST_FLOW, make_skb
from repro.core.config import BranchPlan, MflowConfig
from repro.core.mflow import MflowPolicy
from repro.cpu.topology import CpuSet
from repro.netstack.packet import FlowKey
from repro.overlay.topology import DatapathKind, build_datapath_stages
from repro.sim.engine import Simulator
from repro.steering.base import DELIVERY_STAGES


def cpus(n=16):
    return CpuSet(Simulator(), n)


def build_policy(config, c=None, **kw):
    c = c if c is not None else cpus()
    policy = MflowPolicy(c, config, **kw)
    stages = build_datapath_stages(DatapathKind.OVERLAY, "tcp")
    policy.build_pipeline_stages(stages)
    return policy


class TestConfig:
    def test_full_path_tcp_shape(self):
        cfg = MflowConfig.full_path_tcp()
        assert cfg.split_before == "skb_alloc"
        assert cfg.merge_before == "tcp_rcv"
        assert cfg.n_branches == 2
        assert cfg.branches[0].core_for("skb_alloc") == 2
        assert cfg.branches[0].core_for("gro") == 4

    def test_device_scaling_shape(self):
        cfg = MflowConfig.device_scaling()
        assert cfg.split_before == "vxlan"
        assert cfg.merge_before == "udp_deliver"

    def test_mismatched_pipelining_cores_rejected(self):
        with pytest.raises(ValueError):
            MflowConfig.full_path_tcp(alloc_cores=[2], rest_cores=[4, 5])

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            MflowConfig("a", "b", [BranchPlan(1)], batch_size=0)

    def test_same_split_merge_rejected(self):
        with pytest.raises(ValueError):
            MflowConfig("a", "a", [BranchPlan(1)])

    def test_needs_branches(self):
        with pytest.raises(ValueError):
            MflowConfig("a", "b", [])

    def test_auto_stall_threshold(self):
        cfg = MflowConfig("a", "b", [BranchPlan(1), BranchPlan(2)], batch_size=64)
        assert cfg.merge_stall_skbs == 4 * 64 * 2


class TestPipelineSplicing:
    def test_nodes_inserted_at_right_places(self):
        policy = MflowPolicy(cpus(), MflowConfig.full_path_tcp())
        stages = build_datapath_stages(DatapathKind.OVERLAY, "tcp")
        names = [s.name for s in policy.build_pipeline_stages(stages)]
        assert names.index("mflow_split") == names.index("skb_alloc") - 1
        assert names.index("mflow_merge") == names.index("tcp_rcv") - 1

    def test_unknown_split_point_rejected(self):
        policy = MflowPolicy(cpus(), MflowConfig("nope", "tcp_rcv", [BranchPlan(2)]))
        with pytest.raises(ValueError):
            policy.build_pipeline_stages(build_datapath_stages(DatapathKind.OVERLAY, "tcp"))

    def test_merge_before_split_rejected(self):
        policy = MflowPolicy(cpus(), MflowConfig("tcp_rcv", "skb_alloc", [BranchPlan(2)]))
        with pytest.raises(ValueError):
            policy.build_pipeline_stages(build_datapath_stages(DatapathKind.OVERLAY, "tcp"))

    def test_use_before_build_rejected(self):
        policy = MflowPolicy(cpus(), MflowConfig.full_path_tcp())
        with pytest.raises(RuntimeError):
            policy.kernel_core_for("gro", make_skb(), None)


class TestCorePlacement:
    def test_full_path_routing(self):
        policy = build_policy(MflowConfig.full_path_tcp())
        skb = make_skb()
        skb.branch = 0
        assert policy.core_for("mflow_split", skb, None).id == 1
        assert policy.core_for("skb_alloc", skb, None).id == 2
        assert policy.core_for("gro", skb, None).id == 4
        assert policy.core_for("vxlan", skb, None).id == 4
        skb.branch = 1
        assert policy.core_for("skb_alloc", skb, None).id == 3
        assert policy.core_for("gro", skb, None).id == 5
        # post-merge stateful work on the app/merge core
        assert policy.core_for("mflow_merge", skb, None).id == 0
        assert policy.core_for("tcp_rcv", skb, None).id == 0
        assert policy.core_for("tcp_deliver", skb, None).id == 0

    def test_device_scaling_routing(self):
        cfg = MflowConfig.device_scaling(split_cores=[2, 3], merge_before="tcp_rcv")
        policy = build_policy(cfg)
        skb = make_skb()
        # pre-split stages stay on the dispatch core
        assert policy.core_for("skb_alloc", skb, None).id == 1
        assert policy.core_for("gro", skb, None).id == 1
        skb.branch = 1
        assert policy.core_for("vxlan", skb, None).id == 3
        assert policy.core_for("veth_rx", skb, None).id == 3

    def test_multi_app_core_merge_follows_flow(self):
        cfg = MflowConfig.full_path_tcp()
        policy = build_policy(cfg, app_core=[0, 6])
        a = make_skb(flow=FlowKey(1, 2, "tcp", 1, 80))
        b = make_skb(flow=FlowKey(2, 2, "tcp", 2, 80))
        ca = policy.core_for("mflow_merge", a, None).id
        cb = policy.core_for("mflow_merge", b, None).id
        assert {ca, cb} == {0, 6}

    def test_aggregate_merge_core_fixed(self):
        cfg = MflowConfig(
            "skb_alloc", "tcp_rcv", [BranchPlan(5), BranchPlan(6)],
            dispatch_core=4, merge_core=7, aggregate=True,
        )
        policy = build_policy(cfg, app_core=[0, 1, 2, 3])
        a = make_skb(flow=FlowKey(1, 2, "tcp", 1, 80))
        b = make_skb(flow=FlowKey(2, 2, "tcp", 2, 80))
        assert policy.core_for("mflow_merge", a, None).id == 7
        assert policy.core_for("mflow_merge", b, None).id == 7
        # post-merge on each flow's own app core
        assert policy.core_for("tcp_rcv", a, None).id != policy.core_for("tcp_rcv", b, None).id

    def test_pool_mode_assigns_disjoint_cores_per_flow(self):
        cfg = MflowConfig.full_path_tcp()
        policy = build_policy(cfg, app_core=[0], core_pool=[5, 6, 7, 8, 9, 10])
        skb = make_skb()
        skb.branch = 0
        d = policy.core_for("mflow_split", skb, None).id
        b0 = policy.core_for("vxlan", skb, None).id
        skb.branch = 1
        b1 = policy.core_for("vxlan", skb, None).id
        assert len({d, b0, b1}) == 3

    def test_nic_queue_alignment_in_pool_mode(self):
        cfg = MflowConfig.full_path_tcp()
        policy = build_policy(cfg, core_pool=[5, 6, 7, 8])
        skb = make_skb()
        assert policy.nic_queue_core_idx(skb.flow) == policy.core_for(
            "mflow_split", skb, None
        ).id

    def test_nic_queue_none_in_fixed_mode(self):
        policy = build_policy(MflowConfig.full_path_tcp())
        assert policy.nic_queue_core_idx(TEST_FLOW) is None

    def test_aggregate_split_merge_share_bookkeeping(self):
        cfg = MflowConfig(
            "skb_alloc", "tcp_rcv", [BranchPlan(5)], aggregate=True
        )
        policy = build_policy(cfg)
        assert policy.merge_stage.splitter is policy.split_stage
        assert not policy.split_stage.per_flow
        assert not policy.merge_stage.per_flow

    def test_policy_name(self):
        assert build_policy(MflowConfig.full_path_tcp()).name == "mflow"

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError):
            MflowPolicy(cpus(), MflowConfig.full_path_tcp(), placement="bogus")


class TestRouteCache:
    """``core_for`` memoises each (flow, stage, branch) hop; the cached
    answer must always equal the uncached slow path, also after routing
    changes (quarantine, readmission, retirement)."""

    FLOWS = [FlowKey(1, 2, "tcp", 1000 + i, 5001) for i in range(4)]

    def _policy(self):
        policy = MflowPolicy(
            cpus(), MflowConfig.full_path_tcp(), app_core=[0, 1],
            core_pool=list(range(2, 14)),
        )
        stages = policy.build_pipeline_stages(
            build_datapath_stages(DatapathKind.OVERLAY, "tcp")
        )
        return policy, [s.name for s in stages]

    @staticmethod
    def _uncached(policy, name, skb):
        """The hop resolved from the policy's state, bypassing the cache."""
        if name in DELIVERY_STAGES:
            return policy.cpus[policy.app_core_idx_for(skb.flow)]
        return policy.kernel_core_for(name, skb, None)

    def _assert_agrees(self, policy, names, flows=FLOWS):
        for flow in flows:
            skb = make_skb(flow=flow)
            for branch in (None, 0, 1):
                skb.branch = branch
                for name in names:
                    first = policy.core_for(name, skb, None)
                    cached = policy.core_for(name, skb, None)
                    slow = self._uncached(policy, name, skb)
                    assert first is cached is slow, (flow, branch, name)

    def test_cache_matches_slow_path_across_routing_changes(self):
        policy, names = self._policy()
        self._assert_agrees(policy, names)
        assert set(policy._routes) == set(self.FLOWS)

        flow = self.FLOWS[0]
        skb = make_skb(flow=flow)
        skb.branch = 1
        split_core = policy.core_for("mflow_split", skb, None)
        branch_core = policy.core_for("vxlan", skb, None)
        assert branch_core is not split_core

        assert policy.quarantine_flow(flow)
        assert flow not in policy._routes
        self._assert_agrees(policy, names)
        # degraded: in-region work now runs on the dispatch core
        assert policy.core_for("vxlan", skb, None) is split_core

        assert policy.readmit_flow(flow)
        self._assert_agrees(policy, names)
        assert policy.core_for("vxlan", skb, None) is branch_core

        retired = self.FLOWS[1]
        before = policy.core_for("mflow_split", make_skb(flow=retired), None)
        assert policy.retire_flow(retired)
        assert retired not in policy._routes
        # a newcomer claims the freed cores, so the retired flow re-plans
        # elsewhere: a stale cache entry would still point at `before`
        newcomer = FlowKey(9, 2, "tcp", 9000, 5001)
        self._assert_agrees(policy, names, flows=[newcomer, retired])
        assert policy.core_for("mflow_split", make_skb(flow=newcomer), None) is before
        assert policy.core_for("mflow_split", make_skb(flow=retired), None) is not before
        self._assert_agrees(policy, names)

    def test_per_packet_delivery_routing_stays_outside_cache(self):
        from repro.experiments.extensions import COPY_CHUNK_BYTES, ParallelCopyMflowPolicy

        policy = ParallelCopyMflowPolicy(cpus(), MflowConfig.full_path_tcp(), [0, 13])
        policy.build_pipeline_stages(build_datapath_stages(DatapathKind.OVERLAY, "tcp"))
        readers = [
            policy.core_for("tcp_deliver", make_skb(start_seq=k * COPY_CHUNK_BYTES), None).id
            for k in range(4)
        ]
        assert readers == [0, 13, 0, 13]
