"""Unit tests for the steering policies."""

import pytest

from helpers import TEST_FLOW, make_skb
from repro.cpu.topology import CpuSet
from repro.netstack.packet import FlowKey
from repro.overlay.topology import DatapathKind, build_datapath_stages
from repro.sim.engine import Simulator
from repro.steering.base import (
    DELIVERY_STAGES,
    PoolAllocator,
    StaticRolePolicy,
    stable_flow_hash,
)
from repro.steering.falcon import FalconDevPolicy, FalconFunPolicy
from repro.steering.rps import RpsPolicy
from repro.steering.rss import RssPolicy
from repro.steering.vanilla import VanillaPolicy


def cpus(n=16):
    return CpuSet(Simulator(), n)


class TestStableFlowHash:
    def test_deterministic(self):
        assert stable_flow_hash(TEST_FLOW) == stable_flow_hash(TEST_FLOW)

    def test_differs_by_field(self):
        base = stable_flow_hash(TEST_FLOW)
        assert stable_flow_hash(FlowKey(1, 2, "tcp", 1000, 2001)) != base
        assert stable_flow_hash(FlowKey(1, 2, "udp", 1000, 2000)) != base
        assert stable_flow_hash(FlowKey(2, 2, "tcp", 1000, 2000)) != base

    def test_spreads_over_pool(self):
        buckets = set()
        for i in range(64):
            f = FlowKey(i, 2, "tcp", 1000 + i, 2000)
            buckets.add(stable_flow_hash(f) % 10)
        assert len(buckets) >= 7  # near-uniform spread


class TestVanilla:
    def test_everything_on_one_core(self):
        c = cpus()
        p = VanillaPolicy(c, app_core=0, role_cores={"first": 1})
        skb = make_skb()
        for stage in ("skb_alloc", "gro", "vxlan", "tcp_rcv"):
            assert p.core_for(stage, skb, None).id == 1

    def test_delivery_on_app_core(self):
        c = cpus()
        p = VanillaPolicy(c, app_core=0, role_cores={"first": 1})
        assert p.core_for("tcp_deliver", make_skb(), None).id == 0


class TestRps:
    def test_splits_at_veth(self):
        c = cpus()
        p = RpsPolicy(c, app_core=0, role_cores={"first": 1, "steer": 2})
        skb = make_skb()
        for stage in ("skb_alloc", "gro", "vxlan", "bridge", "veth_xmit"):
            assert p.core_for(stage, skb, None).id == 1
        for stage in ("veth_rx", "ip_inner", "tcp_rcv"):
            assert p.core_for(stage, skb, None).id == 2


class TestFalcon:
    def test_device_level_pipeline(self):
        c = cpus()
        p = FalconDevPolicy(c, app_core=0, role_cores={"first": 1, "vxlan": 2, "rest": 3})
        skb = make_skb()
        assert p.core_for("skb_alloc", skb, None).id == 1
        assert p.core_for("gro", skb, None).id == 1
        assert p.core_for("vxlan", skb, None).id == 2
        assert p.core_for("bridge", skb, None).id == 3
        assert p.core_for("tcp_rcv", skb, None).id == 3

    def test_function_level_moves_gro(self):
        c = cpus()
        p = FalconFunPolicy(c, app_core=0, role_cores={"first": 1, "mid": 2, "rest": 3})
        skb = make_skb()
        assert p.core_for("skb_alloc", skb, None).id == 1
        assert p.core_for("gro", skb, None).id == 2
        assert p.core_for("vxlan", skb, None).id == 2
        assert p.core_for("veth_rx", skb, None).id == 3


class TestRss:
    def test_flow_affinity(self):
        c = cpus()
        p = RssPolicy(c, app_core=0, core_pool=[1, 2, 3, 4])
        skb = make_skb()
        first = p.core_for("skb_alloc", skb, None).id
        assert p.core_for("tcp_rcv", skb, None).id == first

    def test_requires_pool(self):
        with pytest.raises(ValueError):
            RssPolicy(cpus(), app_core=0)

    def test_flows_spread(self):
        c = cpus()
        p = RssPolicy(c, app_core=0, core_pool=[1, 2, 3, 4])
        used = set()
        for i in range(8):
            skb = make_skb(flow=FlowKey(i, 2, "tcp", 50 + i, 2000))
            used.add(p.core_for("skb_alloc", skb, None).id)
        assert len(used) == 4  # least-loaded placement uses every pool core


class TestPlacementModes:
    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            RssPolicy(cpus(), core_pool=[1, 2], placement="fancy")

    def test_round_robin_is_even(self):
        c = cpus()
        p = FalconFunPolicy(c, app_core=0, core_pool=[5, 6, 7, 8, 9, 10], placement="round-robin")
        firsts = []
        for i in range(2):
            skb = make_skb(flow=FlowKey(i, 2, "tcp", 50 + i, 2000))
            firsts.append(p.core_for("skb_alloc", skb, None).id)
        assert firsts == [5, 8]  # stride of len(roles)=3

    def test_hash_mode_is_stable(self):
        c = cpus()
        p1 = FalconFunPolicy(c, app_core=0, core_pool=[5, 6, 7], placement="hash")
        p2 = FalconFunPolicy(c, app_core=0, core_pool=[5, 6, 7], placement="hash")
        skb = make_skb()
        assert p1.core_for("gro", skb, None).id == p2.core_for("gro", skb, None).id

    def test_role_cores_and_pool_mutually_exclusive(self):
        with pytest.raises(ValueError):
            VanillaPolicy(cpus(), role_cores={"first": 1}, core_pool=[1, 2])
        with pytest.raises(ValueError):
            VanillaPolicy(cpus())

    def test_missing_role_rejected(self):
        with pytest.raises(ValueError):
            FalconDevPolicy(cpus(), role_cores={"first": 1})


class TestAppCoreAssignment:
    def test_single_app_core(self):
        p = VanillaPolicy(cpus(), app_core=0, role_cores={"first": 1})
        assert p.app_core_idx_for(TEST_FLOW) == 0

    def test_round_robin_over_app_cores(self):
        p = VanillaPolicy(cpus(), app_core=[0, 1, 2], role_cores={"first": 5})
        flows = [FlowKey(i, 2, "tcp", i, 80) for i in range(6)]
        assigned = [p.app_core_idx_for(f) for f in flows]
        assert assigned == [0, 1, 2, 0, 1, 2]

    def test_assignment_sticky(self):
        p = VanillaPolicy(cpus(), app_core=[0, 1], role_cores={"first": 5})
        f = FlowKey(9, 2, "tcp", 9, 80)
        assert p.app_core_idx_for(f) == p.app_core_idx_for(f)


class TestPoolAllocator:
    def test_least_loaded_pick(self):
        alloc = PoolAllocator([1, 2, 3])
        assert alloc.take(1.0) == 1
        assert alloc.take(1.0) == 2
        assert alloc.take(1.0) == 3
        assert alloc.take(0.5) == 1

    def test_exclude_respected(self):
        alloc = PoolAllocator([1, 2])
        assert alloc.take(1.0, exclude={1}) == 2

    def test_exclude_all_falls_back(self):
        alloc = PoolAllocator([1])
        assert alloc.take(1.0, exclude={1}) == 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            PoolAllocator([])


class TestRouteCache:
    """``SteeringPolicy.core_for`` caches every policy's answer per
    (flow, stage, branch); the cached answer must equal the uncached one
    a twin policy computes for the same queries in the same order."""

    POLICIES = [VanillaPolicy, RssPolicy, RpsPolicy, FalconDevPolicy, FalconFunPolicy]
    FLOWS = [FlowKey(i, 2, proto, 1000 + i, 5001) for i in range(5) for proto in ("tcp", "udp")]
    STAGES = sorted({
        s.name
        for kind in (DatapathKind.OVERLAY, DatapathKind.NATIVE)
        for proto in ("tcp", "udp")
        for s in build_datapath_stages(kind, proto)
    })

    def test_every_static_role_policy_is_covered(self):
        assert set(StaticRolePolicy.__subclasses__()) <= set(self.POLICIES)

    #: RSS hashes flows over a pool; it has no fixed mode
    CASES = [
        (cls, mode) for cls in POLICIES for mode in ("fixed", "pool")
        if not (cls is RssPolicy and mode == "fixed")
    ]

    @staticmethod
    def _make(cls, mode, placement):
        kw = {"app_core": [0, 1], "placement": placement}
        if mode == "pool":
            kw["core_pool"] = list(range(4, 14))
        else:
            kw["role_cores"] = {role: 4 + i for i, role in enumerate(cls.roles)}
        return cls(cpus(), **kw)

    @staticmethod
    def _uncached(policy, stage, skb):
        if stage in DELIVERY_STAGES:
            return policy.cpus[policy.app_core_idx_for(skb.flow)]
        return policy.kernel_core_for(stage, skb, None)

    @pytest.mark.parametrize("placement", ["least-loaded", "hash", "round-robin"])
    @pytest.mark.parametrize(
        "cls,mode", CASES, ids=[f"{c.__name__}-{m}" for c, m in CASES]
    )
    def test_cached_equals_uncached(self, cls, mode, placement):
        cached = self._make(cls, mode, placement)
        twin = self._make(cls, mode, placement)
        for rnd in range(2):
            for flow in self.FLOWS:
                skb = make_skb(flow=flow)
                for branch in (None, 0, 1):
                    skb.branch = branch
                    for stage in self.STAGES:
                        got = cached.core_for(stage, skb, None)
                        assert got is cached.core_for(stage, skb, None)
                        want = self._uncached(twin, stage, skb)
                        assert got.id == want.id, (rnd, flow, branch, stage)
        assert set(cached._routes) == set(self.FLOWS)
        # a pool flow's role claims are released with it (fixed roles hold
        # none), so the twin retires it too and both re-place it alike
        held = cached.retire_flow(self.FLOWS[0])
        assert held == (mode == "pool")
        assert twin.retire_flow(self.FLOWS[0]) == held
        assert self.FLOWS[0] not in cached._routes
        skb = make_skb(flow=self.FLOWS[0])
        for stage in self.STAGES:
            assert cached.core_for(stage, skb, None).id == self._uncached(twin, stage, skb).id


class TestAppCoreSlots:
    def test_fewest_served_then_first(self):
        policy = VanillaPolicy(cpus(), app_core=[0, 1, 2], role_cores={"first": 5})
        flows = [FlowKey(10 + i, 1, "tcp", 40000 + i, 5001) for i in range(5)]
        # while nothing retires: first-come round robin
        assert [policy.app_core_idx_for(f) for f in flows[:3]] == [0, 1, 2]
        policy.retire_flow(flows[1])
        assert policy.app_core_idx_for(flows[3]) == 1  # the freed slot
        assert policy.app_core_idx_for(flows[4]) == 0  # all tied: the first
        assert policy.app_core_idx_for(flows[0]) == 0  # placed flows stay


class TestRetireReleasesClaims:
    """A retired pool flow hands back what its roles claimed, and its
    app-core slot."""

    WINDOWS = {"warmup_ns": 100_000.0, "measure_ns": 200_000.0}

    def test_retired_flows_leave_no_load(self):
        from repro.workloads.multiflow import build_multiflow_scenario

        sc = build_multiflow_scenario("vanilla", 4, 65536)
        sc.run(**self.WINDOWS)
        policy = sc.policy
        flows = list(sc._senders)
        assert set(policy._flow_assignment) == set(flows)
        fresh = build_multiflow_scenario("vanilla", 4, 65536).policy
        for flow in flows:
            assert policy.retire_flow(flow)
            assert not policy.retire_flow(flow)  # nothing left to release
        assert set(policy._allocator.load.values()) == {0.0}
        assert not policy._flow_assignment
        assert not policy._app_assignment
        newcomer = FlowKey(200, 1, "tcp", 41000, 5001)
        assert policy._roles_for_flow(newcomer) == fresh._roles_for_flow(newcomer)
        assert policy._allocator.load == fresh._allocator.load
        assert policy.app_core_idx_for(newcomer) == fresh.app_core_idx_for(newcomer)
