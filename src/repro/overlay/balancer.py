"""Consistent-hash load balancing at the host's overlay ingress.

Container overlays front their service replicas with an L3/L4 balancer
that must keep per-flow affinity while backends come and go — the
P4ContainerFlow recipe: a hash ring with virtual nodes, per-flow sticky
routing, and deterministic ring updates so a cutover re-points exactly
the flows whose backend moved and nothing else.

:class:`ConsistentHashBalancerStage` sits between the outer UDP demux
and VxLAN decapsulation (packets are still encapsulated — the balancer
is host-side ingress, ahead of any container processing).  In steady
state it is a cheap hash + forward.  During a migration it becomes the
blackout absorber: packets whose backend is draining or frozen are held
in a bounded FIFO buffer (or dropped once the buffer fills) and replayed
after the restore, preserving arrival order so TCP sees no artificial
reordering across the cutover.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, Dict, List, Set, Tuple

from repro.netstack.packet import FlowKey, Skb
from repro.netstack.stages import Stage, StageContext
from repro.steering.base import stable_flow_hash


def _fnv1a(data: bytes) -> int:
    """Process-stable 64-bit FNV-1a (Python's ``hash`` is salted)."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class HashRing:
    """A consistent-hash ring with virtual nodes and deterministic updates.

    Every backend contributes ``vnodes`` points placed by a stable hash
    of ``"<backend>#<replica>"``; lookups walk clockwise to the next
    point.  Adding or removing a backend rebuilds the ring from the
    sorted backend set, so the ring's state is a pure function of its
    membership — two simulations that perform the same membership
    changes agree on every subsequent lookup.
    """

    def __init__(self, vnodes: int = 32):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._backends: Set[str] = set()
        self._points: List[int] = []
        self._owners: List[str] = []

    def _rebuild(self) -> None:
        ring: List[Tuple[int, str]] = []
        for backend in sorted(self._backends):
            for replica in range(self.vnodes):
                ring.append((_fnv1a(f"{backend}#{replica}".encode()), backend))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [b for _, b in ring]

    def add(self, backend: str) -> None:
        if backend in self._backends:
            raise ValueError(f"backend {backend!r} already on the ring")
        self._backends.add(backend)
        self._rebuild()

    def remove(self, backend: str) -> None:
        if backend not in self._backends:
            raise KeyError(f"backend {backend!r} not on the ring")
        self._backends.remove(backend)
        self._rebuild()

    def backends(self) -> List[str]:
        return sorted(self._backends)

    def node_for(self, key: int) -> str:
        """The backend owning ``key`` (clockwise successor on the ring)."""
        if not self._points:
            raise KeyError("hash ring is empty")
        idx = bisect.bisect_right(self._points, key & 0xFFFFFFFFFFFFFFFF)
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def __len__(self) -> int:
        return len(self._backends)


class ConsistentHashBalancerStage(Stage):
    """Sticky per-flow balancing + blackout buffering at overlay ingress."""

    name = "lb"
    droppable = True
    cost_base = "lb_hash_ns"

    def __init__(self, ring: HashRing, buffer_packets: int = 4096):
        self.ring = ring
        self.buffer_packets = buffer_packets
        #: per-flow sticky routing: once a flow is pinned to a backend it
        #: stays there until a ring update explicitly re-points it
        self._sticky: Dict[FlowKey, str] = {}
        #: backends currently draining or frozen (buffer instead of forward)
        self._draining: Set[str] = set()
        #: blackout buffers, FIFO per draining backend
        self._buffers: Dict[str, Deque[Skb]] = {}
        self.packets_forwarded = 0
        self.packets_buffered = 0
        self.packets_dropped = 0
        self.flows_rerouted = 0
        #: per-flow forwards since the last ``mark_restore()`` — the
        #: controller's liveness signal for post-cutover traffic
        self.post_restore_forwarded: Dict[FlowKey, int] = {}
        self._count_post_restore = False

    # ------------------------------------------------------------- stage API
    def backend_for(self, flow: FlowKey) -> str:
        backend = self._sticky.get(flow)
        if backend is None:
            backend = self.ring.node_for(stable_flow_hash(flow))
            self._sticky[flow] = backend
        return backend

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        backend = self.backend_for(skb.flow)
        if backend in self._draining:
            buf = self._buffers.setdefault(backend, deque())
            if self.buffer_packets <= 0 or len(buf) >= self.buffer_packets:
                self.packets_dropped += 1
                ctx.telemetry.count("lb_blackout_dropped", skb.segs)
                ctx.pipeline.recycle_skb(skb)
                return []
            buf.append(skb)
            self.packets_buffered += 1
            ctx.telemetry.count("lb_blackout_buffered", skb.segs)
            return []
        self.packets_forwarded += 1
        if self._count_post_restore:
            self.post_restore_forwarded[skb.flow] = (
                self.post_restore_forwarded.get(skb.flow, 0) + 1
            )
        return [skb]

    # ------------------------------------------------------- cutover control
    def begin_drain(self, backend: str) -> None:
        """Stop admitting packets toward ``backend``; buffer them instead."""
        self._draining.add(backend)

    def repoint(self, old: str, new: str) -> int:
        """Deterministic ring update: replace ``old`` with ``new``.

        Sticky flows pinned to ``old`` are re-resolved against the updated
        ring; flows pinned elsewhere are untouched (the consistent-hash
        guarantee).  Returns the number of flows re-pointed.
        """
        self.ring.remove(old)
        if new not in self.ring.backends():
            self.ring.add(new)
        moved = 0
        for flow, backend in sorted(
            self._sticky.items(), key=lambda kv: stable_flow_hash(kv[0])
        ):
            if backend == old:
                self._sticky[flow] = self.ring.node_for(stable_flow_hash(flow))
                moved += 1
        self.flows_rerouted += moved
        return moved

    def release(self, backend: str) -> List[Skb]:
        """End ``backend``'s drain and hand back its blackout buffer (FIFO)."""
        self._draining.discard(backend)
        buf = self._buffers.pop(backend, None)
        return list(buf) if buf else []

    def mark_restore(self) -> None:
        """Start counting per-flow forwards (post-cutover liveness probe)."""
        self._count_post_restore = True
        self.post_restore_forwarded = {}

    def buffered_count(self) -> int:
        return sum(len(b) for b in self._buffers.values())
