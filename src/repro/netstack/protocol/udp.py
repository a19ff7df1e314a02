"""UDP endpoints.

UDP is the protocol where overlay overhead bites hardest in the paper:
no GRO amortization, and messages larger than the MTU become IP fragment
trains — losing any single fragment under overload discards the whole
datagram, which is why vanilla-overlay UDP goodput collapses to a small
fraction of native.

The receive side is split into two stages mirroring the paper's Fig. 6c:
``udp_rcv`` (socket demux, per skb, runs wherever the policy puts it —
on MFLOW's splitting cores under device scaling) and ``udp_deliver``
(datagram reassembly + copy to user, in ``udp_recvmsg`` context on the
application core, after MFLOW's merge point).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.cpu.core import Core
from repro.metrics.telemetry import Telemetry
from repro.netstack.costs import CostModel
from repro.netstack.packet import FlowKey, Packet, Skb, fragment_message
from repro.netstack.stages import Stage, StageContext
from repro.sim.engine import Simulator

#: per-flow cap on datagrams awaiting missing fragments; beyond this the
#: oldest incomplete datagram is evicted (models ipfrag timeout/memory cap)
REASSEMBLY_WINDOW = 256


class UdpReceiverStage(Stage):
    """udp_rcv: socket lookup + checksum, per skb.  Stateless — safely
    parallelizable by MFLOW (each datagram fragment is independent here)."""

    name = "udp_rcv"
    droppable = True
    cost_per_seg = "udp_rcv_ns"

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        ctx.counters["udp_rcv_segments"] += len(skb.packets)
        return [skb]


class UdpDeliverStage(Stage):
    """udp_recvmsg: fragment reassembly + copy to the user buffer.

    Terminal stage.  A datagram is *delivered* (goodput) only when all of
    its fragments have arrived; fragments of datagrams that never
    complete are wasted work, the amplification mechanism behind the
    paper's 80% UDP overlay loss.
    """

    name = "udp_deliver"
    droppable = True
    cost_base = "copy_per_skb_ns"
    cost_per_seg = "udp_reassembly_per_frag_ns"
    cost_per_byte = "copy_per_byte_ns"

    def __init__(self) -> None:
        # (flow, msg_id) -> [received frag indices, frag_count, send_ts, bytes]
        self._partial: "OrderedDict[Tuple[FlowKey, int], list]" = OrderedDict()
        self.incomplete_evicted = 0

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        tele = ctx.telemetry
        now = ctx.sim.now
        for pkt in skb.packets:
            self._add_fragment(pkt, tele, now)
        ctx.pipeline.recycle_skb(skb)
        return []

    def detach_flow(self, flow: FlowKey) -> "OrderedDict[Tuple[FlowKey, int], list]":
        """Remove and return ``flow``'s partially-reassembled datagrams
        (the migration freeze path); insertion order is preserved so the
        restore re-installs the same eviction ordering."""
        detached: "OrderedDict[Tuple[FlowKey, int], list]" = OrderedDict()
        for key in [k for k in self._partial if k[0] == flow]:
            detached[key] = self._partial.pop(key)
        return detached

    def attach_flow(self, entries: "OrderedDict[Tuple[FlowKey, int], list]") -> None:
        """Reinstall detached reassembly state (the migration restore path)."""
        for key, entry in entries.items():
            self._partial[key] = entry

    def _add_fragment(self, pkt: Packet, tele: Telemetry, now: float) -> None:
        if pkt.frag_count == 1:
            counters = tele.counters
            counters["udp_delivered_messages"] += 1
            counters["udp_delivered_bytes"] += pkt.payload
            tele.observe("udp_msg_latency_ns", now - pkt.send_ts)
            return
        key = (pkt.flow, pkt.msg_id)
        entry = self._partial.get(key)
        if entry is None:
            entry = [set(), pkt.frag_count, pkt.send_ts, 0]
            self._partial[key] = entry
            if len(self._partial) > REASSEMBLY_WINDOW:
                self._partial.popitem(last=False)
                self.incomplete_evicted += 1
                tele.count("udp_datagrams_expired")
        frags, count, send_ts, _ = entry
        if pkt.frag_index in frags:
            tele.count("udp_dup_fragments")
            return
        frags.add(pkt.frag_index)
        entry[3] += pkt.payload
        if len(frags) == count:
            del self._partial[key]
            counters = tele.counters
            counters["udp_delivered_messages"] += 1
            counters["udp_delivered_bytes"] += entry[3]
            tele.observe("udp_msg_latency_ns", now - send_ts)


class UdpSender:
    """An open-loop (optionally rate-limited) UDP message source.

    sockperf UDP clients are single-threaded and CPU-bound: each message
    costs a syscall on the client app core plus per-fragment transmit
    work (fragmentation + full stack, plus VxLAN encap on overlay paths)
    on the client kernel core.  With no acknowledgement mechanism the
    client simply sends as fast as its core allows — the client-side
    bottleneck the paper works around by running three clients.
    """

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        flow: FlowKey,
        message_size: int,
        wire,
        app_core: Core,
        kernel_core: Core,
        telemetry: Telemetry,
        encap: bool = False,
        interval_ns: Optional[float] = None,
        max_messages: Optional[int] = None,
    ):
        if message_size <= 0:
            raise ValueError(f"message size must be positive, got {message_size}")
        self.sim = sim
        self.costs = costs
        self.flow = flow
        self.message_size = message_size
        self.wire = wire
        self.app_core = app_core
        self.kernel_core = kernel_core
        self.telemetry = telemetry
        self.encap = encap
        self.interval_ns = interval_ns
        self.max_messages = max_messages
        self.next_msg_id = 0
        self.messages_sent = 0
        self._stopped = False
        self._send_start_ns = 0.0

    def start(self) -> None:
        self._send_next()

    def stop(self) -> None:
        self._stopped = True

    def _send_next(self) -> None:
        if self._stopped:
            return
        if self.max_messages is not None and self.messages_sent >= self.max_messages:
            return
        self._send_start_ns = self.sim.now
        self.app_core.submit_call(
            "send_syscall", self.costs.send_syscall_ns, self._segment
        )

    def _segment(self) -> None:
        frags = fragment_message(
            self.flow, self.next_msg_id, self.message_size, encap=self.encap
        )
        self.next_msg_id += 1
        send_ts = self.sim.now
        per_seg = self.costs.send_per_seg_udp_ns + (
            self.costs.send_encap_per_seg_ns if self.encap else 0.0
        )
        # Fragments are produced (and hit the wire) one by one as the
        # kernel core works through the fragmentation + transmit path,
        # which paces the wire naturally at the client's CPU speed.
        for pkt in frags[:-1]:
            self.kernel_core.submit_call("send_xmit", per_seg, self._emit, pkt, send_ts)
        self.kernel_core.submit_call(
            "send_xmit", per_seg, self._emit_last, frags[-1], send_ts
        )

    def _emit(self, pkt: Packet, send_ts: float) -> None:
        pkt.send_ts = send_ts
        self.wire.send(pkt)

    def _emit_last(self, pkt: Packet, send_ts: float) -> None:
        self._emit(pkt, send_ts)
        self.messages_sent += 1
        self.telemetry.counters["udp_messages_sent"] += 1
        if self.interval_ns is not None:
            # rate-limited mode: the interval is measured from send start,
            # so the configured message rate is met regardless of how long
            # the fragmentation work took
            elapsed = self.sim.now - self._send_start_ns
            self.sim.call_in(max(0.0, self.interval_ns - elapsed), self._send_next)
        else:
            self._send_next()
