"""TCP endpoints.

The receive side is the stateful stage the paper's whole design revolves
around: packets MUST enter it in order.  Segments arriving above
``rcv_nxt`` go to a per-flow out-of-order queue at a significant extra
cost (the kernel's ofo-queue handling) and are only released once the
gap fills — which is exactly why naive per-packet steering is a loss and
why MFLOW merges micro-flows *before* this stage.

The sender is window-limited (ACK-clocked) and CPU-limited: each
``sendmsg`` costs syscall time on the client's application core and each
segment costs transmit-path time on the client's kernel core (plus VxLAN
encapsulation on overlay paths).  This makes the client the bottleneck
for small messages, reproducing the paper's 16 B observations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cpu.core import Core
from repro.metrics.telemetry import Telemetry
from repro.netstack.costs import CostModel
from repro.netstack.packet import (
    MAX_SEGMENT_PAYLOAD,
    MTU,
    VXLAN_OVERHEAD,
    FlowKey,
    Packet,
    Skb,
    fragment_message,
)
from repro.netstack.stages import Stage, StageContext
from repro.sim.engine import Simulator

#: per-frame inner headers on the wire (see :attr:`Packet.wire_bytes`)
_HEADERS = MTU - MAX_SEGMENT_PAYLOAD


class _TcpFlowState:
    """Per-flow receiver state: next expected byte and the OOO queue."""

    __slots__ = ("rcv_nxt", "ooo", "dup_segments", "ooo_segments")

    def __init__(self) -> None:
        self.rcv_nxt = 0
        self.ooo: Dict[int, Skb] = {}  # start-seq -> skb
        self.dup_segments = 0
        self.ooo_segments = 0


class TcpReceiverStage(Stage):
    """In-order TCP receive processing + cumulative ACK generation.

    Forwards in-order skbs (possibly draining the OOO queue behind them)
    to the delivery stage.  Not droppable: the sender window bounds the
    number of TCP segments in flight, so backlogs can't grow unboundedly.
    """

    name = "tcp_rcv"
    droppable = False
    cost_base = "tcp_rcv_ns"

    def __init__(self, ack_fn: Optional[Callable[[FlowKey, int], None]] = None):
        self._flows: Dict[FlowKey, _TcpFlowState] = {}
        self._ack_fn = ack_fn
        self.total_ooo_events = 0

    def flow_state(self, flow: FlowKey) -> _TcpFlowState:
        st = self._flows.get(flow)
        if st is None:
            st = self._flows[flow] = _TcpFlowState()
        return st

    def iter_flows(self):
        """(flow, state) pairs — read-only socket introspection."""
        return self._flows.items()

    def detach_flow(self, flow: FlowKey) -> Optional[_TcpFlowState]:
        """Remove and return ``flow``'s live socket state (``rcv_nxt`` and
        the OOO queue) — the migration freeze path."""
        return self._flows.pop(flow, None)

    def attach_flow(self, flow: FlowKey, state: _TcpFlowState) -> None:
        """Reinstall a detached socket state (the migration restore path)."""
        self._flows[flow] = state

    def release_flow(self, flow: FlowKey, pipeline) -> int:
        """Drop ``flow``'s state, recycling parked OOO skbs to the pool."""
        st = self._flows.pop(flow, None)
        if st is None:
            return 0
        released = len(st.ooo)
        for skb in st.ooo.values():
            pipeline.recycle_skb(skb)
        st.ooo.clear()
        return released

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        flow = skb.flow
        st = self._flows.get(flow)
        if st is None:
            st = self._flows[flow] = _TcpFlowState()
        packets = skb.packets
        seq = packets[0].seq
        out: List[Skb] = []
        if seq == st.rcv_nxt:
            tail = packets[-1]
            st.rcv_nxt = tail.seq + tail.payload
            out.append(skb)
            # drain any queued continuation
            ooo = st.ooo
            while st.rcv_nxt in ooo:
                queued = ooo.pop(st.rcv_nxt)
                tail = queued.packets[-1]
                st.rcv_nxt = tail.seq + tail.payload
                out.append(queued)
        elif seq > st.rcv_nxt:
            # out-of-order: park in the ofo queue, charge the kernel's
            # per-segment reordering penalty on this core
            segs = len(packets)
            st.ooo[seq] = skb
            st.ooo_segments += segs
            self.total_ooo_events += 1
            ctx.counters["tcp_ooo_segments"] += segs
            ctx.core.submit_call(
                "tcp_ooo", ctx.costs.tcp_ooo_penalty_ns * segs, _noop
            )
        else:
            segs = len(packets)
            st.dup_segments += segs
            ctx.counters["tcp_dup_segments"] += segs
            # the duplicate is dead here — return its pooled skb
            ctx.pipeline.recycle_skb(skb)
        if out and self._ack_fn is not None:
            self._ack_fn(flow, st.rcv_nxt)
        return out


class TcpDeliverStage(Stage):
    """tcp_recvmsg: copy to the user buffer on the application core.

    Terminal stage; counts delivered bytes/messages and records message
    latency when the last byte of a message is copied.  Application
    workloads can register ``on_message`` to be told when a complete
    message reaches user space (the recv() returning, in effect).
    """

    name = "tcp_deliver"
    droppable = False
    cost_base = "copy_per_skb_ns"
    cost_per_byte = "copy_per_byte_ns"

    def __init__(self, on_message: Optional[Callable[[FlowKey, Packet], None]] = None):
        self._on_message = on_message

    def set_message_callback(self, fn: Callable[[FlowKey, Packet], None]) -> None:
        self._on_message = fn

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        packets = skb.packets
        nbytes = 0
        for pkt in packets:
            nbytes += pkt.payload
        counters = ctx.counters
        counters["tcp_delivered_bytes"] += nbytes
        counters["tcp_delivered_segments"] += len(packets)
        now = ctx.sim._now
        for pkt in packets:
            if pkt.messages_completed:
                counters["tcp_delivered_messages"] += pkt.messages_completed
                ctx.telemetry.observe("tcp_msg_latency_ns", now - pkt.send_ts)
                if self._on_message is not None:
                    self._on_message(skb.flow, pkt)
        ctx.pipeline.recycle_skb(skb)
        return []


class TcpSender:
    """A windowed, CPU-limited TCP sender on the client machine.

    Runs in *throughput mode* (infinite message backlog) by default, or
    on-demand via :meth:`send_message` for request/response workloads.
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
        window_bytes: Optional[int] = None,
        continuous: bool = True,
        interval_ns: Optional[float] = None,
        rto_ns: Optional[float] = None,
    ):
        if message_size <= 0:
            raise ValueError(f"message size must be positive, got {message_size}")
        if rto_ns is not None and rto_ns <= 0.0:
            raise ValueError(f"rto_ns must be positive, got {rto_ns}")
        self.sim = sim
        self.costs = costs
        self.flow = flow
        self.message_size = message_size
        self.wire = wire
        self.app_core = app_core
        self.kernel_core = kernel_core
        self.telemetry = telemetry
        self.encap = encap
        self.window_bytes = window_bytes if window_bytes is not None else 1024 * 1448
        self.continuous = continuous
        self.interval_ns = interval_ns
        self.next_seq = 0
        self.acked_seq = 0
        self.next_msg_id = 0
        self.messages_sent = 0
        self._sending = False
        #: set by :meth:`stop`: no new message goes out
        self._stopped = False
        self._pending_requests: List[tuple] = []  # (size, on_sent) for demand mode
        self._pace_next_ns = 0.0  # token-bucket pacer (fq/TSQ-style)
        self._send_start_ns = 0.0
        # Retransmission (off by default — the stock model is lossless and
        # window-limited, and golden-seed runs must stay bit-identical).
        # Migration plans arm an RTO so blackout/loss gaps recover: unacked
        # segments are kept and resent go-back-N style when the timer finds
        # no cumulative-ACK progress.
        self.rto_ns = rto_ns
        self.retransmit_segments = 0
        self._retx_queue: List[Packet] = []
        self._rto_armed = False
        self._acked_at_arm = 0

    # ----------------------------------------------------------------- API
    def start(self) -> None:
        """Begin continuous transmission (throughput mode)."""
        if not self.continuous:
            raise RuntimeError("start() is only valid in continuous mode")
        self._pump()

    def stop(self) -> None:
        """Send no new message (the flow is retired).  A message already
        in the send path still goes out, and frames already paced onto
        the wire still arrive; no retransmission follows."""
        self._stopped = True

    def send_message(self, size: Optional[int] = None, on_sent: Optional[Callable] = None) -> None:
        """Queue one message for transmission (request/response mode)."""
        self._pending_requests.append((size or self.message_size, on_sent))
        self._pump()

    def on_ack(self, flow: FlowKey, ack_seq: int) -> None:
        """Cumulative ACK from the receiver (invoked after wire delay)."""
        if ack_seq > self.acked_seq:
            self.acked_seq = ack_seq
            if self.rto_ns is not None and self._retx_queue:
                q = self._retx_queue
                drop = 0
                while drop < len(q) and q[drop].seq + q[drop].payload <= ack_seq:
                    drop += 1
                if drop:
                    del q[:drop]
        self._pump()

    @property
    def outstanding_bytes(self) -> int:
        return self.next_seq - self.acked_seq

    # ------------------------------------------------------------ internals
    def _next_message(self) -> Optional[tuple]:
        if self._pending_requests:
            return self._pending_requests.pop(0)
        if self.continuous:
            return (self.message_size, None)
        return None

    def _pump(self) -> None:
        if self._sending or self._stopped:
            return
        nxt = self._peek_size()
        if nxt is None:
            return
        # Nagle/autocork: in continuous throughput mode, sub-MSS messages
        # coalesce into one MSS-sized segment (sockperf TCP at 16 B is
        # bound by per-message syscalls on the client, not the receiver —
        # paper §V-A).
        batch = 1
        if self.continuous and not self._pending_requests and nxt < MAX_SEGMENT_PAYLOAD:
            batch = max(1, MAX_SEGMENT_PAYLOAD // nxt)
        total = nxt * batch
        if self.next_seq - self.acked_seq + total > self.window_bytes:
            return
        msg = self._next_message()
        assert msg is not None
        size, on_sent = msg
        self._sending = True
        self._send_start_ns = self.sim._now
        self.app_core.submit_call(
            "send_syscall",
            self.costs.send_syscall_ns * batch,
            self._segment,
            size * batch,
            on_sent,
            batch,
        )

    def _peek_size(self) -> Optional[int]:
        if self._pending_requests:
            return self._pending_requests[0][0]
        if self.continuous:
            return self.message_size
        return None

    def _segment(self, size: int, on_sent: Optional[Callable], batch: int = 1) -> None:
        frags = fragment_message(
            self.flow, self.next_msg_id, size, start_seq=self.next_seq, encap=self.encap
        )
        if batch > 1:
            # coalesced sub-MSS messages: the (single) segment completes
            # `batch` application messages at once
            frags[-1].messages_completed = batch
        self.next_msg_id += 1
        self.next_seq += size
        per_seg = self.costs.send_per_seg_tcp_ns + (
            self.costs.send_encap_per_seg_ns if self.encap else 0.0
        )
        self.kernel_core.submit_call(
            "send_xmit", per_seg * len(frags), self._transmit, frags, on_sent, batch
        )

    def _transmit(self, frags: List[Packet], on_sent: Optional[Callable], batch: int = 1) -> None:
        sim = self.sim
        now = sim._now
        send = self.wire.send
        gap_per_byte = 8.0 / self.costs.tcp_pacing_gbps
        # Packet.wire_bytes less the payload: every frame of one message
        # carries the sender's encap flag until it is sent
        headers = _HEADERS + (VXLAN_OVERHEAD if self.encap else 0)
        t = max(now, self._pace_next_ns)
        for pkt in frags:
            pkt.send_ts = now
            if t <= now:
                send(pkt)
            else:
                # t > now on this branch: no past-time check needed
                sim._sched(t, send, (pkt,))
            t += (pkt.payload + headers) * gap_per_byte
        self._pace_next_ns = t
        if self.rto_ns is not None:
            self._retx_queue.extend(frags)
            self._arm_rto()
        self.messages_sent += batch
        self.telemetry.counters["tcp_messages_sent"] += batch
        if on_sent is not None:
            on_sent()
        if self.interval_ns is not None:
            # rate-limited mode (latency measurements below saturation);
            # the interval is measured from send start
            elapsed = self.sim.now - self._send_start_ns
            self.sim.call_in(max(0.0, self.interval_ns - elapsed), self._unblock)
        else:
            self._sending = False
            self._pump()

    def _unblock(self) -> None:
        self._sending = False
        self._pump()

    # ------------------------------------------------------- retransmission
    def _arm_rto(self) -> None:
        if self._rto_armed:
            return
        self._rto_armed = True
        self._acked_at_arm = self.acked_seq
        # bound method, not a closure: a live event heap stays picklable
        self.sim.call_in(self.rto_ns, self._rto_check)

    def _rto_check(self) -> None:
        self._rto_armed = False
        if not self._retx_queue or self._stopped:
            return  # everything acked; the next transmit re-arms
        if self.acked_seq > self._acked_at_arm:
            # cumulative-ACK progress within the RTO: no loss signal yet
            self._arm_rto()
            return
        self._retransmit()
        self._arm_rto()

    def _retransmit(self) -> None:
        """Go-back-N: resend every unacked segment as an independent clone
        (the originals may still be in flight or delivered — the receiver's
        ``rcv_nxt`` discipline discards whichever copy arrives late)."""
        from repro.faults.injectors import clone_packet

        gap_per_byte = 8.0 / self.costs.tcp_pacing_gbps
        t = max(self.sim.now, self._pace_next_ns)
        for pkt in self._retx_queue:
            copy = clone_packet(pkt)
            if t <= self.sim.now:
                self.wire.send(copy)
            else:
                self.sim.call_at(t, self.wire.send, copy)
            t += copy.wire_bytes * gap_per_byte
        self._pace_next_ns = t
        self.retransmit_segments += len(self._retx_queue)
        self.telemetry.count("tcp_retransmit_segments", len(self._retx_queue))


def _noop() -> None:
    return None
