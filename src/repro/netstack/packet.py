"""Packet and socket-buffer data structures.

A :class:`Packet` is a raw on-the-wire frame: at most MTU bytes, carrying
a slice of one transport message.  The NIC ring holds packets ("requests"
in the paper's driver terminology); ``skb`` allocation wraps them into
:class:`Skb` s, which are what the kernel stages then pass around.  GRO
may merge several consecutive same-flow Skbs into one (``segs`` > 1),
amortizing all downstream per-skb costs — the mechanism behind the
paper's observation that GRO mainly helps TCP.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

#: Ethernet MTU used throughout (matches the paper's testbed).
MTU: int = 1500

#: TCP MSS-ish payload per MTU frame (headers subtracted).
MAX_SEGMENT_PAYLOAD: int = 1448

#: VxLAN encapsulation overhead (outer Ethernet+IP+UDP+VxLAN headers).
VXLAN_OVERHEAD: int = 50


class FlowKey(NamedTuple):
    """5-tuple-equivalent flow identity (collapsed to src/dst/proto/ports)."""

    src: int
    dst: int
    proto: str  # "tcp" | "udp"
    sport: int
    dport: int


class Packet:
    """One wire frame: a slice of a transport message.

    ``wire_seq`` is a global arrival counter stamped by the NIC — the
    reference order against which out-of-order delivery (Fig. 7) is
    measured.  ``msg_id``/``frag_index``/``frag_count`` tie UDP fragments
    back to their datagram for reassembly; for TCP, ``seq`` is the byte
    sequence number of the segment.
    """

    __slots__ = (
        "flow",
        "payload",
        "seq",
        "msg_id",
        "frag_index",
        "frag_count",
        "messages_completed",
        "encap",
        "send_ts",
        "arrival_ts",
        "wire_seq",
    )

    def __init__(
        self,
        flow: FlowKey,
        payload: int,
        seq: int = 0,
        msg_id: int = 0,
        frag_index: int = 0,
        frag_count: int = 1,
        encap: bool = False,
        messages_completed: int = 0,
    ):
        if payload <= 0:
            raise ValueError(f"packet payload must be positive, got {payload}")
        self.flow = flow
        self.payload = payload
        self.seq = seq
        self.msg_id = msg_id
        self.frag_index = frag_index
        self.frag_count = frag_count
        # how many application messages end inside this packet (1 for the
        # last fragment of a normal message; >1 when Nagle/autocork packs
        # several small messages into one MSS segment)
        self.messages_completed = messages_completed
        self.encap = encap
        self.send_ts: float = 0.0
        self.arrival_ts: float = 0.0
        self.wire_seq: int = -1

    @property
    def wire_bytes(self) -> int:
        """Bytes occupying the link: payload + inner headers + optional encap."""
        inner = self.payload + (MTU - MAX_SEGMENT_PAYLOAD)
        return inner + (VXLAN_OVERHEAD if self.encap else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.flow.proto} msg={self.msg_id} seq={self.seq} "
            f"frag={self.frag_index}/{self.frag_count} {self.payload}B>"
        )


class Skb:
    """A socket buffer: one or more merged packets of the same flow.

    MFLOW stores its micro-flow metadata here (``microflow_id`` and
    ``branch``), exactly as the real implementation stashes the ID in the
    skb (paper footnote 5).

    Skbs on the receive datapath are pooled by the pipeline (see
    :meth:`repro.netstack.pipeline.Pipeline.alloc_skb`): recycling
    poisons the object (``packets = None``, ``gen`` bumped) so a stale
    reference held across a recycle fails loudly instead of silently
    aliasing another packet's buffer.
    """

    __slots__ = (
        "packets",
        "flow",
        "microflow_id",
        "branch",
        "flow_serial",
        "alloc_ts",
        "q_ts",
        "trace_id",
        "gen",
    )

    def __init__(self, packets: List[Packet]):
        if not packets:
            raise ValueError("an skb must wrap at least one packet")
        self.packets = packets
        self.flow = packets[0].flow
        self.microflow_id: Optional[int] = None
        self.branch: Optional[int] = None
        self.flow_serial: Optional[int] = None
        self.alloc_ts: float = 0.0
        #: dispatch timestamp of the hop currently charging this skb; the
        #: stage-histogram queue delay is (execution start - q_ts)
        self.q_ts: float = 0.0
        # observability identity: assigned monotonically on first touch by
        # JourneyTracker (never id(skb) — ids are reused)
        self.trace_id: Optional[int] = None
        #: recycle generation; bumped every time the pool reclaims this skb
        self.gen: int = 0

    @property
    def segs(self) -> int:
        """Number of wire packets merged into this skb (1 unless GRO-merged)."""
        return len(self.packets)

    @property
    def payload_bytes(self) -> int:
        return sum(p.payload for p in self.packets)

    @property
    def head(self) -> Packet:
        return self.packets[0]

    @property
    def seq(self) -> int:
        """Transport sequence of the first merged packet."""
        return self.packets[0].seq

    @property
    def end_seq(self) -> int:
        """One past the last byte covered (TCP semantics)."""
        last = self.packets[-1]
        return last.seq + last.payload

    def can_merge(self, other: "Skb", max_segs: int) -> bool:
        """True when ``other`` directly continues this skb's byte stream."""
        if other.flow != self.flow:
            return False
        if self.segs + other.segs > max_segs:
            return False
        return other.seq == self.end_seq

    def merge(self, other: "Skb") -> None:
        """Append ``other``'s packets (caller must have checked can_merge)."""
        self.packets.extend(other.packets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Skb {self.flow.proto} segs={self.segs} seq={self.seq}>"


def fragment_message(
    flow: FlowKey,
    msg_id: int,
    size: int,
    start_seq: int = 0,
    encap: bool = False,
) -> List[Packet]:
    """Split one transport message into MTU-sized wire packets.

    TCP segmentation and IP fragmentation produce the same wire shape at
    this level of abstraction: ceil(size / MAX_SEGMENT_PAYLOAD) frames,
    with ``seq`` advancing by payload bytes from ``start_seq``.
    """
    if size <= 0:
        raise ValueError(f"message size must be positive, got {size}")
    frags: List[Packet] = []
    n = (size + MAX_SEGMENT_PAYLOAD - 1) // MAX_SEGMENT_PAYLOAD
    offset = 0
    for i in range(n):
        payload = min(MAX_SEGMENT_PAYLOAD, size - offset)
        frags.append(
            Packet(
                flow,
                payload,
                seq=start_seq + offset,
                msg_id=msg_id,
                frag_index=i,
                frag_count=n,
                encap=encap,
                messages_completed=1 if i == n - 1 else 0,
            )
        )
        offset += payload
    return frags
