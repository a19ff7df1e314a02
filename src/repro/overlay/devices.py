"""The overlay's software network devices, as pipeline stages.

Each device charges its calibrated per-skb cost and (for VxLAN)
transforms the packet from its encapsulated to its decapsulated form.
Together with the second protocol-stack traversal these are what make
the overlay receive path so much longer than native (paper Fig. 2: one
IRQ plus three softirqs — pNIC, VxLAN, veth).
"""

from __future__ import annotations

from typing import List

from repro.netstack.packet import Skb
from repro.netstack.stages import PassthroughStage, StageContext


class OuterUdpDemuxStage(PassthroughStage):
    """Outer UDP receive: demultiplex to the VxLAN tunnel port (4789)."""

    def __init__(self) -> None:
        super().__init__("udp_outer", "udp_rcv_outer_ns")


class VxlanDecapStage(PassthroughStage):
    """VxLAN decapsulation — the heavyweight overlay device.

    Strips the outer headers: downstream stages see the inner (decapped)
    packet.  MFLOW's *device scaling* configuration targets exactly this
    stage (split before it, so multiple cores decapsulate in parallel).
    Still pure: it clears ``encap`` on its own packets, which no stage
    cost reads.
    """

    def __init__(self) -> None:
        super().__init__("vxlan", "vxlan_decap_ns")

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        packets = skb.packets
        for pkt in packets:
            pkt.encap = False
        ctx.counters["vxlan_decapped"] += len(packets)
        return [skb]


class BridgeStage(PassthroughStage):
    """Linux bridge forwarding between the VxLAN device and the veth."""

    def __init__(self) -> None:
        super().__init__("bridge", "bridge_fwd_ns")


class VethXmitStage(PassthroughStage):
    """Host-side veth transmit into the container's namespace."""

    def __init__(self) -> None:
        super().__init__("veth_xmit", "veth_xmit_ns")


class VethRxStage(PassthroughStage):
    """Container-side veth receive (netif_rx + backlog softirq entry).

    This is the boundary where RPS steers in the paper's RPS baseline:
    everything before it stays on the IRQ core, everything after can move.
    """

    def __init__(self) -> None:
        super().__init__("veth_rx", "veth_rx_ns")
