"""Calibrated per-stage CPU costs.

The paper measured wall-clock behaviour of kernel code on Xeon Gold 5218
cores; this reproduction charges each processing stage a fixed CPU cost
per unit of work instead.  The *relative* magnitudes encode the paper's
qualitative findings and the absolute scale is calibrated so the native
single-flow TCP case lands near the paper's 26.6 Gbps:

* ``skb_alloc`` is the heavyweight per-packet function that no prior
  approach (RPS, FALCON) can parallelize for a single flow (§II-B);
* ``vxlan_decap`` is the heavyweight per-skb *device* that motivates
  device-level pipelining (§II-B);
* GRO runs per input packet but its *output* amortizes every downstream
  per-skb cost; it is effective for TCP only (paper footnote 2) and less
  effective across VxLAN encapsulation (``gro_max_segs_encap``);
* every cross-core handoff costs the *destination* core
  ``handoff_cost_ns`` (queueing + cold cache), the locality penalty the
  paper attributes to FALCON's multi-core packet walks;
* the copy-to-user thread costs ``copy_per_byte_ns`` per byte — the
  single-thread data-copy bottleneck that caps MFLOW TCP at ~30 Gbps
  (§V-A, future work).

Calibration back-of-envelope (native TCP, 64 KB messages, GRO merge 16):
per MTU packet ≈ driver 80 + alloc 300 + gro 60 + (ip 150 + tcp 200)/16
≈ 462 ns → 1448 B × 8 / 462 ns ≈ 25 Gbps, which queueing effects in
simulation shift to the paper's neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass
class CostModel:
    """All tunable CPU/link cost constants, in nanoseconds (or per-byte ns)."""

    # --- NIC / driver -----------------------------------------------------
    driver_poll_per_pkt_ns: float = 80.0
    irq_cost_ns: float = 400.0
    napi_budget: int = 64
    rx_ring_size: int = 8192

    # --- per-packet kernel functions ---------------------------------------
    skb_alloc_ns: float = 300.0
    gro_per_seg_ns: float = 60.0
    gro_flush_timeout_ns: float = 3_000.0
    gro_max_segs_native: int = 16
    gro_max_segs_encap: int = 4

    # --- per-skb protocol stages --------------------------------------------
    ip_rcv_ns: float = 150.0
    udp_rcv_outer_ns: float = 90.0          # VxLAN port demux on the outer path
    vxlan_decap_ns: float = 900.0           # the heavyweight overlay device
    bridge_fwd_ns: float = 80.0
    lb_hash_ns: float = 150.0               # consistent-hash ingress balancer
    veth_xmit_ns: float = 60.0
    veth_rx_ns: float = 60.0                # netif_rx + backlog entry on the veth
    ip_rcv_inner_ns: float = 80.0
    tcp_rcv_ns: float = 150.0
    tcp_ooo_penalty_ns: float = 350.0       # per out-of-order segment (OOO queue)
    udp_rcv_ns: float = 120.0
    udp_reassembly_per_frag_ns: float = 40.0

    # --- steering machinery ---------------------------------------------------
    handoff_cost_ns: float = 220.0          # per cross-core skb handoff (dst core)
    steer_dispatch_ns: float = 40.0         # per packet, on the dispatching core
    mflow_split_ns: float = 45.0            # micro-flow id assignment + enqueue
    mflow_merge_per_skb_ns: float = 30.0    # batch-based reassembly, per skb
    mflow_merge_switch_ns: float = 120.0    # switching buffer queues at batch edge
    reorder_per_pkt_ns: float = 300.0       # per-packet reordering (ablation)

    # --- delivery to user space ---------------------------------------------
    copy_per_byte_ns: float = 0.16
    copy_per_skb_ns: float = 180.0
    recv_wakeup_ns: float = 350.0
    socket_rcvbuf_bytes: int = 6 * 1024 * 1024

    # --- sender-side model ------------------------------------------------
    send_syscall_ns: float = 600.0          # per sendmsg() call
    send_per_seg_tcp_ns: float = 160.0      # TSO-assisted segmentation
    send_per_seg_udp_ns: float = 2200.0     # software fragmentation + full stack
    send_encap_per_seg_ns: float = 250.0    # sender-side VxLAN encapsulation
    #: sender-side TCP pacing rate (Linux fq/TSQ pacing); keeps wire bursts
    #: bounded, which is what lets micro-flows arrive nearly in order
    tcp_pacing_gbps: float = 36.0

    # --- link ------------------------------------------------------------
    link_gbps: float = 100.0
    wire_delay_ns: float = 1_000.0

    # --- queue bounds ---------------------------------------------------------
    backlog_limit: int = 3000               # per (stage, core) in-flight skbs

    # --- misc -----------------------------------------------------------------
    core_jitter_sigma: float = 0.06         # lognormal sigma of per-item speed

    extras: Dict[str, float] = field(default_factory=dict)

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """A copy of this model with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity-check invariants; raises ValueError on nonsense configs."""
        for name in (
            "driver_poll_per_pkt_ns",
            "skb_alloc_ns",
            "gro_per_seg_ns",
            "ip_rcv_ns",
            "vxlan_decap_ns",
            "tcp_rcv_ns",
            "udp_rcv_ns",
            "copy_per_byte_ns",
            "link_gbps",
            "tcp_pacing_gbps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.wire_delay_ns < 0:
            # senders and the wire file arrivals without a past-time check
            raise ValueError("wire_delay_ns must be non-negative")
        if self.gro_max_segs_native < 1 or self.gro_max_segs_encap < 1:
            raise ValueError("GRO merge caps must be >= 1")
        if self.napi_budget < 1:
            raise ValueError("napi_budget must be >= 1")
        if self.rx_ring_size < self.napi_budget:
            raise ValueError("rx ring must hold at least one NAPI budget")


#: The calibrated default used by all experiments.
DEFAULT_COSTS = CostModel()
