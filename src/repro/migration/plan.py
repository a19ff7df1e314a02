"""Declarative live-migration plans.

A :class:`MigrationPlan` is a frozen, JSON-canonicalizable script for one
container cutover: when the drain window opens, how long the source is
drained before it is frozen, the fixed freeze/restore overhead, the
snapshot transfer-rate model, the balancer's blackout-buffer capacity
and the hash-ring geometry.  The default-constructed plan is *inert*
(``start_ns == 0``): attaching it to a scenario is bit-identical to
attaching nothing at all — no balancer stage is inserted, no namespaces
are created, no events are scheduled — because
:class:`~repro.workloads.options.RunOptions` turns it into ``None``, as
it does an inert fault plan.

Plans embed into :class:`~repro.runner.spec.RunSpec` params via
:meth:`MigrationPlan.to_dict`, so the runner cache key covers them and
the same seed + plan replays the same cutover under any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.plan import Plan


@dataclass(frozen=True)
class MigrationPlan(Plan):
    """One scripted container cutover (all-defaults = no migration)."""

    INERT = "no migration (inert)"

    name: str = "custom"

    # ------------------------------------------------------------- timeline
    #: sim time the drain window opens; 0 = inert (no migration at all)
    start_ns: float = 0.0
    #: drain window before the freeze: the balancer stops admitting packets
    #: toward the source so in-flight packets clear the container's stack
    drain_ns: float = 150_000.0
    #: fixed freeze + restore overhead (CRIU dump/restore runtime floor)
    min_downtime_ns: float = 250_000.0
    #: snapshot transfer rate; the blackout extends by snapshot_bytes * 8 /
    #: transfer_gbps on top of ``min_downtime_ns``
    transfer_gbps: float = 20.0

    # ------------------------------------------------------------- balancer
    #: packets the balancer may hold for a draining/frozen backend before
    #: it starts dropping (0 = drop-through blackout, relies on retransmit)
    buffer_packets: int = 4096
    #: virtual nodes per backend on the consistent-hash ring
    vnodes: int = 32

    # ------------------------------------------------------------ endpoints
    #: container being migrated away from
    source: str = "c-src"
    #: container restored on the destination host side
    dest: str = "c-dst"

    # ------------------------------------------------------------- recovery
    #: TCP sender retransmission timeout armed for migration runs (0 =
    #: senders keep the stock no-retransmit model); any active plan should
    #: leave this on so drop-through blackouts and lossy fault plans can
    #: still ride through without a connection drop
    retransmit_ns: float = 500_000.0
    #: post-restore polling period for the recovery-time probe
    probe_interval_ns: float = 50_000.0

    # ------------------------------------------------------------ properties
    @property
    def active(self) -> bool:
        """True when the plan schedules a cutover at all."""
        return self.start_ns > 0.0

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        for f in ("start_ns", "drain_ns", "min_downtime_ns", "retransmit_ns"):
            if getattr(self, f) < 0.0:
                raise ValueError(f"{f} must be >= 0, got {getattr(self, f)}")
        if self.transfer_gbps <= 0.0:
            raise ValueError(f"transfer_gbps must be positive, got {self.transfer_gbps}")
        if self.probe_interval_ns <= 0.0:
            raise ValueError("probe_interval_ns must be positive")
        if self.buffer_packets < 0:
            raise ValueError(f"buffer_packets must be >= 0, got {self.buffer_packets}")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.source == self.dest:
            raise ValueError("source and dest containers must differ")


#: named plans selectable via ``--migration-plan`` and ``repro migrate``
PLANS: Dict[str, MigrationPlan] = {
    p.name: p
    for p in (
        # mid-measure cutover inside both quick (1+3 ms) and full (2+8 ms)
        # experiment windows; generous buffer, so nothing is dropped
        MigrationPlan(name="default", start_ns=2_500_000.0),
        # aggressive cutover: barely any drain, fast transfer
        MigrationPlan(
            name="fast-cutover",
            start_ns=2_500_000.0,
            drain_ns=50_000.0,
            min_downtime_ns=100_000.0,
            transfer_gbps=40.0,
        ),
        # no blackout buffering at all: every packet toward the frozen
        # container is dropped and recovery rides on TCP retransmission
        MigrationPlan(
            name="drop-blackout",
            start_ns=2_500_000.0,
            buffer_packets=0,
            retransmit_ns=400_000.0,
        ),
    )
}
