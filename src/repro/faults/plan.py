"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, JSON-canonicalizable description of
every adverse condition a run should suffer: wire impairments (loss,
duplication, corruption, reordering, jitter, a bandwidth clamp), NIC
degradation (ring shrink, delayed IRQs), CPU interference ("noisy
neighbour" stall windows, softirq starvation, delayed IPIs) and a merge
branch blackout.  The default-constructed plan is *inert*: attaching it
to a scenario is bit-identical to attaching nothing at all (no extra
events are scheduled, no RNG stream is consumed), because
:class:`~repro.workloads.options.RunOptions` turns it into ``None``.

Plans embed directly into :class:`~repro.runner.spec.RunSpec` params via
:meth:`FaultPlan.to_dict`, so the runner cache key covers them and the
same seed + plan replays the same fault schedule under any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.plan import Plan


@dataclass(frozen=True)
class FaultPlan(Plan):
    """One run's complete fault specification (all-defaults = no faults)."""

    INERT = "no faults (inert)"

    name: str = "custom"

    # ------------------------------------------------------ wire impairments
    #: probability a frame is silently dropped on the wire
    loss_rate: float = 0.0
    #: probability a frame is delivered twice
    dup_rate: float = 0.0
    #: probability a frame arrives with a bad FCS (dropped by the NIC MAC,
    #: counted separately from wire loss)
    corrupt_rate: float = 0.0
    #: probability a frame is held back by ``reorder_delay_ns`` (overtaken
    #: by later frames — path-level reordering)
    reorder_rate: float = 0.0
    reorder_delay_ns: float = 30_000.0
    #: uniform extra per-frame delay in [0, jitter_ns)
    jitter_ns: float = 0.0
    #: clamp the link below its configured rate (0 = no clamp)
    bandwidth_gbps: float = 0.0

    # ------------------------------------------------------- NIC degradation
    #: shrink every RX descriptor ring to this many slots (0 = leave alone)
    nic_ring_size: int = 0
    #: delay between frame arrival and the IRQ top half firing
    irq_delay_ns: float = 0.0

    # ------------------------------------------------------ CPU interference
    #: receiver-core indices periodically stolen by a noisy neighbour
    stall_cores: Tuple[int, ...] = ()
    stall_period_ns: float = 0.0
    stall_duration_ns: float = 0.0
    #: extra entry cost added to every softirq invocation (starvation)
    softirq_entry_extra_ns: float = 0.0
    #: delay before a remote softirq raise lands on its target core.  No
    #: softirq is raised remotely (every raise is local to its NIC queue's
    #: core), so :meth:`validate` rejects a nonzero value; the field stays
    #: so that every plan keeps its spec key.
    ipi_delay_ns: float = 0.0

    # ------------------------------------------------------- branch blackout
    #: MFLOW branch index whose packets vanish post-split (-1 = none);
    #: models a branch core going dark mid-run
    blackout_branch: int = -1
    blackout_start_ns: float = 0.0
    blackout_duration_ns: float = 0.0

    # ------------------------------------------------------- window + extras
    #: faults apply only within [start_ns, stop_ns) of sim time
    start_ns: float = 0.0
    #: 0 means "until the run ends"
    stop_ns: float = 0.0
    #: period of the in-run conservation watchdog checks
    watchdog_period_ns: float = 1_000_000.0
    #: decorrelates the fault RNG stream from other plans at the same seed
    seed_salt: int = 0

    # ------------------------------------------------------------ properties
    @property
    def wire_active(self) -> bool:
        return (
            self.loss_rate > 0.0
            or self.dup_rate > 0.0
            or self.corrupt_rate > 0.0
            or self.reorder_rate > 0.0
            or self.jitter_ns > 0.0
        )

    @property
    def bandwidth_clamped(self) -> bool:
        return self.bandwidth_gbps > 0.0

    @property
    def nic_active(self) -> bool:
        return self.nic_ring_size > 0 or self.irq_delay_ns > 0.0

    @property
    def cpu_active(self) -> bool:
        return (
            bool(self.stall_cores)
            and self.stall_period_ns > 0.0
            and self.stall_duration_ns > 0.0
        ) or self.softirq_entry_extra_ns > 0.0

    @property
    def blackout_active(self) -> bool:
        return self.blackout_branch >= 0 and self.blackout_duration_ns > 0.0

    @property
    def active(self) -> bool:
        """True when the plan injects anything at all."""
        return (
            self.wire_active
            or self.bandwidth_clamped
            or self.nic_active
            or self.cpu_active
            or self.blackout_active
        )

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        for f in ("loss_rate", "dup_rate", "corrupt_rate", "reorder_rate"):
            v = getattr(self, f)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f} must be in [0, 1], got {v}")
        for f in (
            "reorder_delay_ns", "jitter_ns", "bandwidth_gbps", "irq_delay_ns",
            "stall_period_ns", "stall_duration_ns", "softirq_entry_extra_ns",
            "blackout_start_ns", "blackout_duration_ns", "start_ns", "stop_ns",
        ):
            if getattr(self, f) < 0.0:
                raise ValueError(f"{f} must be >= 0, got {getattr(self, f)}")
        if self.ipi_delay_ns != 0.0:
            raise ValueError(
                f"ipi_delay_ns must be 0, got {self.ipi_delay_ns}: no softirq is "
                "raised on a remote core (each NIC queue raises NAPI on its own "
                "core), so there is no IPI to delay"
            )
        if self.nic_ring_size < 0:
            raise ValueError(f"nic_ring_size must be >= 0, got {self.nic_ring_size}")
        if self.watchdog_period_ns <= 0.0:
            raise ValueError("watchdog_period_ns must be positive")
        if self.stall_cores and self.stall_period_ns > 0.0:
            if self.stall_duration_ns > self.stall_period_ns:
                raise ValueError("stall_duration_ns must not exceed stall_period_ns")
        if self.stop_ns and self.stop_ns <= self.start_ns:
            raise ValueError("stop_ns must be 0 (open-ended) or > start_ns")


#: named plans selectable via ``--fault-plan`` and ``repro faults list``
PLANS: Dict[str, FaultPlan] = {
    p.name: p
    for p in (
        FaultPlan(name="clean"),
        FaultPlan(name="loss1", loss_rate=0.01),
        FaultPlan(name="loss5", loss_rate=0.05),
        FaultPlan(name="dup1", dup_rate=0.01),
        FaultPlan(name="corrupt1", corrupt_rate=0.01),
        FaultPlan(
            name="jitter",
            reorder_rate=0.10, reorder_delay_ns=50_000.0, jitter_ns=2_000.0,
        ),
        FaultPlan(name="slow-link", bandwidth_gbps=5.0),
        FaultPlan(name="ring-squeeze", nic_ring_size=64),
        FaultPlan(name="irq-delay", irq_delay_ns=50_000.0),
        FaultPlan(
            name="noisy-core",
            stall_cores=(1, 2, 3),
            stall_period_ns=500_000.0, stall_duration_ns=150_000.0,
        ),
        FaultPlan(
            name="branch-blackout",
            blackout_branch=1,
            blackout_start_ns=2_000_000.0, blackout_duration_ns=2_000_000.0,
        ),
        FaultPlan(
            name="chaos",
            loss_rate=0.01, dup_rate=0.002, reorder_rate=0.05,
            reorder_delay_ns=40_000.0, jitter_ns=1_000.0,
            stall_cores=(2,), stall_period_ns=1_000_000.0,
            stall_duration_ns=200_000.0,
        ),
    )
}
