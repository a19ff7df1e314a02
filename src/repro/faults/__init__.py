"""Deterministic fault injection across the simulated datapath."""

from repro.faults.health import FlowHealthMonitor
from repro.faults.injectors import FaultInjectors, clone_packet
from repro.faults.plan import PLANS, FaultPlan
from repro.faults.watchdog import ConservationWatchdog

__all__ = [
    "PLANS",
    "ConservationWatchdog",
    "FaultInjectors",
    "FaultPlan",
    "FlowHealthMonitor",
    "clone_packet",
]
