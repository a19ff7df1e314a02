"""Multi-core CPU model.

Cores execute *work items* — ``(tag, cost_ns, completion)`` — strictly
serially, one item at a time, with optional per-item speed jitter.  All
kernel packet processing in the reproduction is charged to a core through
this interface, which is what makes CPU-bottleneck effects (the paper's
central motivation) emerge in simulation.

Tags name the processing stage ("skb_alloc", "vxlan", "tcp_rcv", ...) so
per-core utilization can be broken down exactly like the paper's
Figures 4b / 8b / 12.
"""

from repro.cpu.core import Core, WorkItem
from repro.cpu.topology import CpuSet
from repro.cpu.softirq import Softirq

__all__ = ["Core", "WorkItem", "CpuSet", "Softirq"]
