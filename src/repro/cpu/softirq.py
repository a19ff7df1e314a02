"""Softirq scheduling.

A :class:`Softirq` wraps a poll function (NAPI style).  ``raise_on(core)``
arms the softirq on the target core if it is not already pending there —
softirqs coalesce exactly like the kernel's ``__raise_softirq_irqoff``:
raising an already-pending softirq is a no-op.

Every raise is local: the NIC's IRQ top half raises NAPI on its queue's
core, and a poll that finds more work re-raises itself.  Cross-core work
is the pipeline's handoff, whose sender-side cost (hash, enqueue, IPI
arming) is the ``steer_dispatch`` payment of :class:`~repro.cpu.core.Core`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.cpu.core import Core

#: fixed entry overhead of one softirq invocation on the executing core
SOFTIRQ_ENTRY_COST_NS: float = 150.0


class Softirq:
    """A coalescing softirq whose handler runs in core context.

    The handler receives the core it runs on and returns True when it has
    more work pending (it will be re-raised immediately, modelling NAPI
    re-polling) or False when its queues are drained.
    """

    def __init__(
        self,
        name: str,
        handler: Callable[[Core], bool],
        entry_cost_ns: float = SOFTIRQ_ENTRY_COST_NS,
    ):
        self.name = name
        self.handler = handler
        self.entry_cost_ns = entry_cost_ns
        # hot-path work-item tags, built once instead of per raise
        self._run_tag = f"softirq:{name}"
        self._pending: Dict[int, bool] = {}
        self.raises = 0
        #: optional FlightRecorder — None (the default) disables all probes
        self.obs = None

    def pending_on(self, core: Core) -> bool:
        return self._pending.get(core.id, False)

    def raise_on(self, core: Core) -> None:
        """Arm the softirq on ``core``."""
        if self._pending.get(core.id, False):
            return
        self._pending[core.id] = True
        self.raises += 1
        if self.obs is not None:
            self.obs.instant("softirq_raise", core=core.id, softirq=self.name)
        core.submit_call(self._run_tag, self.entry_cost_ns, self._run, core)

    def _run(self, core: Core) -> None:
        self._pending[core.id] = False
        more = self.handler(core)
        if more:
            self.raise_on(core)
