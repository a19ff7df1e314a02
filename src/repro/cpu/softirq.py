"""Softirq scheduling and inter-processor interrupts.

A :class:`Softirq` wraps a poll function (NAPI style).  ``raise_on(core)``
arms the softirq on the target core if it is not already pending there —
softirqs coalesce exactly like the kernel's ``__raise_softirq_irqoff``:
raising an already-pending softirq is a no-op.

Raising on a *remote* core models an IPI: a small fixed cost is charged
to the raising core (done by the caller, see
:meth:`Softirq.raise_on_remote`) plus the softirq entry overhead on the
target.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cpu.core import Core

#: cost of sending an inter-processor interrupt, charged to the sender
IPI_COST_NS: float = 300.0

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
        self._ipi_tag = f"ipi:{name}"
        #: fault injection: extra latency before a remote raise lands on
        #: its target core (0 = IPIs deliver instantly, the default)
        self.ipi_delay_ns = 0.0
        self._pending: Dict[int, bool] = {}
        self.raises = 0
        self.ipis = 0
        #: optional FlightRecorder — None (the default) disables all probes
        self.obs = None

    def pending_on(self, core: Core) -> bool:
        return self._pending.get(core.id, False)

    def raise_on(self, core: Core) -> None:
        """Arm the softirq on ``core`` (local raise — no IPI cost)."""
        if self._pending.get(core.id, False):
            return
        self._pending[core.id] = True
        self.raises += 1
        if self.obs is not None:
            self.obs.instant("softirq_raise", core=core.id, softirq=self.name)
        core.submit_call(self._run_tag, self.entry_cost_ns, self._run, core)

    def raise_on_remote(self, from_core: Optional[Core], to_core: Core) -> None:
        """Arm the softirq on ``to_core`` via IPI, charging the sender.

        ``from_core`` may be None for hardware-originated raises (IRQ from
        the NIC) which cost no simulated CPU on any core.
        """
        if self._pending.get(to_core.id, False):
            return
        remote = from_core is not None and from_core.id != to_core.id
        if remote:
            self.ipis += 1
            if self.obs is not None:
                self.obs.instant(
                    "ipi_send", core=from_core.id, target=to_core.id, softirq=self.name
                )
            from_core.submit_call(self._ipi_tag, IPI_COST_NS, _noop)
        if remote and self.ipi_delay_ns > 0.0:
            to_core.sim.call_in(self.ipi_delay_ns, self.raise_on, to_core)
        else:
            self.raise_on(to_core)

    def _run(self, core: Core) -> None:
        self._pending[core.id] = False
        more = self.handler(core)
        if more:
            self.raise_on(core)


def _noop() -> None:
    return None
