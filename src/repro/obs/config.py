"""Observability configuration.

An :class:`ObsConfig` travels the same road as fault plans (see
:class:`~repro.plan.Plan`): embedded in :class:`~repro.runner.spec.RunSpec`
params as a plain dict, so specs stay JSON-canonical and hashable, and
rebuilt into a :class:`~repro.workloads.options.RunOptions`, from which
the scenario builds the live recorder objects.  A run with no config
(``obs=None``) builds the exact same object graph and event schedule as
one that never heard of observability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan import Plan


@dataclass(frozen=True)
class ObsConfig(Plan):
    """Knobs for one run's flight recorder and its consumers."""

    #: interval-metrics sampling period (sub-window granularity)
    interval_ns: float = 100_000.0
    #: event-bus capacity; past it, deterministic reservoir sampling kicks in
    capacity: int = 200_000

    def validate(self) -> None:
        if self.interval_ns <= 0.0:
            raise ValueError(f"interval_ns must be positive, got {self.interval_ns}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
