"""One run's options: its fault plan, flight recorder and live migration.

A :class:`RunOptions` holds already-resolved plans, or ``None`` for each
option a run does not use.  It is built in two places only:
:meth:`RunOptions.from_params`, where a spec's params become plans, and
the CLI, which looks plan names up in the ``PLANS`` registries.  Every
builder (``Scenario``, ``build_scenario``, ``build_multiflow_scenario``,
the runner's factories) takes one ``options`` argument.

An inert plan is no plan: it becomes ``None`` here, once, so a run with
``FaultPlan()`` or ``MigrationPlan()`` builds the exact same object graph
and event schedule as a run with no options at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.faults.plan import FaultPlan
from repro.migration.plan import MigrationPlan
from repro.obs.config import ObsConfig

#: each option's spec params key and plan type
KINDS = {"faults": FaultPlan, "obs": ObsConfig, "migration": MigrationPlan}


@dataclass(frozen=True)
class RunOptions:
    """The resolved fault, observability and migration options of one run."""

    faults: Optional[FaultPlan] = None
    obs: Optional[ObsConfig] = None
    migration: Optional[MigrationPlan] = None

    def __post_init__(self) -> None:
        for key in KINDS:
            plan = getattr(self, key)
            if plan is not None:
                plan.validate()
                if not plan.active:
                    object.__setattr__(self, key, None)

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "RunOptions":
        """The options a spec's params carry, each in its ``to_dict`` form
        (a missing or ``None`` key is no option)."""
        return cls(**{
            key: kind.from_dict(params[key])
            for key, kind in KINDS.items()
            if params.get(key) is not None
        })

    @property
    def reference_path(self) -> bool:
        """Whether the run takes one wheel entry per wire frame and one work
        item per stage: no lazy arrivals and no fused stage runs.

        Every option forces it.  A fault plan or a live migration perturbs
        or re-routes frames one by one (quarantine and readmission re-route
        a flow mid-run, and the conservation watchdog reads counters
        mid-run); the flight recorder records every frame, hop span and
        queue entry as it happens.  See docs/ENGINE.md.
        """
        return self.faults is not None or self.obs is not None or self.migration is not None
