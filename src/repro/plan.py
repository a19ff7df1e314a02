"""What the declarative run plans share.

A plan (:class:`~repro.faults.plan.FaultPlan`,
:class:`~repro.migration.plan.MigrationPlan`, and the flight recorder's
:class:`~repro.obs.config.ObsConfig`) is a frozen dataclass that
embeds into :class:`~repro.runner.spec.RunSpec` params as a plain dict
(``to_dict``) and is rebuilt from one with :meth:`Plan.from_dict`.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Any, Dict, Mapping


class Plan:
    """Spec-dict round trip and a one-line summary for a frozen plan."""

    #: what :meth:`describe` says of a plan with every field at its default
    INERT = "inert"

    @property
    def active(self) -> bool:
        """Whether the plan changes a run at all; an inactive plan is no plan
        (see :class:`~repro.workloads.options.RunOptions`)."""
        return True

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict, suitable for embedding in RunSpec params."""
        out = asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Rebuild a validated plan from its ``to_dict`` form; JSON lists
        become the tuples a frozen plan holds."""
        if not isinstance(data, Mapping):
            raise TypeError(f"a {cls.__name__} spec is its to_dict() form, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {unknown}")
        plan = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
        plan.validate()
        return plan

    def describe(self) -> str:
        """One-line summary of the non-default fields (for the plan listings)."""
        parts = []
        for f in fields(self):
            if f.name == "name":
                continue
            v = getattr(self, f.name)
            if v != f.default:
                parts.append(f"{f.name}={v}")
        return " ".join(parts) if parts else self.INERT
