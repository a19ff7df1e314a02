"""Observability configuration.

An :class:`ObsConfig` travels the same road as fault plans: embedded in
:class:`~repro.runner.spec.RunSpec` params as a plain dict (so specs stay
JSON-canonical and hashable) and resolved by the scenario into live
recorder objects.  ``resolve_obs(None)`` — and any config with
``enabled=False`` — resolves to ``None``, and the scenario then builds
the exact same object graph and event schedule as an uninstrumented run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping, Optional, Union

ObsConfigLike = Union[None, bool, Mapping[str, Any], "ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """Knobs for one run's flight recorder and its consumers."""

    #: master switch; ``False`` resolves to no observability at all
    enabled: bool = True
    #: interval-metrics sampling period (sub-window granularity)
    interval_ns: float = 100_000.0
    #: event-bus capacity; past it, deterministic reservoir sampling kicks in
    capacity: int = 200_000

    def validate(self) -> None:
        if self.interval_ns <= 0.0:
            raise ValueError(f"interval_ns must be positive, got {self.interval_ns}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")

    def to_dict(self) -> dict:
        """JSON/spec-embeddable form (see ``RunSpec.make(params=...)``)."""
        return asdict(self)


def resolve_obs(obs: ObsConfigLike) -> Optional[ObsConfig]:
    """Normalize any accepted ``obs=`` value to ``ObsConfig`` or ``None``.

    Accepts ``None`` / ``False`` (disabled), ``True`` (defaults), a dict
    (e.g. thawed from spec params), or an :class:`ObsConfig`.  A config
    with ``enabled=False`` is *inert* and resolves to ``None`` so that
    threading a disabled config through a spec cannot perturb the run.
    """
    if obs is None or obs is False:
        return None
    if obs is True:
        cfg = ObsConfig()
    elif isinstance(obs, ObsConfig):
        cfg = obs
    elif isinstance(obs, Mapping):
        cfg = ObsConfig(**dict(obs))
    else:
        raise TypeError(f"cannot resolve obs config from {type(obs).__name__}: {obs!r}")
    if not cfg.enabled:
        return None
    cfg.validate()
    return cfg
