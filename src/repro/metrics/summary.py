"""Reduction of raw samples to the statistics the paper reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """The latency statistics used in Figures 9 and 13."""

    count: int
    mean_us: float
    p50_us: float
    p99_us: float
    max_us: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean_us:.1f}us "
            f"p50={self.p50_us:.1f}us p99={self.p99_us:.1f}us max={self.max_us:.1f}us"
        )

    # JSON round-trip for run-record measurement payloads
    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "LatencySummary":
        return cls(
            count=int(data["count"]),
            mean_us=float(data["mean_us"]),
            p50_us=float(data["p50_us"]),
            p99_us=float(data["p99_us"]),
            max_us=float(data["max_us"]),
        )


def summarize_latencies(samples_ns: Sequence[float]) -> LatencySummary:
    """Collapse nanosecond latency samples into a microsecond summary."""
    if len(samples_ns) == 0:
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(samples_ns, dtype=float) / 1_000.0
    return LatencySummary(
        count=len(arr),
        mean_us=float(arr.mean()),
        p50_us=float(np.percentile(arr, 50)),
        p99_us=float(np.percentile(arr, 99)),
        max_us=float(arr.max()),
    )
