"""CPU set construction and windowed utilization measurement."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cpu.core import Core
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


class CpuSet:
    """An indexed collection of :class:`Core` s with utilization helpers.

    Mirrors the paper's testbed convention: core 0 runs the application /
    packet-delivery thread; cores 1..N run kernel packet processing.
    """

    def __init__(
        self,
        sim: Simulator,
        n_cores: int,
        jitter_sigma: float = 0.0,
        rngs: Optional[RngStreams] = None,
        speeds: Optional[Sequence[float]] = None,
    ):
        if n_cores <= 0:
            raise ValueError(f"need at least one core, got {n_cores}")
        if speeds is not None and len(speeds) != n_cores:
            raise ValueError("speeds length must match n_cores")
        self.sim = sim
        self.cores: List[Core] = []
        for i in range(n_cores):
            rng = rngs.normals(f"core{i}.jitter") if (rngs and jitter_sigma > 0) else None
            speed = speeds[i] if speeds is not None else 1.0
            self.cores.append(Core(sim, i, speed=speed, jitter_sigma=jitter_sigma, rng=rng))
        self._window_start_ns: float = 0.0
        self._window_snapshots: List[Dict[str, float]] = [c.snapshot() for c in self.cores]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, idx: int) -> Core:
        return self.cores[idx]

    def __iter__(self):
        return iter(self.cores)

    # ------------------------------------------------------------ measurement
    def start_window(self) -> None:
        """Begin a measurement window at the current sim time."""
        self._window_start_ns = self.sim.now
        self._window_snapshots = [c.snapshot() for c in self.cores]

    def utilization(self) -> List[float]:
        """Fraction of the current window each core spent busy (0..1)."""
        elapsed = self.sim.now - self._window_start_ns
        if elapsed <= 0:
            return [0.0] * len(self.cores)
        out = []
        for core, snap in zip(self.cores, self._window_snapshots):
            before = sum(snap.values())
            out.append((core.total_busy_ns() - before) / elapsed)
        return out

    def utilization_breakdown(self) -> List[Dict[str, float]]:
        """Per-core, per-tag utilization fractions over the current window."""
        elapsed = self.sim.now - self._window_start_ns
        out: List[Dict[str, float]] = []
        for core, snap in zip(self.cores, self._window_snapshots):
            row: Dict[str, float] = {}
            if elapsed > 0:
                for tag, busy in core.busy_ns.items():
                    delta = busy - snap.get(tag, 0.0)
                    if delta > 0:
                        row[tag] = delta / elapsed
            out.append(row)
        return out
