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

    Core ``i`` draws its jitter from stream ``f"{stream_prefix}core{i}.jitter"``;
    each machine passes its own prefix, so no two cores share a stream.
    """

    def __init__(
        self,
        sim: Simulator,
        n_cores: int,
        jitter_sigma: float = 0.0,
        rngs: Optional[RngStreams] = None,
        speeds: Optional[Sequence[float]] = None,
        stream_prefix: str = "",
    ):
        if n_cores <= 0:
            raise ValueError(f"need at least one core, got {n_cores}")
        if speeds is not None and len(speeds) != n_cores:
            raise ValueError("speeds length must match n_cores")
        self.sim = sim
        self.cores: List[Core] = []
        for i in range(n_cores):
            rng = rngs.normals(f"{stream_prefix}core{i}.jitter") if (rngs and jitter_sigma > 0) else None
            speed = speeds[i] if speeds is not None else 1.0
            self.cores.append(Core(sim, i, speed=speed, jitter_sigma=jitter_sigma, rng=rng))
        self._window_start_ns: float = 0.0
        self._window_snapshots: List[Dict[str, float]] = self._busy_now()

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, idx: int) -> Core:
        return self.cores[idx]

    def __iter__(self):
        return iter(self.cores)

    # ------------------------------------------------------------ measurement
    def _busy_now(self) -> List[Dict[str, float]]:
        """Each core's busy time per tag up to now.

        ``Core.busy_ns`` accrues an item when it completes, so a window
        edge inside an item would count all of it on one side.  This adds
        the elapsed part of each item in flight, found through its
        completion entry on the wheel, so an edge splits it exactly and no
        windowed utilization exceeds 1.
        """
        rows = [dict(core.busy_ns) for core in self.cores]
        row_of = {id(core): row for core, row in zip(self.cores, rows)}
        now = self.sim.now
        for end, _, fn, args in self.sim.entries():
            row = row_of.get(id(getattr(fn, "__self__", None)))
            if row is None:
                continue
            work = args[0]
            if work.fused:
                spans = zip(work.shape.tags, work.bounds, work.bounds[1:])
            else:
                spans = ((work.tag, end - args[1], end),)
            for tag, start, stop in spans:
                if start < now:
                    row[tag] = row.get(tag, 0.0) + min(stop, now) - start
        return rows

    def start_window(self) -> None:
        """Begin a measurement window at the current sim time."""
        self._window_start_ns = self.sim.now
        self._window_snapshots = self._busy_now()

    def utilization(self) -> List[float]:
        """Fraction of the current window each core spent busy (0..1)."""
        elapsed = self.sim.now - self._window_start_ns
        if elapsed <= 0:
            return [0.0] * len(self.cores)
        return [
            (sum(busy.values()) - sum(snap.values())) / elapsed
            for busy, snap in zip(self._busy_now(), self._window_snapshots)
        ]

    def utilization_breakdown(self) -> List[Dict[str, float]]:
        """Per-core, per-tag utilization fractions over the current window."""
        elapsed = self.sim.now - self._window_start_ns
        out: List[Dict[str, float]] = []
        for busy_now, snap in zip(self._busy_now(), self._window_snapshots):
            row: Dict[str, float] = {}
            if elapsed > 0:
                for tag, busy in busy_now.items():
                    delta = busy - snap.get(tag, 0.0)
                    if delta > 0:
                        row[tag] = delta / elapsed
            out.append(row)
        return out
