"""Run-wide counters and sample collections.

One :class:`Telemetry` instance is threaded through a simulation run.
Counters are plain named integers (hot paths bump ``counters[name]`` in
place, cold ones call :meth:`Telemetry.count`); observations are named
sample lists (latencies, queue depths) reduced to percentiles at
reporting time.  Every in-window sample is kept, so those percentiles
are exact.

A *measurement window* separates warmup from steady state: samples
observed before :meth:`start_window` is called are dropped, and
delivery counters are read as deltas from it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, List, Optional

from repro.sim.engine import Simulator


class Telemetry:
    """Counters + sample streams with warmup-aware windowing."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: named counters.  Per-packet sites bump them in place
        #: (``counters[name] += n``); every reader uses ``.get``, so a key
        #: exists only once something has counted under it, and the key
        #: order is first-count order, whichever way it was counted
        self.counters: DefaultDict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = {}
        self._window_start: Optional[float] = None
        self._window_counters: Dict[str, int] = {}

    # ----------------------------------------------------------- counters
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    # ------------------------------------------------------------- samples
    def observe(self, name: str, value: float) -> None:
        """Record one sample; before a measurement window opens it counts
        as warmup and is dropped."""
        if self._window_start is None:
            return
        self.samples.setdefault(name, []).append(value)

    def sample_list(self, name: str) -> List[float]:
        return self.samples.get(name, [])

    # -------------------------------------------------------------- window
    def start_window(self) -> None:
        """Open the measurement window at the current sim time."""
        self._window_start = self.sim.now
        self._window_counters = dict(self.counters)
        self.samples.clear()

    @property
    def window_elapsed_ns(self) -> float:
        if self._window_start is None:
            return 0.0
        return self.sim.now - self._window_start

    def window_count(self, name: str) -> int:
        """Counter delta since the window opened (total count if no window)."""
        total = self.counters.get(name, 0)
        if self._window_start is None:
            return total
        return total - self._window_counters.get(name, 0)

    def window_rate_gbps(self, bytes_counter: str) -> float:
        """Delivered-bytes counter over the window, as Gbps."""
        elapsed = self.window_elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.window_count(bytes_counter) * 8.0 / elapsed
