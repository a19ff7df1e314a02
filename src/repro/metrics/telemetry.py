"""Run-wide counters and sample collections.

One :class:`Telemetry` instance is threaded through a simulation run.
Counters are plain named integers (hot paths bump ``counters[name]`` in
place, cold ones call :meth:`Telemetry.count`); observations are named
sample lists (latencies, queue depths) reduced to percentiles at
reporting time.

A *measurement window* separates warmup from steady state: samples and
delivery counters recorded before :meth:`start_window` is called are
excluded from windowed statistics.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import DefaultDict, Dict, List, Optional

from repro.sim.engine import Simulator

#: default per-name sample-list bound (see ``Telemetry.sample_cap``)
DEFAULT_SAMPLE_CAP = 100_000


class Telemetry:
    """Counters + sample streams with warmup-aware windowing."""

    def __init__(
        self,
        sim: Simulator,
        record_prewindow: bool = False,
        sample_cap: int = DEFAULT_SAMPLE_CAP,
        sample_seed: int = 0,
    ):
        """``record_prewindow=True`` keeps samples observed before any
        measurement window is opened.  The default (``False``) matches the
        experiment harnesses, which treat everything before
        :meth:`start_window` as warmup — but standalone/unit users that never
        open a window would otherwise silently lose every sample.

        ``sample_cap`` bounds each named sample list: past it, observations
        degrade to reservoir sampling (Algorithm R) on a dedicated PRNG
        seeded from ``sample_seed``, so heavy runs stay O(cap) in memory.
        Below the cap behavior is exact — every sample is kept in order and
        no randomness is consumed, so capped and uncapped runs are
        indistinguishable until a list actually overflows.  The kept set is
        a pure function of (seed, observation sequence): jobs-invariant
        across serial and parallel sweeps.
        """
        if sample_cap < 1:
            raise ValueError(f"sample_cap must be >= 1, got {sample_cap}")
        self.sim = sim
        #: named counters.  Per-packet sites bump them in place
        #: (``counters[name] += n``); every reader uses ``.get``, so a key
        #: exists only once something has counted under it, and the key
        #: order is first-count order, whichever way it was counted
        self.counters: DefaultDict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = {}
        self.sample_cap = sample_cap
        self.sample_seed = sample_seed
        self._sample_rng = random.Random(sample_seed ^ 0xC0FFEE)
        self._samples_seen: Dict[str, int] = {}
        self._window_start: Optional[float] = None
        self._window_counters: Dict[str, int] = {}
        self.recording = True
        self.record_prewindow = record_prewindow

    # ----------------------------------------------------------- counters
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    # ------------------------------------------------------------- samples
    def observe(self, name: str, value: float) -> None:
        """Record one sample.

        Samples seen while no measurement window is open count as warmup and
        are dropped unless the instance was built with
        ``record_prewindow=True`` (note that :meth:`start_window` still
        clears everything recorded so far when it opens the window).
        """
        if not self.recording:
            return
        if self._window_start is None and not self.record_prewindow:
            return
        lst = self.samples.setdefault(name, [])
        seen = self._samples_seen.get(name, 0) + 1
        self._samples_seen[name] = seen
        if len(lst) < self.sample_cap:
            lst.append(value)
            return
        # Algorithm R: each of the `seen` observations survives with
        # probability sample_cap / seen
        j = self._sample_rng.randrange(seen)
        if j < self.sample_cap:
            lst[j] = value

    def sample_list(self, name: str) -> List[float]:
        return self.samples.get(name, [])

    # -------------------------------------------------------------- window
    def start_window(self) -> None:
        """Open the measurement window at the current sim time."""
        self._window_start = self.sim.now
        self._window_counters = dict(self.counters)
        self.samples.clear()
        # restart reservoir state so windowed sampling is a pure function
        # of the in-window observation sequence (prewindow traffic volume
        # must not influence which measured samples survive)
        self._samples_seen.clear()
        self._sample_rng = random.Random(self.sample_seed ^ 0xC0FFEE)

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
