"""The flight-recorder event bus.

A :class:`FlightRecorder` is a bounded buffer of structured events that
every datapath layer probes into.  Two event shapes exist:

* **instants** (``kind='I'``) — a point in time: an IRQ raise, an IPI,
  a fault injection, a merge skip, a quarantine transition;
* **spans** (``kind='X'``) — a duration on one core: a work item's
  execution window (stage run, softirq entry, driver poll).  Spans are
  recorded *complete* (at their end, with start and duration) so that
  buffer sampling can never split a begin from its end.

Past ``capacity`` the buffer degrades to deterministic reservoir
sampling (Algorithm R on a dedicated seeded PRNG): every event seen has
an equal probability of surviving, the kept set is a pure function of
``(seed, event sequence)`` — independent of wall clock, process, or
worker count — and below the cap behavior is exact (no randomness is
consumed at all).

The recorder is pull-based: producers call :meth:`instant`/:meth:`span`,
consumers read :meth:`events` (time-sorted) after the run.  Producers
hold ``obs`` references that are ``None`` when recording is disabled, so
the disabled hot path is a single attribute test.  The recorder also
carries the run's :class:`~repro.obs.decompose.JourneyTracker`, which the
pipeline feeds through the same ``obs`` reference.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.decompose import JourneyTracker


class Event:
    """One recorded event (see module docstring for kinds)."""

    __slots__ = ("seq", "kind", "name", "t_ns", "dur_ns", "core", "fields")

    def __init__(
        self,
        seq: int,
        kind: str,
        name: str,
        t_ns: float,
        dur_ns: float = 0.0,
        core: int = -1,
        fields: Optional[Dict[str, Any]] = None,
    ):
        self.seq = seq
        self.kind = kind
        self.name = name
        self.t_ns = t_ns
        self.dur_ns = dur_ns
        self.core = core
        self.fields = fields

    @property
    def end_ns(self) -> float:
        return self.t_ns + self.dur_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f" core={self.core}" if self.core >= 0 else ""
        dur = f" dur={self.dur_ns:.0f}" if self.kind == "X" else ""
        return f"<Event {self.kind} {self.name} t={self.t_ns:.0f}{dur}{where}>"


class FlightRecorder:
    """Bounded structured event buffer with deterministic sampling."""

    def __init__(self, capacity: int = 200_000, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self._rng = random.Random(seed ^ 0x5F17E7)
        self._buf: List[Event] = []
        self.events_seen = 0
        self._clock = None  # optional: a Simulator supplying default timestamps
        #: per-packet journeys, sampled through the pipeline's hooks for the
        #: latency decomposition (repro.obs.decompose)
        self.journeys = JourneyTracker()

    # ------------------------------------------------------------- producers
    def bind_clock(self, sim) -> None:
        """Attach a simulator so probes may omit explicit timestamps."""
        self._clock = sim

    def instant(self, name: str, t_ns: Optional[float] = None, core: int = -1, **fields) -> None:
        """Record a point event (IRQ, IPI, fault, steering decision...)."""
        if t_ns is None:
            t_ns = self._clock.now
        self._add(Event(self.events_seen, "I", name, t_ns, 0.0, core, fields or None))

    def span(self, name: str, start_ns: float, end_ns: float, core: int = -1, **fields) -> None:
        """Record a complete execution slice on ``core``."""
        self._add(
            Event(
                self.events_seen, "X", name, start_ns, end_ns - start_ns, core, fields or None
            )
        )

    def _add(self, ev: Event) -> None:
        self.events_seen += 1
        buf = self._buf
        if len(buf) < self.capacity:
            buf.append(ev)
            return
        # Algorithm R: keep each of the n events seen with prob capacity/n.
        j = self._rng.randrange(self.events_seen)
        if j < self.capacity:
            buf[j] = ev

    # ------------------------------------------------------------- consumers
    @property
    def events_kept(self) -> int:
        return len(self._buf)

    @property
    def events_dropped(self) -> int:
        return self.events_seen - len(self._buf)

    def events(self) -> List[Event]:
        """Kept events, time-ordered (probe order breaks timestamp ties)."""
        return sorted(self._buf, key=lambda e: (e.t_ns, e.seq))

    def iter_named(self, *names: str) -> Iterable[Event]:
        wanted = frozenset(names)
        return (ev for ev in self.events() if ev.name in wanted)

    def count_named(self, name: str) -> int:
        return sum(1 for ev in self._buf if ev.name == name)

    def cores(self) -> List[int]:
        """Sorted core ids that produced at least one event."""
        return sorted({ev.core for ev in self._buf if ev.core >= 0})
