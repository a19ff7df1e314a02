"""The discrete-event engine.

A single :class:`Simulator` instance owns the virtual clock and a
hierarchical timer wheel.  Entries are ``(time, seq, fn, args)`` tuples;
``seq`` is a monotone tiebreaker so same-timestamp events fire in
schedule order, which keeps runs fully deterministic.  Tuples (not event
objects) are what the wheel stores and the heaps compare, so every
ordering operation runs at C speed.

Wheel layout (see docs/ENGINE.md for the full invariants):

* the **active heap** holds the slot currently being drained, plus any
  event scheduled at-or-before the cursor (``call_soon`` and zero-delay
  self-rescheduling land here);
* **L0** — 256 slots of 1024 ns — absorbs the dense softirq/NIC timer
  traffic with O(1) list appends;
* **L1** — 256 slots of 262144 ns — holds the mid-range timers (GRO
  flushes, merge progress checks) and cascades one slot at a time into
  L0 as the cursor crosses interval boundaries;
* the **overflow heap** takes far-future timers (beyond ~67 ms) and is
  promoted into the wheel whenever the window advances.

Every level orders identically by ``(time, seq)``: slot lists are
heapified when they become active, so the global fire order is exactly
the order a single sorted heap would produce, bit for bit.

Every producer files through :meth:`Simulator._sched`, whose entry is
the only object an event allocates: there are no event objects and no
handles, so a scheduled callback always fires.  The one exception is
:meth:`Simulator._unsched`, with which a :class:`~repro.cpu.core.Core`
moves a fused run's completion earlier when the run must be cut.

Lazily evaluated events (the NIC's frame arrivals, see
:mod:`repro.netstack.nic`) reserve their seq when they are created and
file an entry with it (:meth:`Simulator._file`) only when something must
happen at their time; every other one is landed, in ``(time, seq)``
order, by the next reader that runs after it, or by one of
:attr:`Simulator.settlers` when :meth:`Simulator.run` stops.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, List, Optional, Tuple

# Wheel geometry.  L0 slot width is 2**10 ns so ``time * _INV_SLOT_NS``
# is an exact binary scaling (no float rounding can ever disagree with
# ``time // 1024``); one L1 slot covers one full L0 window.
_L0_BITS = 8
_L0_MASK = (1 << _L0_BITS) - 1
_L1_SLOTS = 1 << _L0_BITS
_SLOT_NS = 1024.0
_INV_SLOT_NS = 1.0 / _SLOT_NS
_NO_HORIZON = float("-inf")


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class Simulator:
    """Timer-wheel discrete-event simulator with a nanosecond clock."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._running = False
        #: total entries across every wheel level
        self._npending: int = 0
        #: heap draining the cursor slot; also takes at-or-before-cursor inserts
        self._active: List[tuple] = []
        self._slot0: List[list] = [[] for _ in range(_L1_SLOTS)]
        self._slot1: List[list] = [[] for _ in range(_L1_SLOTS)]
        #: far-future overflow, a plain heap of entries
        self._far: List[tuple] = []
        #: absolute L0 index covered by the active heap
        self._cur0: int = 0
        #: absolute L1 index whose interval L0 currently expands
        self._cur1: int = 0
        #: entries resident in _slot1 (skips the scan when zero)
        self._n1: int = 0
        #: logical completions: one per fired callback, plus the stage
        #: completions a fused run folds into its one event
        self.events_executed: int = 0
        #: the running ``run(until_ns)`` bound (``inf`` without one);
        #: ``-inf`` outside :meth:`run`, so work started there never fuses
        self._horizon: float = _NO_HORIZON
        #: optional :class:`repro.resilience.checkpoint.Checkpointer` that
        #: :meth:`run` offers a snapshot after every callback
        self.checkpointer: Optional[Any] = None
        #: seq of the entry firing now (outside :meth:`run`, one past every
        #: seq handed out by its stop): a lazy event at ``(t, seq)`` has
        #: happened by now when ``t < now`` or ``seq < _seq_now`` on a tie
        self._seq_now: int = 0
        #: called as :meth:`run` stops, after the clock reaches the stop
        #: time: each lands the lazy events that have happened by then
        self.settlers: List[Callable[[], None]] = []

    # ------------------------------------------------------------ persistence
    def __getstate__(self) -> dict:
        """Checkpoints snapshot the simulator mid-``run()``; a restored
        instance must be re-enterable, so the running flag is cleared."""
        state = self.__dict__.copy()
        state["_running"] = False
        state["_horizon"] = _NO_HORIZON
        return state

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------- placement
    def _place(self, entry: tuple) -> None:
        """File one entry into the right wheel level.

        Does *not* touch the pending count — callers that insert a new
        event account for it; cascade/promotion moves must not.

        Kept in lockstep with the inlined copy in :meth:`_sched`.
        """
        idx0 = int(entry[0] * _INV_SLOT_NS)
        if idx0 <= self._cur0:
            heappush(self._active, entry)
        else:
            idx1 = idx0 >> _L0_BITS
            if idx1 == self._cur1:
                self._slot0[idx0 & _L0_MASK].append(entry)
            elif idx1 - self._cur1 < _L1_SLOTS:
                self._slot1[idx1 & _L0_MASK].append(entry)
                self._n1 += 1
            else:
                heappush(self._far, entry)

    # ------------------------------------------------------------- scheduling
    def call_in(self, delay_ns: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        self._sched(self._now + delay_ns, fn, args)

    def call_at(self, time_ns: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} (now={self._now})"
            )
        self._sched(time_ns, fn, args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current time (after pending same-time events)."""
        self._sched(self._now, fn, args)

    def _sched(self, time_ns: float, fn: Callable[..., Any], args: Tuple) -> None:
        """File one ``(time, seq, fn, args)`` entry; the entry *is* the event.

        No past-time validation: the ``call_*`` front doors check.  Direct
        callers file times they know are not in the past:
        :class:`~repro.cpu.core.Core` (``now + duration`` for a
        non-negative duration), the TCP sender's pacer (a slot after
        now), and the wire and the scenario's ACK leg (an arrival after
        now, since :meth:`~repro.netstack.costs.CostModel.validate`
        rejects a negative ``wire_delay_ns``).
        """
        seq = self._seq
        self._seq = seq + 1
        entry = (time_ns, seq, fn, args)
        # inlined _place (kept in lockstep; the call costs more than the body)
        idx0 = int(time_ns * _INV_SLOT_NS)
        if idx0 <= self._cur0:
            heappush(self._active, entry)
        else:
            idx1 = idx0 >> _L0_BITS
            if idx1 == self._cur1:
                self._slot0[idx0 & _L0_MASK].append(entry)
            elif idx1 - self._cur1 < _L1_SLOTS:
                self._slot1[idx1 & _L0_MASK].append(entry)
                self._n1 += 1
            else:
                heappush(self._far, entry)
        self._npending += 1

    def _file(self, entry: tuple) -> None:
        """File a ready-made ``(time, seq, fn, args)`` entry whose seq was
        reserved when its event was created (``seq = sim._seq``, then
        ``sim._seq = seq + 1``), so it fires exactly where an entry filed
        then would have.  ``(time, seq)`` must lie after the entry firing
        now."""
        self._place(entry)
        self._npending += 1

    def _unsched(self, time_ns: float, fn: Callable[..., Any]) -> None:
        """Remove the pending entry that calls ``fn`` at ``time_ns``.

        The rare path of a fused-run cut (see :class:`repro.cpu.core.Core`,
        which has at most one such entry per core, so ``(time, fn)``
        names it), so a linear scan is fine.  An entry always sits where
        :meth:`_place` would file it now: cascades and promotions keep
        every level consistent with the cursors.
        """
        idx0 = int(time_ns * _INV_SLOT_NS)
        idx1 = idx0 >> _L0_BITS
        in_l1 = False
        if idx0 <= self._cur0:
            level = self._active
        elif idx1 == self._cur1:
            level = self._slot0[idx0 & _L0_MASK]
        elif idx1 - self._cur1 < _L1_SLOTS:
            level = self._slot1[idx1 & _L0_MASK]
            in_l1 = True
        else:
            level = self._far
        for i, entry in enumerate(level):
            if entry[2] is fn and entry[0] == time_ns:
                break
        else:
            raise SimulationError(f"no pending entry for {fn!r} at t={time_ns}")
        level[i] = level[-1]
        level.pop()
        if level is self._active or level is self._far:
            heapify(level)  # in place: run()'s alias of the active heap stays valid
        if in_l1:
            self._n1 -= 1
        self._npending -= 1

    # ------------------------------------------------------- wheel advancement
    def _refill(self) -> bool:
        """Advance the cursor to the next occupied L0 slot and load it as
        the active heap.  Returns False when no events remain anywhere."""
        slot0 = self._slot0
        while True:
            end0 = (self._cur1 + 1) << _L0_BITS
            i = self._cur0 + 1
            while i < end0:
                s = slot0[i & _L0_MASK]
                if s:
                    self._cur0 = i
                    slot0[i & _L0_MASK] = []
                    if len(s) > 1:
                        heapify(s)
                    self._active = s
                    return True
                i += 1
            self._cur0 = end0 - 1
            if not self._advance_l1():
                return False

    def _advance_l1(self) -> bool:
        """Move to the next occupied L1 interval, cascading its slot into
        L0 — or, when L1 is empty, jump the whole window to the overflow
        heap's horizon and promote everything it now covers."""
        far = self._far
        if self._n1:
            slot1 = self._slot1
            j = self._cur1 + 1
            while True:  # _n1 > 0 guarantees a hit within the window
                s = slot1[j & _L0_MASK]
                if s:
                    break
                j += 1
        elif far:
            j = int(far[0][0] * _INV_SLOT_NS) >> _L0_BITS
            s = None
        else:
            return False
        self._cur1 = j
        self._cur0 = (j << _L0_BITS) - 1
        place = self._place
        if s:
            self._slot1[j & _L0_MASK] = []
            self._n1 -= len(s)
            for entry in s:
                place(entry)  # lands in the freshly opened L0 window
        # promote overflow entries the advanced window now covers, so the
        # "far entries lie beyond the L1 horizon" invariant is restored
        if far:
            horizon = j + _L1_SLOTS
            while far and int(far[0][0] * _INV_SLOT_NS) >> _L0_BITS < horizon:
                place(heappop(far))
        return True

    # ---------------------------------------------------------------- running
    def run(self, until_ns: Optional[float] = None) -> None:
        """Execute events until the wheel is empty or the clock passes ``until_ns``.

        When ``until_ns`` is given, the clock is left exactly at ``until_ns``
        (events scheduled later stay on the wheel), matching the convention of
        measurement windows: ``sim.run(until_ns=window_end)``.

        Before it returns, every lazy event that has happened by the stop
        is landed (:attr:`settlers`), so a window boundary sees the state
        the per-event path leaves.

        This is the only loop that fires events.  An attached
        :attr:`checkpointer` is offered a snapshot after each callback,
        between events, so every snapshot is consistent.  It feeds nothing
        back into the simulation, so measurements are bit-identical with
        or without it.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        ckpt = self.checkpointer
        try:
            if ckpt is not None:
                ckpt.begin(self)
            until = float("inf") if until_ns is None else until_ns
            self._horizon = until
            pop = heappop
            active = self._active
            while True:
                if active:
                    t, seq, fn, args = pop(active)
                    if t > until:
                        # no callback ran since the pop: reinserting the
                        # entry restores the exact pre-pop wheel state
                        self._place((t, seq, fn, args))
                        break
                    self._npending -= 1
                    self._now = t
                    self._seq_now = seq
                    self.events_executed += 1
                    fn(*args)
                    if ckpt is not None and ckpt.due(t):
                        ckpt.save(self)
                else:
                    if not self._refill():
                        break
                    active = self._active
            if until_ns is not None and self._now < until_ns:
                self._now = until_ns
            self._seq_now = self._seq
            for settle in self.settlers:
                settle()
        finally:
            self._running = False
            self._horizon = _NO_HORIZON

    @property
    def pending(self) -> int:
        """Number of events still on the wheel."""
        return self._npending

    def entries(self) -> Iterator[tuple]:
        """Every pending ``(time, seq, fn, args)`` entry, in no particular
        order.  A linear scan of all four levels: for window boundaries,
        never the hot path."""
        yield from self._active
        for slot in self._slot0:
            yield from slot
        for slot in self._slot1:
            yield from slot
        yield from self._far
