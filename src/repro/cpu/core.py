"""A simulated CPU core.

A :class:`Core` owns a FIFO run queue of :class:`WorkItem` s and executes
them one at a time.  Work duration is ``cost_ns / speed * jitter`` where
jitter is a lognormal multiplicative factor drawn per item — this is the
source of the cross-core processing-speed variation that makes parallel
micro-flows finish out of order (paper §III-B, Fig. 7).

Busy time is accounted per tag, so experiments can report utilization
breakdowns per processing stage.

Hot-path notes: every work item is drawn from a per-core free list by
:meth:`Core.submit_call` / :meth:`Core.submit_front_call` and returns to
it on completion; completions schedule through the engine's
:meth:`~repro.sim.engine.Simulator._sched` with a bound ``_complete``
cached once per core.  Jitter normals are popped
inline from a :class:`~repro.sim.rng.BufferedNormals` block buffer over
the core's own named stream: the core claims the buffer when it
attaches, and no other core may (every machine names its own streams,
see :class:`~repro.cpu.topology.CpuSet`).  So the draws are exactly the
scalar draws of that stream, in this core's start order.

Fused runs: :meth:`Core.submit_run` charges a run of pipeline stages
that stay on this core as one :class:`FusedRun` queue entry and one
wheel event.  It draws one jitter normal per sub-stage and adds the
durations to the start time one by one, so every sub-stage boundary is
the float the per-stage path computes, and accrues ``busy_ns`` per tag.
A sub-stage whose start would check the backlog (a *guard*) is covered
only while that check provably passes: the queue only grows while the
run holds the core, so a run is cut at its next guard as soon as a
submission fills the backlog, and its completion moves there.  See
docs/ENGINE.md for the full invariant.

Steering payments: a completion that hands packets to other cores owes
each hop's sender-side steering cost (:attr:`Core._owed`, added by the
pipeline).  The core pays it right after that completion, with one
jitter draw, and starts its next item or run that much later; the paid
prefix rides on that item's completion entry (``paid``) and accrues to
``busy_ns["steer_dispatch"]`` when it completes, so a window edge can
split it exactly.  Only a completion that leaves the queue empty files
what it owes as a ``steer_dispatch`` item of its own.

Stage histograms (:mod:`repro.obs.hist`) are recorded here, at
completion, the one place that knows every span: a pipeline hop's item
carries its series log and submit time and appends ``submit, end,
duration``; system work appends its duration to a log resolved once per
tag; a fused run appends one entry.  No span arithmetic runs per item:
:meth:`~repro.obs.hist.StageHistograms.fold` does it, vectorised.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, Dict, Union

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.rng import BufferedNormals

_exp = math.exp
#: cut depth while no fused run has a pending guard (never reached)
_NO_CUT = sys.maxsize
#: a core with histograms charges their shared fold budget once per this
#: many completed items (a power of two), not per item
_CHARGE_EVERY = 64
_CHARGE_MASK = _CHARGE_EVERY - 1


class WorkItem:
    """One unit of CPU work: charge ``cost_ns`` then invoke ``fn(*args)``.

    A pipeline hop's item also carries its histogram ``series`` log (None
    for system work) and, with it, its ``submit`` time."""

    fused = False
    __slots__ = ("tag", "cost_ns", "fn", "args", "series", "submit")

    def __init__(self, tag: str, cost_ns: float, fn: Callable[..., Any], *args: Any):
        if cost_ns < 0:
            raise ValueError(f"negative work cost: {cost_ns}")
        self.tag = tag
        self.cost_ns = cost_ns
        self.fn = fn
        self.args = args
        self.series = None


class FusedRun:
    """Sub-stages charged back to back as one work item (see
    :meth:`Core.submit_run`).

    ``shape`` is the static part, shared by every run of one plan: its
    ``tags`` (one per sub-stage), its ``guards`` (the ascending indices,
    from 1, of sub-stages whose start checks the run queue against its
    ``limit``), ``finish``, called with the run when it completes, and
    ``series``, its histogram logs by covered length.  ``costs`` has one
    entry per sub-stage, ``item`` is the caller's payload and ``submit``
    the time it was submitted.  Once started, ``durs`` holds the
    duration of each *covered* sub-stage (the prefix that completes in
    this run's one event), and ``bounds`` the start time followed by
    each covered sub-stage's end time, and ``paid`` the steering
    prefix paid just before ``bounds[0]`` (0.0 for none).
    """

    fused = True
    __slots__ = ("shape", "costs", "item", "submit", "durs", "bounds", "paid")


class Core:
    """A serially-executing CPU core with tagged busy-time accounting."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        speed: float = 1.0,
        jitter_sigma: float = 0.0,
        rng: Union[None, BufferedNormals, np.random.Generator] = None,
    ):
        if speed <= 0:
            raise ValueError(f"core speed must be positive, got {speed}")
        if jitter_sigma < 0:
            raise ValueError(f"jitter sigma must be >= 0, got {jitter_sigma}")
        if jitter_sigma > 0 and rng is None:
            raise ValueError("jittered core requires an rng")
        self.sim = sim
        self.id = core_id
        self.speed = speed
        self.jitter_sigma = jitter_sigma
        if isinstance(rng, np.random.Generator):
            # a private generator: its own buffer keeps its draw order
            rng = BufferedNormals(rng)
        #: jitter normal source; this core is its only consumer
        self._normals = rng
        if rng is not None:
            rng.claim()
        #: its pending draws (refills extend this same list in place)
        self._zbuf = rng.buf if rng is not None else None
        # lognormal(mu, sigma) has mean exp(mu + sigma^2/2); choose mu so the
        # jitter factor has mean 1.0 and only adds variance, not bias.
        self._jitter_mu = -0.5 * jitter_sigma * jitter_sigma
        self._queue: Deque[WorkItem] = deque()
        self._busy = False
        #: bound once: every completion entry shares this method object
        self._on_complete = self._complete
        self._on_run_complete = self._complete_run
        self._on_complete_paid = self._complete_paid
        #: steering cost (ns, before speed and jitter) that the completion
        #: in progress owes for its cross-core handoffs; paid before the
        #: next item starts, so it is 0.0 between events
        self._owed = 0.0
        self.busy_ns: Dict[str, float] = {}
        #: logical items: a fused run counts one per covered sub-stage
        self.items_executed = 0
        #: while a fused run holding the core has a guard ahead: that run,
        #: and the queue depth at which a submission cuts it
        self._run = None
        self._cut_depth = _NO_CUT
        #: recycled WorkItems for the *_call submission paths
        self._item_pool: list = []
        #: recycled FusedRuns for submit_run
        self._run_pool: list = []
        #: optional FlightRecorder — None (the default) disables all probes
        self.obs = None
        #: optional StageHistograms (repro.obs.hist): every completion
        #: appends its raw spans to its log
        self.hist = None
        #: system-work tag -> its histogram series log, resolved once
        self._tag_series: Dict[str, Any] = {}
        #: (start, end) ns of the work item currently completing; only
        #: maintained while a flight recorder is attached (read by the
        #: journey tracker)
        self.span_start = 0.0
        self.span_end = 0.0

    # --------------------------------------------------------------- submit
    def submit_call(
        self, tag: str, cost_ns: float, fn: Callable[..., Any], *args: Any,
        series: Any = None,
    ) -> None:
        """Enqueue work that charges ``cost_ns`` then calls ``fn(*args)``;
        starts immediately if the core is idle.  A pipeline hop passes its
        histogram ``series`` log (see :mod:`repro.obs.hist`); other work
        is recorded under its tag."""
        if cost_ns < 0:
            raise ValueError(f"negative work cost: {cost_ns}")
        pool = self._item_pool
        if pool:
            item = pool.pop()
            item.tag = tag
            item.cost_ns = cost_ns
            item.fn = fn
            item.args = args
        else:
            item = WorkItem(tag, cost_ns, fn, *args)
        item.series = series
        if series is not None:
            item.submit = self.sim._now
        q = self._queue
        q.append(item)
        if not self._busy:
            self._start_next()
        elif len(q) >= self._cut_depth:
            self._cut_run()

    def submit_front_call(
        self, tag: str, cost_ns: float, fn: Callable[..., Any], *args: Any,
        series: Any = None,
    ) -> None:
        """Like :meth:`submit_call`, but at the *head* of the run queue
        (run-to-completion continuation: the next processing stage of the
        packet currently finishing runs before other queued work, as in a
        real softirq).

        Note: multiple front submissions stack LIFO; callers submitting
        several continuations must iterate them in reverse.
        """
        if cost_ns < 0:
            raise ValueError(f"negative work cost: {cost_ns}")
        pool = self._item_pool
        if pool:
            item = pool.pop()
            item.tag = tag
            item.cost_ns = cost_ns
            item.fn = fn
            item.args = args
        else:
            item = WorkItem(tag, cost_ns, fn, *args)
        item.series = series
        if series is not None:
            item.submit = self.sim._now
        q = self._queue
        q.appendleft(item)
        if not self._busy:
            self._start_next()
        elif len(q) >= self._cut_depth:
            self._cut_run()

    def submit_run(self, shape: Any, costs: list, item: Any, front: bool) -> None:
        """Enqueue a fused run of ``len(costs)`` sub-stages (at the head when
        ``front``, as a run-to-completion continuation); starts
        immediately if the core is idle.  ``shape.finish(run)`` is called
        when it completes, with the :class:`FusedRun`'s boundary times.

        The caller guarantees that nothing can observe the run between its
        sub-stages: every sub-stage but the last is pure, this core's
        jitter stream has no other consumer and its jitter is nonzero (so
        no boundary ties an unrelated event), and no recorder is attached.
        """
        for cost in costs:
            if cost < 0:
                raise ValueError(f"negative work cost: {cost}")
        pool = self._run_pool
        run = pool.pop() if pool else FusedRun()
        run.shape = shape
        run.costs = costs
        run.item = item
        run.submit = self.sim._now
        if not self._busy:
            self._start_run(run)  # an idle core has an empty queue
            return
        q = self._queue
        if front:
            q.appendleft(run)
        else:
            q.append(run)
        if len(q) >= self._cut_depth:
            self._cut_run()

    # ------------------------------------------------------------ execution
    def _start_next(self) -> None:
        item = self._queue.popleft()
        if item.fused:
            self._start_run(item)
            return
        sigma = self.jitter_sigma
        if sigma == 0.0:
            duration = item.cost_ns / self.speed
        else:
            zbuf = self._zbuf
            z = zbuf.pop() if zbuf else self._normals.refill()
            duration = item.cost_ns / self.speed * _exp(self._jitter_mu + sigma * z)
        self._busy = True
        sim = self.sim
        sim._sched(sim._now + duration, self._on_complete, (item, duration))

    def _complete(self, item: WorkItem, duration: float) -> None:
        tag = item.tag
        busy = self.busy_ns
        busy[tag] = busy.get(tag, 0.0) + duration
        n = self.items_executed + 1
        self.items_executed = n
        hist = self.hist
        if hist is not None:
            # raw spans only: StageHistograms.fold does the arithmetic
            log = item.series
            if log is not None:  # a pipeline hop
                log.fromlist([item.submit, self.sim._now, duration])
            else:  # system work: irq, driver_poll, softirq, steering, app work
                log = self._tag_series.get(tag)
                if log is None:
                    log = self._tag_series[tag] = hist.core_series(tag, self.id)
                log.append(duration)
            if not n & _CHARGE_MASK:
                hist.charge(_CHARGE_EVERY)
        obs = self.obs
        if obs is not None:
            now = self.sim._now
            start = now - duration
            self.span_start = start
            self.span_end = now
            obs.span(tag, start, now, core=self.id)
        fn = item.fn
        args = item.args
        item.fn = None
        item.args = None
        self._item_pool.append(item)
        fn(*args)
        # the completion may have submitted more work to this core
        q = self._queue
        if self._owed:
            if not q:
                self._busy = False
                self.file_owed()
                return
            # pay what the completion owes (one draw), then start the next
            # item or run that much later
            owed = self._owed
            self._owed = 0.0
            sigma = self.jitter_sigma
            if sigma == 0.0:
                paid = owed / self.speed
            else:
                zbuf = self._zbuf
                z = zbuf.pop() if zbuf else self._normals.refill()
                paid = owed / self.speed * _exp(self._jitter_mu + sigma * z)
            nxt = q.popleft()
            if nxt.fused:
                self._start_run(nxt, paid)
                return
            if sigma == 0.0:
                duration = nxt.cost_ns / self.speed
            else:
                z = zbuf.pop() if zbuf else self._normals.refill()
                duration = nxt.cost_ns / self.speed * _exp(self._jitter_mu + sigma * z)
            sim = self.sim
            sim._sched(sim._now + paid + duration, self._on_complete_paid,
                       (nxt, duration, paid))
        elif q:
            nxt = q.popleft()
            if nxt.fused:
                self._start_run(nxt)
                return
            sigma = self.jitter_sigma
            if sigma == 0.0:
                duration = nxt.cost_ns / self.speed
            else:
                zbuf = self._zbuf
                z = zbuf.pop() if zbuf else self._normals.refill()
                duration = nxt.cost_ns / self.speed * _exp(self._jitter_mu + sigma * z)
            sim = self.sim
            sim._sched(sim._now + duration, self._on_complete, (nxt, duration))
        else:
            self._busy = False

    # ----------------------------------------------------- steering payments
    def file_owed(self) -> None:
        """File what this core owes as a ``steer_dispatch`` item at the
        back of its queue, when there is no next item to prefix: after a
        completion that leaves the queue empty, or for a dispatch made
        outside any completion of this core (a timer's)."""
        owed = self._owed
        self._owed = 0.0
        self.submit_call("steer_dispatch", owed, _paid)

    def _complete_paid(self, item: WorkItem, duration: float, paid: float) -> None:
        """Complete an item that started after a paid steering prefix: the
        prefix accrues first, as a ``steer_dispatch`` item's time would
        (no item counted; :meth:`_complete_run` does the same for a run)."""
        busy = self.busy_ns
        busy["steer_dispatch"] = busy.get("steer_dispatch", 0.0) + paid
        hist = self.hist
        if hist is not None:
            log = self._tag_series.get("steer_dispatch")
            if log is None:
                log = self._tag_series["steer_dispatch"] = hist.core_series(
                    "steer_dispatch", self.id
                )
            log.append(paid)
        obs = self.obs
        if obs is not None:
            start = self.sim._now - duration
            obs.span("steer_dispatch", start - paid, start, core=self.id)
        self._complete(item, duration)

    # ------------------------------------------------------------ fused runs
    def _start_run(self, run: FusedRun, paid: float = 0.0) -> None:
        """Compute the run's boundaries and file one completion at the end
        of the covered prefix; the run starts ``paid`` ns from now, after
        a steering payment.

        The draws are read in place (``buf[-1]``, ``buf[-2]``, ...) and
        popped only at completion, so a sub-stage left uncovered leaves
        its draw pending for the stage-by-stage dispatch that follows.
        The prefix stops before the first sub-stage that would end past
        the ``run(until_ns)`` horizon: a window boundary then sees exactly
        the completions the per-stage path made.
        """
        costs = run.costs
        zbuf = self._zbuf
        if len(zbuf) < len(costs):
            self._normals.reserve(len(costs))
        speed = self.speed
        mu = self._jitter_mu
        sigma = self.jitter_sigma
        sim = self.sim
        t = sim._now + paid
        durs = []
        bounds = [t]
        i = len(zbuf)
        for cost in costs:
            i -= 1
            # the per-item expression, and one addition per boundary in
            # order, so every boundary is the float the per-stage path makes
            duration = cost / speed * _exp(mu + sigma * zbuf[i])
            durs.append(duration)
            t += duration
            bounds.append(t)
        if t > sim._horizon:
            n = max(1, bisect_right(bounds, sim._horizon) - 1)
            del durs[n:]
            del bounds[n + 1:]
        run.durs = durs
        run.bounds = bounds
        run.paid = paid
        self._busy = True
        shape = run.shape
        guards = shape.guards
        if guards and guards[0] < len(durs):
            if len(self._queue) >= shape.limit:
                # already full: the first guarded dispatch will drop
                del durs[guards[0]:]
                del bounds[guards[0] + 1:]
            else:
                self._run = run
                self._cut_depth = shape.limit
        sim._sched(bounds[-1], self._on_run_complete, (run,))

    def _cut_run(self) -> None:
        """A submission filled the backlog while ``_run`` holds the core.

        Guards whose boundary has passed saw a shorter queue and passed;
        the first one still ahead fails, so the run now ends there and
        its completion entry moves to that boundary.
        """
        self._cut_depth = _NO_CUT
        run = self._run
        self._run = None
        bounds = run.bounds
        now = self.sim._now
        for g in run.shape.guards:
            if g >= len(run.durs):
                return
            if bounds[g] >= now:
                break
        else:
            return
        sim = self.sim
        sim._unsched(bounds[-1], self._on_run_complete)
        del run.durs[g:]
        del bounds[g + 1:]
        sim._sched(bounds[g], self._on_run_complete, (run,))

    def cut_runs(self, holds: Callable[[Any], bool]) -> None:
        """End each fused run whose payload ``holds`` accepts where
        stage-by-stage dispatch would next re-resolve its route: a queued
        run keeps only its first sub-stage, and the run holding the core
        ends after the sub-stage in progress (its completion entry moves
        to that boundary).  For a caller that re-routes a flow mid-run,
        so the run's later stages dispatch on the new routes."""
        for work in self._queue:
            if work.fused and holds(work.item):
                del work.costs[1:]
        sim = self.sim
        now = sim._now
        for end, _, fn, args in sim.entries():
            if fn == self._on_run_complete:
                run = args[0]
                break
        else:
            return
        if not holds(run.item):
            return
        bounds = run.bounds
        for g in range(1, len(run.durs)):
            if bounds[g] >= now:
                break
        else:
            return
        sim._unsched(end, self._on_run_complete)
        del run.durs[g:]
        del bounds[g + 1:]
        sim._sched(bounds[g], self._on_run_complete, (run,))

    def _complete_run(self, run: FusedRun) -> None:
        durs = run.durs
        n = len(durs)
        del self._zbuf[-n:]  # the covered sub-stages' draws, read at start
        busy = self.busy_ns
        paid = run.paid
        if paid:  # the steering prefix, as in _complete_paid (no recorder here)
            busy["steer_dispatch"] = busy.get("steer_dispatch", 0.0) + paid
        shape = run.shape
        for tag, duration in zip(shape.tags, durs):
            busy[tag] = busy.get(tag, 0.0) + duration
        executed = self.items_executed + n
        self.items_executed = executed
        sim = self.sim
        # the sub-stage completions this one event stands for still count
        sim.events_executed += n - 1
        self._run = None
        self._cut_depth = _NO_CUT
        hist = self.hist
        if hist is not None:
            if paid:
                log = self._tag_series.get("steer_dispatch")
                if log is None:
                    log = self._tag_series["steer_dispatch"] = hist.core_series(
                        "steer_dispatch", self.id
                    )
                log.append(paid)
            # one entry per run, whatever its length; see StageHistograms.fold
            log = shape.series[n]
            log.append(run.submit)
            log.fromlist(run.bounds)
            log.fromlist(durs)
            if (executed & _CHARGE_MASK) < n:  # passed a charge point
                hist.charge(_CHARGE_EVERY)
        shape.finish(run)
        run.shape = run.costs = run.item = None
        self._run_pool.append(run)
        q = self._queue
        if self._owed:
            if not q:
                self._busy = False
                self.file_owed()
                return
            # as in _complete; a core that fuses is jittered
            owed = self._owed
            self._owed = 0.0
            zbuf = self._zbuf
            z = zbuf.pop() if zbuf else self._normals.refill()
            paid = owed / self.speed * _exp(self._jitter_mu + self.jitter_sigma * z)
            nxt = q.popleft()
            if nxt.fused:
                self._start_run(nxt, paid)
                return
            z = zbuf.pop() if zbuf else self._normals.refill()
            duration = nxt.cost_ns / self.speed * _exp(self._jitter_mu + self.jitter_sigma * z)
            sim._sched(sim._now + paid + duration, self._on_complete_paid,
                       (nxt, duration, paid))
        elif q:
            nxt = q.popleft()
            if nxt.fused:
                self._start_run(nxt)
                return
            # a core that fuses is jittered
            zbuf = self._zbuf
            z = zbuf.pop() if zbuf else self._normals.refill()
            duration = nxt.cost_ns / self.speed * _exp(self._jitter_mu + self.jitter_sigma * z)
            sim._sched(sim._now + duration, self._on_complete, (nxt, duration))
        else:
            self._busy = False

    # ------------------------------------------------------------ accounting
    @property
    def fuses(self) -> bool:
        """Whether fused runs may start here: the core is jittered (see
        docs/ENGINE.md; the pipeline's ``reference_path`` rules out the
        rest)."""
        return self.jitter_sigma > 0.0

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def total_busy_ns(self) -> float:
        """Total busy time across all tags since construction."""
        return sum(self.busy_ns.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.id} busy={self._busy} depth={len(self._queue)}>"


def _paid() -> None:
    """A ``steer_dispatch`` item's completion: its charge was all the
    work (see :meth:`Core.file_owed`)."""
