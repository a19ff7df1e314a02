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
inline from a :class:`~repro.sim.rng.BufferedNormals` block buffer.
Topologies may share one named RNG stream across cores (the client
machines reuse ``core0.jitter``/``core1.jitter``), so the buffer belongs
to the *stream*, not the core: every sharer pops from the same buffer
and the interleaved draw sequence is exactly that of scalar draws.
Per-core buffers would reorder it and change the timeline.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, Union

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.rng import BufferedNormals

_exp = math.exp


class WorkItem:
    """One unit of CPU work: charge ``cost_ns`` then invoke ``fn(*args)``."""

    __slots__ = ("tag", "cost_ns", "fn", "args")

    def __init__(self, tag: str, cost_ns: float, fn: Callable[..., Any], *args: Any):
        if cost_ns < 0:
            raise ValueError(f"negative work cost: {cost_ns}")
        self.tag = tag
        self.cost_ns = cost_ns
        self.fn = fn
        self.args = args


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
        #: jitter normal source, shared by every core on the same stream
        self._normals = rng
        #: its pending draws (refills extend this same list in place)
        self._zbuf = rng.buf if rng is not None else None
        # lognormal(mu, sigma) has mean exp(mu + sigma^2/2); choose mu so the
        # jitter factor has mean 1.0 and only adds variance, not bias.
        self._jitter_mu = -0.5 * jitter_sigma * jitter_sigma
        self._queue: Deque[WorkItem] = deque()
        self._busy = False
        #: bound once: every completion entry shares this method object
        self._on_complete = self._complete
        self.busy_ns: Dict[str, float] = {}
        self.items_executed = 0
        self._queue_len_max = 0
        #: recycled WorkItems for the *_call submission paths
        self._item_pool: list = []
        #: optional FlightRecorder — None (the default) disables all probes
        self.obs = None
        #: optional StageHistograms (repro.obs.hist) — exact latency counts
        self.hist = None
        #: (start, end) ns of the work item currently completing; only
        #: maintained while hist or obs is attached (read by the pipeline's
        #: record path and the journey tracker; scalars, so the per-item
        #: bookkeeping allocates nothing)
        self.span_start = 0.0
        self.span_end = 0.0

    # --------------------------------------------------------------- submit
    def submit_call(self, tag: str, cost_ns: float, fn: Callable[..., Any], *args: Any) -> None:
        """Enqueue work that charges ``cost_ns`` then calls ``fn(*args)``;
        starts immediately if the core is idle."""
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
        q = self._queue
        q.append(item)
        if len(q) > self._queue_len_max:
            self._queue_len_max = len(q)
        if not self._busy:
            self._start_next()

    def submit_front_call(self, tag: str, cost_ns: float, fn: Callable[..., Any], *args: Any) -> None:
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
        q = self._queue
        q.appendleft(item)
        if len(q) > self._queue_len_max:
            self._queue_len_max = len(q)
        if not self._busy:
            self._start_next()

    # ------------------------------------------------------------ execution
    def _start_next(self) -> None:
        item = self._queue.popleft()
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
        self.items_executed += 1
        hist = self.hist
        obs = self.obs
        if hist is not None or obs is not None:
            now = self.sim._now
            start = now - duration
            self.span_start = start
            self.span_end = now
            if hist is not None and tag not in hist.stage_names:
                # system work (irq/driver_poll/softirq/ipi/steer_dispatch);
                # datapath stages are recorded by the pipeline instead,
                # with queue delay and flow class attached
                hist.record_core(tag, self.id, duration)
            if obs is not None:
                obs.span(tag, start, now, core=self.id)
        fn = item.fn
        args = item.args
        item.fn = None
        item.args = None
        self._item_pool.append(item)
        fn(*args)
        # the completion may have submitted more work to this core
        q = self._queue
        if q:
            nxt = q.popleft()
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

    # ------------------------------------------------------------ accounting
    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def max_queue_depth(self) -> int:
        return self._queue_len_max

    def total_busy_ns(self) -> float:
        """Total busy time across all tags since construction."""
        return sum(self.busy_ns.values())

    def snapshot(self) -> Dict[str, float]:
        """Copy of the per-tag busy counters (for windowed measurement)."""
        return dict(self.busy_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.id} busy={self._busy} depth={len(self._queue)}>"
