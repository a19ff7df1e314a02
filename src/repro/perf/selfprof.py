"""Wall-clock self-profiling of the discrete-event hot path.

The simulated network already has a flight recorder (:mod:`repro.obs`);
this profiles the *simulator as a Python program*: where real CPU time
goes while the event loop runs.  A :class:`SelfProfiler` attaches to a
:class:`~repro.sim.engine.Simulator` (``sim.profiler = prof``) and the
engine's one run loop then hands every callback to :meth:`SelfProfiler.call`,
which

* times the callback with :func:`time.perf_counter` and attributes the
  cost to the owning component (``Nic._do_poll``, ``Core._run_next``, …),
* counts heap traffic (pushes, pops, per-level pushes, cascades) and
  tracks the peak heap size,
* derives executed-events-per-wall-second, the harness's headline
  throughput number.

Events count *logical* completions, like ``Simulator.events_executed``:
a fused run of pipeline stages fires one callback for several stage
completions, and a NIC frame landed lazily fires none; both report the
extra completions through :meth:`SelfProfiler.note_folded`, so
``pops - requeues + folded == events_executed`` holds exactly.  (While a
profiler is attached, the wire files one entry per frame, so a profile
sees every arrival as its own callback; only frames already in flight
when it was attached land lazily.)

Every wall-clock read of the profiler lives in this module.  Profiling
only *reads* clocks, so the event schedule and simulated measurements
are bit-identical with or without a profiler, and it composes with a
checkpointer on the same run.  The profiler is part of the snapshotted
object graph: a run resumed from a checkpoint reports counters that
include the pickled pre-kill counts, and a ``run_wall_s`` that lacks the
interrupted ``run()`` call's wall time up to the snapshot.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


def callback_owner(fn: Callable[..., Any]) -> str:
    """Stable cost-center name for a scheduled callback.

    Bound methods resolve to ``ClassName.method`` of the *concrete*
    receiver (so a subclass policy shows up under its own name);
    plain functions fall back to their qualname.
    """
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{fn.__name__}"
    return getattr(fn, "__qualname__", repr(fn))


class SelfProfiler:
    """Accumulates engine-loop costs; JSON-safe summary via :meth:`summary`."""

    __slots__ = (
        "heap_pushes",
        "heap_pops",
        "requeues",
        "folded",
        "peak_heap",
        "level_pushes",
        "wheel_cascades",
        "wheel_jumps",
        "events_executed",
        "run_wall_s",
        "callback_wall_s",
        "centers",
        "queue_stats",
        "_run_started",
    )

    def __init__(self) -> None:
        self.heap_pushes = 0
        self.heap_pops = 0
        #: pops that lay past ``until_ns`` and went back on the wheel
        self.requeues = 0
        #: completions without their own callback: stages folded into
        #: fused runs' single events and lazily landed NIC frames
        self.folded = 0
        self.peak_heap = 0
        #: pushes per wheel level: [active heap, L0 slot, L1 slot, overflow]
        self.level_pushes = [0, 0, 0, 0]
        #: L1->L0 slot cascades (wheel window advanced one interval)
        self.wheel_cascades = 0
        #: whole-window jumps driven by the overflow heap's horizon
        self.wheel_jumps = 0
        self.events_executed = 0
        #: total wall time inside Simulator.run() (includes loop overhead)
        self.run_wall_s = 0.0
        #: wall time inside callbacks only (run_wall_s minus this = engine cost)
        self.callback_wall_s = 0.0
        #: cost center -> [calls, wall seconds]
        self.centers: Dict[str, List[float]] = {}
        #: optional end-of-run queue snapshots (filled by the scenario)
        self.queue_stats: List[Dict[str, Any]] = []

    # ------------------------------------------------------------ loop hooks
    def begin_run(self) -> None:
        """Called as :meth:`Simulator.run` starts its loop."""
        self._run_started = perf_counter()

    def end_run(self) -> None:
        """Called as :meth:`Simulator.run` leaves its loop, however it exits."""
        self.run_wall_s += perf_counter() - self._run_started

    def call(self, fn: Callable[..., Any], args: Tuple) -> None:
        """Fire one popped event's callback, timed and attributed."""
        self.heap_pops += 1
        started = perf_counter()
        fn(*args)
        self.note_callback(fn, perf_counter() - started)

    def note_requeue(self, heap_len: int) -> None:
        """A popped entry lay past ``until_ns`` and went back on the wheel."""
        self.heap_pops += 1
        self.requeues += 1
        self.note_push(heap_len, 0)

    def note_folded(self, n: int) -> None:
        """``n`` completions happened without a callback of their own (the
        extra stages of a fused run, or NIC frames landed lazily); they
        count as executed events."""
        self.folded += n
        self.events_executed += n

    # ------------------------------------------------------------ heap hooks
    def note_push(self, heap_len: int, level: int = 0) -> None:
        self.heap_pushes += 1
        self.level_pushes[level] += 1
        if heap_len > self.peak_heap:
            self.peak_heap = heap_len

    def note_cascade(self, jumped: bool) -> None:
        """One wheel-window advance: an L1 slot cascade, or (``jumped``)
        a whole-window jump to the overflow heap's horizon."""
        if jumped:
            self.wheel_jumps += 1
        else:
            self.wheel_cascades += 1

    def note_callback(self, fn: Callable[..., Any], elapsed_s: float) -> None:
        """Attribute one executed event's wall time to its cost center."""
        self.events_executed += 1
        self.callback_wall_s += elapsed_s
        cell = self.centers.get(callback_owner(fn))
        if cell is None:
            self.centers[callback_owner(fn)] = [1, elapsed_s]
        else:
            cell[0] += 1
            cell[1] += elapsed_s

    # -------------------------------------------------------------- reporting
    @property
    def events_per_sec(self) -> float:
        return self.events_executed / self.run_wall_s if self.run_wall_s > 0 else 0.0

    @property
    def engine_overhead_s(self) -> float:
        """Loop time not inside any callback: heap ops, clock, dispatch."""
        return max(0.0, self.run_wall_s - self.callback_wall_s)

    def top_centers(self, k: int = 10) -> List[Dict[str, Any]]:
        """The k most expensive cost centers, by total wall seconds."""
        ranked = sorted(self.centers.items(), key=lambda kv: -kv[1][1])[:k]
        return [
            {
                "name": name,
                "calls": int(calls),
                "wall_s": wall_s,
                "mean_us": (wall_s / calls) * 1e6 if calls else 0.0,
                "share": wall_s / self.callback_wall_s if self.callback_wall_s else 0.0,
            }
            for name, (calls, wall_s) in ranked
        ]

    def summary(self, top_k: int = 10) -> Dict[str, Any]:
        """JSON-safe payload embedded in :class:`ScenarioResult.selfprof`."""
        return {
            "events_executed": self.events_executed,
            "folded": self.folded,
            "run_wall_s": self.run_wall_s,
            "events_per_sec": self.events_per_sec,
            "callback_wall_s": self.callback_wall_s,
            "engine_overhead_s": self.engine_overhead_s,
            "heap": {
                "pushes": self.heap_pushes,
                "pops": self.heap_pops,
                "requeues": self.requeues,
                "peak_size": self.peak_heap,
                "level_pushes": {
                    "active": self.level_pushes[0],
                    "l0": self.level_pushes[1],
                    "l1": self.level_pushes[2],
                    "overflow": self.level_pushes[3],
                },
                "cascades": self.wheel_cascades,
                "window_jumps": self.wheel_jumps,
            },
            "cost_centers": self.top_centers(top_k),
            "n_cost_centers": len(self.centers),
            "queues": list(self.queue_stats),
        }

    def report(self, top_k: int = 10) -> str:
        """Human-readable profile, the body of ``repro prof``."""
        lines = [
            f"events executed : {self.events_executed} "
            f"({self.folded} folded into fused runs)",
            f"wall time       : {self.run_wall_s * 1e3:.1f} ms "
            f"({self.events_per_sec / 1e3:.0f}k events/s)",
            f"engine overhead : {self.engine_overhead_s * 1e3:.1f} ms "
            f"(heap ops, dispatch; rest is callbacks)",
            f"heap            : {self.heap_pushes} pushes, {self.heap_pops} pops, "
            f"peak {self.peak_heap}",
            f"wheel           : pushes active/l0/l1/far "
            f"{self.level_pushes[0]}/{self.level_pushes[1]}/"
            f"{self.level_pushes[2]}/{self.level_pushes[3]}, "
            f"{self.wheel_cascades} cascades, {self.wheel_jumps} window jumps",
            "",
            f"top {min(top_k, len(self.centers))} cost centers "
            f"(of {len(self.centers)}):",
        ]
        for c in self.top_centers(top_k):
            lines.append(
                f"  {c['share'] * 100:5.1f}%  {c['wall_s'] * 1e3:8.2f} ms  "
                f"{c['calls']:>9} calls  {c['mean_us']:7.2f} us/call  {c['name']}"
            )
        if self.queue_stats:
            busiest = sorted(self.queue_stats, key=lambda q: -q.get("puts", 0))[:5]
            lines.append("")
            lines.append("busiest queues (puts/gets/drops):")
            for q in busiest:
                lines.append(
                    f"  {q['name']:<24} {q['puts']:>9} / {q['gets']:>9} / {q['drops']}"
                )
        return "\n".join(lines)


def resolve_selfprof(selfprof: Any) -> Optional[SelfProfiler]:
    """Normalize a ``selfprof=`` toggle to a profiler or ``None``.

    Mirrors :func:`repro.obs.config.resolve_obs`: ``None``/``False`` are
    inert, ``True`` builds a fresh profiler, and an existing
    :class:`SelfProfiler` is passed through (letting callers aggregate
    several runs into one profile).
    """
    if selfprof is None or selfprof is False:
        return None
    if selfprof is True:
        return SelfProfiler()
    if isinstance(selfprof, SelfProfiler):
        return selfprof
    raise TypeError(
        f"cannot resolve selfprof from {type(selfprof).__name__}: {selfprof!r}"
    )
