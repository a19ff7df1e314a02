"""Per-packet critical-path latency decomposition: where an skb's time goes,
stage by stage, from DMA arrival to user space.

The :class:`JourneyTracker` rides the pipeline's obs hooks and records,
for a sample of skbs, every hop through the datapath as an explicit
``(enqueue, execute-start, execute-end)`` triple.  From those triples
:func:`decompose` splits each delivered skb's end-to-end latency —
NIC DMA arrival to user-space copy — into a telescoping sum:

``e2e = ring_wait + Σ_per-hop (queueing + service + hold)``

* **ring wait** — DMA arrival to first pipeline enqueue (ring residency,
  IRQ top half, NAPI poll batching);
* **queueing** — enqueue on the target core's run queue until the work
  item starts executing (the softirq-serialization cost the paper
  attacks);
* **service** — the work item's execution window (stage cost × core
  speed/jitter);
* **hold** — the gap between a stage finishing an skb and the *next*
  stage's enqueue.  Zero for ordinary stages (forwarding is immediate);
  positive where the datapath parks skbs: GRO holding for a merge
  window, the MFLOW reassembler waiting for an out-of-order micro-flow
  (**merge wait**), TCP's out-of-order queue.

Because each component is a difference of adjacent timestamps on one
skb's journey, the per-stage components sum to the measured end-to-end
latency *exactly* — the property the acceptance test pins to within 1%.

Journeys are keyed by a monotonically assigned ``skb.trace_id`` (never
``id(skb)`` — CPython reuses object ids after GC, which silently merges
distinct journeys).
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: stage names that terminate a journey at user-space delivery
DELIVERY_STAGE_NAMES = frozenset({"tcp_deliver", "udp_deliver", "sink"})
#: journeys one tracker samples (bounds its memory)
MAX_JOURNEYS = 4000


class Hop:
    """One stage visit: queue on a core, execute, forward."""

    __slots__ = ("stage", "core", "enqueue_ns", "start_ns", "end_ns")

    def __init__(self, stage: str, core: int, enqueue_ns: float):
        self.stage = stage
        self.core = core
        self.enqueue_ns = enqueue_ns
        self.start_ns: Optional[float] = None
        self.end_ns: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Hop {self.stage}@{self.core} q={self.enqueue_ns:.0f}>"


class JourneyTracker:
    """Samples skb journeys through the pipeline's obs hooks.

    At most :data:`MAX_JOURNEYS` are sampled, each from the pipeline
    head: an skb is sampled only when every frame it wraps arrived at or
    after ``start_ns`` (the scenario sets it to its warmup horizon, to
    sample steady state only), so an skb already in flight at the window
    start is never adopted mid-path with its missing hops booked as ring
    wait.  Trace ids are assigned monotonically; ids
    assigned by another tracker are adopted and skipped over, so two
    trackers never collide on a key.
    """

    def __init__(self, start_ns: float = 0.0):
        self.start_ns = start_ns
        self._next_id = 0
        self.journeys: Dict[int, List[Hop]] = {}
        self.arrival_ns: Dict[int, float] = {}
        self.dropped: set = set()

    # ------------------------------------------------------------- pipeline
    def on_enqueue(self, skb, stage_name: str, core_id: int, now: float) -> None:
        """An skb was handed to ``stage_name``'s run queue on ``core_id``."""
        tid = skb.trace_id
        if tid is None:
            if now < self.start_ns or len(self.journeys) >= MAX_JOURNEYS:
                return
            # DMA arrival of the oldest wire frame wrapped by this skb
            arrival = min(p.arrival_ts for p in skb.packets)
            if arrival < self.start_ns:
                return
            tid = self._next_id
            self._next_id += 1
            skb.trace_id = tid
            self.journeys[tid] = []
            self.arrival_ns[tid] = arrival
        else:
            if tid not in self.journeys:
                # id assigned by another tracker: adopt it and never reuse it
                if tid >= self._next_id:
                    self._next_id = tid + 1
                self.journeys[tid] = []
                self.arrival_ns[tid] = min(p.arrival_ts for p in skb.packets)
        self.journeys[tid].append(Hop(stage_name, core_id, now))

    def on_execute(self, skb, stage_name: str, start_ns: float, end_ns: float) -> None:
        """The hop's work item just finished executing (called from the
        stage-run callback, with the span the core measured)."""
        tid = skb.trace_id
        if tid is None:
            return
        hops = self.journeys.get(tid)
        if not hops:
            return
        for hop in reversed(hops):
            if hop.stage == stage_name and hop.end_ns is None:
                hop.start_ns = start_ns
                hop.end_ns = end_ns
                return

    def on_drop(self, skb, stage_name: str) -> None:
        """The skb tail-dropped at ``stage_name``'s backlog limit."""
        tid = skb.trace_id
        if tid is not None:
            self.dropped.add(tid)

    # -------------------------------------------------------------- results
    @property
    def n_journeys(self) -> int:
        return len(self.journeys)

    def complete_journeys(self, delivery_stages: frozenset = DELIVERY_STAGE_NAMES):
        """(trace_id, hops) for journeys that reached user-space delivery."""
        for tid, hops in self.journeys.items():
            if tid in self.dropped or not hops:
                continue
            last = hops[-1]
            if last.stage in delivery_stages and last.end_ns is not None:
                if all(h.end_ns is not None for h in hops):
                    yield tid, hops


class _StageAgg:
    __slots__ = ("stage", "queue_ns", "service_ns", "hold_ns", "visits")

    def __init__(self, stage: str):
        self.stage = stage
        self.queue_ns = 0.0
        self.service_ns = 0.0
        self.hold_ns = 0.0
        self.visits = 0


class Decomposition:
    """Aggregated per-stage queueing/service/hold over sampled journeys."""

    def __init__(self, delivery_stages: frozenset = DELIVERY_STAGE_NAMES):
        self.delivery_stages = delivery_stages
        self.stages: Dict[str, _StageAgg] = {}
        self.stage_order: List[str] = []
        self.n_journeys = 0
        self.ring_wait_ns = 0.0
        self.e2e_ns = 0.0

    # ------------------------------------------------------------ ingestion
    def add_journey(self, hops: List[Hop], arrival_ns: float) -> None:
        self.n_journeys += 1
        self.ring_wait_ns += hops[0].enqueue_ns - arrival_ns
        self.e2e_ns += hops[-1].end_ns - arrival_ns
        for i, hop in enumerate(hops):
            agg = self.stages.get(hop.stage)
            if agg is None:
                agg = self.stages[hop.stage] = _StageAgg(hop.stage)
                self.stage_order.append(hop.stage)
            agg.visits += 1
            agg.queue_ns += hop.start_ns - hop.enqueue_ns
            agg.service_ns += hop.end_ns - hop.start_ns
            if i + 1 < len(hops):
                # time parked inside this stage before the next stage saw
                # the skb (GRO hold, reassembly merge wait, TCP ofo queue)
                agg.hold_ns += hops[i + 1].enqueue_ns - hop.end_ns

    # -------------------------------------------------------------- queries
    def _mean(self, total_ns: float) -> float:
        return total_ns / self.n_journeys if self.n_journeys else 0.0

    @property
    def e2e_mean_us(self) -> float:
        """Mean end-to-end latency (DMA arrival → delivery) in µs."""
        return self._mean(self.e2e_ns) / 1e3

    @property
    def components_sum_us(self) -> float:
        """Sum of every decomposed component, in µs (== e2e by identity)."""
        total = self.ring_wait_ns + sum(
            a.queue_ns + a.service_ns + a.hold_ns for a in self.stages.values()
        )
        return self._mean(total) / 1e3

    def stage_rows(self) -> List[dict]:
        rows = []
        for name in self.stage_order:
            a = self.stages[name]
            rows.append(
                {
                    "stage": name,
                    "queue_us": self._mean(a.queue_ns) / 1e3,
                    "service_us": self._mean(a.service_ns) / 1e3,
                    "hold_us": self._mean(a.hold_ns) / 1e3,
                    "visits": a.visits,
                }
            )
        return rows

    def to_dict(self) -> dict:
        """JSON-safe form for run records / artifacts."""
        return {
            "n_journeys": self.n_journeys,
            "ring_wait_us": self._mean(self.ring_wait_ns) / 1e3,
            "e2e_mean_us": self.e2e_mean_us,
            "components_sum_us": self.components_sum_us,
            "stages": self.stage_rows(),
        }

    def report(self) -> str:
        """Human-readable per-stage breakdown table."""
        if not self.n_journeys:
            return "(no complete journeys sampled)"
        rows = self.stage_rows()
        width = max(len("nic ring/irq"), *(len(r["stage"]) for r in rows))
        lines = [
            f"latency decomposition over {self.n_journeys} delivered skbs "
            f"(mean e2e {self.e2e_mean_us:.2f} us):",
            f"{'stage':<{width}}  {'queue us':>9}  {'service us':>10}  "
            f"{'hold us':>8}  {'total us':>8}  {'visits':>7}",
        ]
        ring = self._mean(self.ring_wait_ns) / 1e3
        lines.append(
            f"{'nic ring/irq':<{width}}  {'':>9}  {'':>10}  {ring:8.2f}  {ring:8.2f}  {'':>7}"
        )
        for r in rows:
            total = r["queue_us"] + r["service_us"] + r["hold_us"]
            lines.append(
                f"{r['stage']:<{width}}  {r['queue_us']:9.2f}  {r['service_us']:10.2f}  "
                f"{r['hold_us']:8.2f}  {total:8.2f}  {r['visits']:7d}"
            )
        lines.append(
            f"{'sum':<{width}}  {'':>9}  {'':>10}  {'':>8}  {self.components_sum_us:8.2f}"
        )
        return "\n".join(lines)


def decompose(
    tracker: JourneyTracker, delivery_stages: frozenset = DELIVERY_STAGE_NAMES
) -> Decomposition:
    """Aggregate a tracker's complete journeys into a decomposition."""
    out = Decomposition(delivery_stages)
    for tid, hops in tracker.complete_journeys(delivery_stages):
        out.add_journey(hops, tracker.arrival_ns[tid])
    return out
