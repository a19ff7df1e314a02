"""Physical NIC model: RX descriptor rings, IRQs, and NAPI driver polls.

Mirrors the mlx5 structure the paper instruments: incoming frames DMA
into a fixed-size ring; the first frame (with interrupts enabled) raises
a hardware IRQ on the queue's affine core; the IRQ masks itself and arms
NAPI; the NAPI poll softirq then drains up to ``napi_budget``
descriptors per invocation, re-polling while the ring is backlogged and
re-enabling the IRQ once drained.

The NIC is multi-queue: with several ``rss_cores`` configured it hashes
flows across per-core RX queues exactly like hardware RSS (inter-flow
parallelism only — every packet of one flow always lands on the same
queue/core, which is the limitation MFLOW attacks).

Each polled descriptor becomes a 1-segment :class:`Skb` injected into
the receive pipeline — whose first stage is ``skb_alloc`` (or MFLOW's
IRQ-split dispatch; the poll loop is a plain pipeline entry because
splitting "relies little on a specific network device driver", §III-A).

Lazy arrivals: only a frame that raises the IRQ changes anything at its
arrival time.  So :meth:`Wire.send` stamps each frame with its arrival
time and wire order, reserves the wheel seq its arrival entry would have
had, and appends it to its RX queue's ``pending`` FIFO.  A queue files
an entry (the *wake*) for its head frame only while its IRQ is armed;
every other frame is landed, in order, by the next reader of the ring
that runs after it (the NAPI poll, :meth:`Nic.ring_drops`, a re-placed
flow's hand-back), or when :meth:`Simulator.run
<repro.sim.engine.Simulator.run>` stops.  Each
landed frame still counts as one executed event, so the timeline and
every count match one entry per frame.  docs/ENGINE.md, "Lazy NIC
arrivals", gives the invariants and the fallbacks.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.cpu.core import Core
from repro.cpu.softirq import Softirq
from repro.metrics.telemetry import Telemetry
from repro.netstack.costs import CostModel
from repro.netstack.packet import MAX_SEGMENT_PAYLOAD, MTU, VXLAN_OVERHEAD, FlowKey, Packet
from repro.netstack.pipeline import Pipeline
from repro.sim.engine import Simulator
from repro.sim.queues import RingBuffer
from repro.steering.base import stable_flow_hash

#: per-frame inner headers on the wire (see :attr:`Packet.wire_bytes`)
_HEADERS = MTU - MAX_SEGMENT_PAYLOAD


class _RxQueue:
    """One RX descriptor ring + IRQ + NAPI context, affine to one core."""

    def __init__(self, nic: "Nic", index: int, core: Core):
        self.nic = nic
        self.core = core
        self.ring: RingBuffer[Packet] = RingBuffer(
            f"{nic.name}.rxring{index}", nic.costs.rx_ring_size
        )
        self.irq_enabled = True
        self.napi = Softirq(f"{nic.name}.napi{index}", self._poll)
        # hot-path work-item tags, built once instead of per submission
        self._irq_tag = f"irq:{nic.name}"
        self._poll_tag = f"driver_poll:{nic.name}"
        #: frames on the wire to this ring, not landed yet, in arrival
        #: order: ``(arrival, seq, pkt)`` with the wheel seq each reserved
        self.pending: Deque[Tuple[float, int, Packet]] = deque()
        #: whether the head pending frame's own entry is on the wheel;
        #: invariant: ``irq_enabled and pending`` implies it is
        self._woken = False

    def receive(self, pkt: Packet) -> None:
        """Land one frame: DMA into the ring (or tail-drop); the first
        frame into an idle ring raises the IRQ."""
        nic = self.nic
        obs = nic.obs
        counters = nic.telemetry.counters
        # RingBuffer.push, in place
        ring = self.ring
        items = ring._items
        if len(items) >= ring.size:
            ring.drops += 1
            counters["nic_ring_drops"] += 1
            if obs is not None:
                obs.instant("nic_ring_drop", core=self.core.id, wire_seq=pkt.wire_seq)
            return
        items.append(pkt)
        ring.total_enqueued += 1
        counters["nic_rx_packets"] += 1
        if self.irq_enabled:
            self.irq_enabled = False
            counters["nic_irqs"] += 1
            faults = nic.faults
            delay = faults.irq_fire_delay() if faults is not None else 0.0
            if obs is not None:
                obs.instant(
                    "irq_raise",
                    core=self.core.id,
                    ring_depth=len(items),
                    delay_ns=delay,
                )
            if delay > 0.0:
                # fault injection: the interrupt is held back (moderation
                # gone wrong / a hypervisor absorbing the vector)
                nic.sim.call_in(delay, self._fire_irq)
            else:
                self._fire_irq()

    def _fire_irq(self) -> None:
        # The IRQ top half runs on the affine core and raises NAPI.
        self.core.submit_call(
            self._irq_tag,
            self.nic.costs.irq_cost_ns,
            self.napi.raise_on,
            self.core,
        )

    # ------------------------------------------------------- lazy arrivals
    def _settle(self) -> None:
        """Land, in order, every pending frame that has arrived by now,
        each as of its arrival time.

        None of them raises the IRQ: while it is armed, the head frame's
        own entry is on the wheel, so no frame waits here past the time
        the IRQ would see it."""
        pending = self.pending
        sim = self.nic.sim
        now = sim._now
        landed = 0
        while pending:
            t, seq, pkt = pending[0]
            if t > now or (t == now and seq >= sim._seq_now):
                break
            pending.popleft()
            sim._now = t
            self.receive(pkt)
            landed += 1
        if landed:
            sim._now = now
            # each landed frame is the arrival event it stands for
            sim.events_executed += landed

    def _head_arrived(self) -> bool:
        """Whether the head pending frame has arrived by now."""
        t, seq, _ = self.pending[0]
        sim = self.nic.sim
        return t < sim._now or (t == sim._now and seq < sim._seq_now)

    def _wake(self) -> None:
        """File the head pending frame's own arrival entry, with its
        reserved seq: the IRQ is armed, so it must land on time."""
        t, seq, pkt = self.pending[0]
        self._woken = True
        self.nic.sim._file((t, seq, self.nic._arrive, (pkt,)))

    def _rearm(self) -> None:
        """Arm the IRQ (NAPI drained the ring); the head pending frame
        would raise it, so its entry goes on the wheel."""
        self.irq_enabled = True
        if self.pending and not self._woken:
            self._wake()

    def forget_flow(self, flow: FlowKey) -> None:
        """``flow`` is being re-placed (its memo entry was dropped): land
        what has arrived on this queue, then give each of its frames still
        in flight its own arrival entry, so each resolves its RX queue
        when it arrives."""
        pending = self.pending
        if not pending:
            return
        self._settle()
        if not pending:
            return
        sim = self.nic.sim
        arrive = self.nic._arrive
        keep: Deque[Tuple[float, int, Packet]] = deque()
        for i, frame in enumerate(pending):
            pkt = frame[2]
            if pkt.flow != flow:
                keep.append(frame)
            elif i == 0 and self._woken:
                self._woken = False  # its entry is on the wheel already
            else:
                sim._file((frame[0], frame[1], arrive, (pkt,)))
        self.pending = keep
        if self.irq_enabled:
            self._rearm()

    # ---------------------------------------------------------------- NAPI
    def _poll(self, core: Core) -> bool:
        if self.pending:
            self._settle()
        batch = self.ring.pop_up_to(self.nic.costs.napi_budget)
        if batch:
            cost = self.nic.costs.driver_poll_per_pkt_ns * len(batch)
            core.submit_call(self._poll_tag, cost, self._emit, batch, core)
        if not self.ring.empty:
            return True  # NAPI re-polls while backlogged
        self._rearm()
        return False

    def _emit(self, batch: List[Packet], core: Core) -> None:
        # one poll work item drains the whole descriptor batch into the
        # datapath (pooled skbs, per-batch lookups hoisted by the pipeline)
        pipeline = self.nic.pipeline
        pipeline.inject_batch(pipeline.head, batch, core)
        # Frames may have landed while the poll work executed; NAPI keeps
        # polling rather than waiting for a fresh IRQ.  (Frames that have
        # arrived land when that poll settles: nothing pops the ring before.)
        if not self.ring.empty or (self.pending and self._head_arrived()):
            self.napi.raise_on(core)
        else:
            self._rearm()


class Nic:
    """The receive-side physical NIC of one host (multi-queue capable)."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        irq_core: Core,
        pipeline: Pipeline,
        telemetry: Telemetry,
        name: str = "pnic",
        rss_cores: Optional[List[Core]] = None,
    ):
        self.sim = sim
        self.costs = costs
        self.pipeline = pipeline
        self.telemetry = telemetry
        self.name = name
        #: optional FaultInjectors (ring shrink / IRQ delay hooks)
        self.faults = None
        #: optional FlightRecorder — None (the default) disables all probes
        self.obs = None
        cores = rss_cores if rss_cores else [irq_core]
        self._queues = [_RxQueue(self, i, core) for i, core in enumerate(cores)]
        self._queue_by_core = {q.core.id: q for q in self._queues}
        #: flow -> RX queue, memoised beside the steering policy's route
        #: cache so a policy that re-places a flow (``_forget_flow``)
        #: drops it with the routes
        self._rx_queues = pipeline.policy.rx_queues
        self._wire_seq = 0
        sim.settlers.append(self.settle)

    @property
    def n_queues(self) -> int:
        return len(self._queues)

    def queue_for(self, pkt: Packet) -> _RxQueue:
        """Resolve ``pkt``'s RX queue (uncached; :meth:`receive` memoises
        the answer per flow)."""
        if len(self._queues) == 1:
            return self._queues[0]
        # Align RSS with the steering policy's per-flow placement when it
        # provides one (tuned IRQ affinity); otherwise hash like hardware.
        policy = self.pipeline.policy
        core_idx = policy.nic_queue_core_idx(pkt.flow)
        if core_idx is not None:
            queue = self._queue_by_core.get(core_idx)
            if queue is not None:
                return queue
        return self._queues[stable_flow_hash(pkt.flow) % len(self._queues)]

    def receive(self, pkt: Packet) -> None:
        """A frame arrives from the wire now (DMA into its queue's ring)."""
        pkt.arrival_ts = self.sim._now
        pkt.wire_seq = self._wire_seq
        self._wire_seq += 1
        self._arrive(pkt)

    def _arrive(self, pkt: Packet) -> None:
        """A stamped frame's own arrival entry fires: resolve its queue,
        land what arrived there before it, then the frame itself."""
        try:
            queue = self._rx_queues[pkt.flow]
        except KeyError:
            queue = self._rx_queues[pkt.flow] = self.queue_for(pkt)
        pending = queue.pending
        if pending:
            if pending[0][2] is pkt:  # the wake: nothing on this ring precedes it
                pending.popleft()
                queue._woken = False
            else:  # an unplaced or re-placed flow's frame
                queue._settle()
        # if the IRQ is armed, the ring is empty: this push succeeds and
        # disarms it, so no later frame needs a wake
        queue.receive(pkt)

    def settle(self) -> None:
        """Land every frame that has arrived by now (see :attr:`Simulator.settlers
        <repro.sim.engine.Simulator.settlers>`)."""
        for q in self._queues:
            if q.pending:
                q._settle()

    def ring_drops(self) -> int:
        self.settle()
        return sum(q.ring.drops for q in self._queues)


class Wire:
    """A full-duplex point-to-point link feeding a NIC.

    Models serialization at line rate plus fixed propagation delay.  The
    100 Gbps default never binds in the paper's experiments (the CPU
    does), but keeping it honest lets the link become the bottleneck in
    ablation configurations.
    """

    def __init__(self, sim: Simulator, costs: CostModel, dst: Nic, faults=None):
        self.sim = sim
        self.costs = costs
        self.dst = dst
        #: optional FaultInjectors (loss/dup/corrupt/reorder/jitter/clamp)
        self.faults = faults
        self._next_free_ns = 0.0
        self.bytes_carried = 0
        #: frames handed to the wire by senders, *before* fault injection —
        #: the conservation watchdog's notion of "sent"
        self.packets_carried = 0

    def sent_packet_count(self) -> int:
        """Picklable accessor for the conservation watchdog (a bound
        method checkpoints; a lambda would not)."""
        return self.packets_carried

    def send(self, pkt: Packet) -> None:
        """Transmit one frame towards the destination NIC."""
        self.packets_carried += 1
        faults = self.faults
        if faults is not None and faults.wire_active and faults.in_window():
            fates = faults.wire_frame_fate(pkt)
            if not fates:
                # lost/corrupted in flight: the sender still serialized the
                # frame, so it occupies the link exactly as a delivery would
                # (surviving frames keep their fault-free schedule)
                self._occupy(pkt)
                return
            base = self._occupy(fates[0][0])
            for frame, extra_ns in fates:
                # duplicates ride the same serialization slot: an in-network
                # copy does not consume sender line time twice
                self.sim.call_at(base + extra_ns, self.dst.receive, frame)
            return
        # arrival > now: CostModel.validate() rejects a negative wire delay
        arrival = self._occupy(pkt)
        nic = self.dst
        sim = self.sim
        if nic.pipeline.reference_path:
            # one entry per frame (see docs/ENGINE.md, "Lazy NIC arrivals")
            sim._sched(arrival, nic.receive, (pkt,))
            return
        # one wire per NIC: arrival order is send order
        pkt.arrival_ts = arrival
        pkt.wire_seq = nic._wire_seq
        nic._wire_seq += 1
        try:
            queue = nic._rx_queues[pkt.flow]
        except KeyError:
            # an unplaced flow: the frame resolves its queue when it arrives
            sim._sched(arrival, nic._arrive, (pkt,))
            return
        if queue.irq_enabled and not queue._woken:
            # the ring is idle: the frame raises the IRQ, so it is the wake
            queue.pending.append((arrival, sim._seq, pkt))  # the seq _sched takes
            queue._woken = True
            sim._sched(arrival, nic._arrive, (pkt,))
        else:
            seq = sim._seq  # reserved: the seq its own entry would take
            sim._seq = seq + 1
            queue.pending.append((arrival, seq, pkt))

    def _occupy(self, pkt: Packet) -> float:
        """Serialize one frame onto the link; returns its base arrival time.

        The one place a frame's link occupancy is computed, for delivered,
        lost and duplicated frames alike (under a fault plan's bandwidth
        clamp when one is in its window)."""
        # Packet.wire_bytes, in place
        nbytes = pkt.payload + _HEADERS + (VXLAN_OVERHEAD if pkt.encap else 0)
        gbps = self.costs.link_gbps
        if self.faults is not None:
            gbps = self.faults.link_gbps(gbps)
        start = self.sim._now
        if self._next_free_ns > start:
            start = self._next_free_ns
        free = self._next_free_ns = start + nbytes * 8.0 / gbps
        self.bytes_carried += nbytes
        return free + self.costs.wire_delay_ns
