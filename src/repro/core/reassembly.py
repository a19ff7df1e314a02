"""Batch-based flow reassembling (paper §III-B, Fig. 6c).

Per flow, the reassembler keeps one FIFO buffer queue per branch and a
*merging counter*.  Micro-flow ``k`` lives on branch ``k % n`` and each
branch receives its micro-flows in increasing order (the branch path is
FIFO end to end), so the merge rule is exactly the paper's: consume from
the expected branch's queue while its head carries the counter's ID;
when the head shows a *later* ID, micro-flow ``k`` is finished — advance
the counter (paying the queue-switch cost) and move to the next branch.

Two liveness escapes handle micro-flows that never fully arrive (UDP
drops): a parked-skb threshold and a progress timeout, both of which
advance the counter and count a ``mflow_merge_skips``.

The module also provides :class:`PerPacketReorderStage`, the strawman
the paper argues against (reordering with a per-packet out-of-order
queue, like TCP's ofo handling) — used by the ablation tests to
quantify how much the batch-based design saves.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.splitting import GLOBAL_KEY
from repro.netstack.packet import FlowKey, Skb
from repro.netstack.stages import Stage, StageContext


class _FlowMergeState:
    __slots__ = (
        "queues",
        "counter",
        "max_wire_seq",
        "max_microflow",
        "inverted",
        "parked",
        "last_progress_ns",
        "proto",
        "key",
        "drained_current",
        "skips",
    )

    def __init__(self, n_branches: int, now: float = 0.0):
        self.queues: List[Deque[Skb]] = [deque() for _ in range(n_branches)]
        self.counter = 0
        self.max_wire_seq = -1
        self.max_microflow = -1
        self.inverted: set = set()
        self.parked = 0
        # progress clock starts at the flow's first arrival, not sim time
        # zero — a flow whose first packet shows up late must not trip the
        # merge progress timeout immediately
        self.last_progress_ns = now
        self.proto = ""
        self.key = None
        self.drained_current = 0
        self.skips = 0  # this flow's share of merge_skips (health signal)


class ReassemblyStage(Stage):
    """MFLOW's batch-based merge point."""

    name = "mflow_merge"
    droppable = False
    cost_base = "mflow_merge_per_skb_ns"

    def __init__(
        self,
        n_branches: int,
        stall_skbs: int = 2048,
        timeout_ns: float = 200_000.0,
        per_flow: bool = True,
        splitter=None,
    ):
        if n_branches < 1:
            raise ValueError(f"need at least one branch, got {n_branches}")
        self.n_branches = n_branches
        self.stall_skbs = stall_skbs
        self.timeout_ns = timeout_ns
        self.per_flow = per_flow
        #: the matching MicroflowSplitStage: lets the merge know each
        #: micro-flow's exact size, so the counter advances the moment a
        #: micro-flow has fully arrived (no boundary stalls in the
        #: lossless case)
        self.splitter = splitter
        self._flows: Dict[FlowKey, _FlowMergeState] = {}
        self.ooo_arrivals = 0      # skbs arriving behind an already-seen packet
        self.ooo_packets = 0       # same, in wire packets
        self.ooo_microflows = 0    # micro-flows whose packets interleave with a
                                   # later micro-flow (batch-level reorder events)
        self.merge_skips = 0       # counter advances forced by loss/stall
        self._timer_armed: Dict[FlowKey, bool] = {}

    # ------------------------------------------------------------- stage API
    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        st = self._state(skb.flow if self.per_flow else GLOBAL_KEY, ctx.sim.now)
        packets = skb.packets
        # Fig. 7 metric: does this skb arrive at the merge point after a
        # packet that followed it on the wire already did?
        if packets[0].wire_seq < st.max_wire_seq:
            segs = len(packets)
            self.ooo_arrivals += 1
            self.ooo_packets += segs
            counters = ctx.counters
            counters["mflow_ooo_arrivals"] += 1
            counters["mflow_ooo_packets"] += segs
        last = packets[-1].wire_seq
        if last > st.max_wire_seq:
            st.max_wire_seq = last
        # Batch-level reorder events (the Fig. 7 headline metric): a
        # micro-flow counts once if any of its skbs arrives after a later
        # micro-flow has already been seen — each such event is one
        # buffer-queue switch the batch-based reassembler must absorb.
        mf = skb.microflow_id if skb.microflow_id is not None else 0
        if mf > st.max_microflow:
            st.max_microflow = mf
        elif mf < st.max_microflow and mf not in st.inverted:
            st.inverted.add(mf)
            self.ooo_microflows += 1
            ctx.counters["mflow_ooo_microflows"] += 1
        branch = skb.branch if skb.branch is not None else 0
        st.queues[branch].append(skb)
        st.parked += 1
        out = self._drain(st, ctx)
        self._arm_timer(skb.flow if self.per_flow else GLOBAL_KEY, st, ctx)
        return out

    # ------------------------------------------------------------- internals
    def _state(self, flow: FlowKey, now: float = 0.0) -> _FlowMergeState:
        st = self._flows.get(flow)
        if st is None:
            st = self._flows[flow] = _FlowMergeState(self.n_branches, now=now)
            st.proto = flow.proto
            st.key = flow
        return st

    def iter_flows(self):
        """(flow, merge-state) pairs — read-only health introspection."""
        return self._flows.items()

    def retire_flow(self, flow: FlowKey, pipeline=None) -> None:
        """Drop per-flow merge state (no-op in aggregate mode).

        When a ``pipeline`` is given, skbs still parked in the flow's
        branch queues are returned to the skb pool — retiring a flow (or
        the container namespace it lives in) mid-run must not strand
        pooled skbs.
        """
        if not self.per_flow:
            return
        st = self._flows.pop(flow, None)
        self._timer_armed.pop(flow, None)
        if st is not None and pipeline is not None:
            for q in st.queues:
                while q:
                    pipeline.recycle_skb(q.popleft())
            st.parked = 0

    def detach_flow(self, flow: FlowKey) -> Optional[_FlowMergeState]:
        """Remove and return ``flow``'s live merge state (parked skbs ride
        inside) — the migration freeze path.  The armed progress timer
        finds the state gone and disarms itself."""
        self._timer_armed.pop(flow, None)
        return self._flows.pop(flow, None)

    def attach_flow(self, flow: FlowKey, state: _FlowMergeState) -> None:
        """Reinstall a detached merge state (the migration restore path)."""
        self._flows[flow] = state

    def _advance(self, st: _FlowMergeState) -> None:
        st.inverted.discard(st.counter)
        if self.splitter is not None:
            self.splitter.forget_microflow(st.key, st.counter)
        st.counter += 1
        st.drained_current = 0

    def _current_complete(self, st: _FlowMergeState) -> bool:
        """True when micro-flow ``st.counter`` has been fully merged."""
        if self.splitter is None:
            return False
        if not self.splitter.microflow_closed(st.key, st.counter):
            return False
        return st.drained_current >= self.splitter.microflow_size(st.key, st.counter)

    def _drain(self, st: _FlowMergeState, ctx: StageContext) -> List[Skb]:
        out: List[Skb] = []
        switches = 0
        obs = ctx.pipeline.obs
        while True:
            q = st.queues[st.counter % self.n_branches]
            if q:
                head_id = q[0].microflow_id or 0
                if head_id == st.counter:
                    skb = q.popleft()
                    st.parked -= 1
                    st.drained_current += len(skb.packets)
                    out.append(skb)
                    continue
                if head_id > st.counter:
                    self._advance(st)  # micro-flow fully consumed (or lost)
                    switches += 1
                    continue
                # head_id < counter can only happen on merge skips: the
                # stragglers are late — release them immediately (they are
                # already out of order; stalling further helps nothing).
                out.append(q.popleft())
                st.parked -= 1
                ctx.telemetry.count("mflow_late_stragglers")
                continue
            # Expected queue empty.  Exact completion: the splitter told us
            # this micro-flow's final size — if every segment has been
            # merged, advance immediately (no boundary stall at all in the
            # lossless case).
            if self._current_complete(st):
                self._advance(st)
                switches += 1
                continue
            # Loss fast path (UDP only — a late TCP tail must never enter
            # the stateful layer out of order): if the *next* micro-flow is
            # already waiting on another branch, the expected one has lost
            # packets; advance rather than hold everything back.
            if st.parked > 0 and st.proto == "udp":
                nxt = st.queues[(st.counter + 1) % self.n_branches]
                if nxt and (nxt[0].microflow_id or 0) == st.counter + 1:
                    if obs is not None:
                        obs.instant(
                            "mflow_merge_skip", core=ctx.core.id,
                            reason="loss_fastpath", counter=st.counter,
                            parked=st.parked,
                        )
                    self._advance(st)
                    switches += 1
                    self.merge_skips += 1
                    st.skips += 1
                    ctx.telemetry.count("mflow_merge_skips")
                    continue
            # otherwise wait, unless clearly stalled by loss
            if st.parked >= self.stall_skbs:
                if obs is not None:
                    obs.instant(
                        "mflow_merge_skip", core=ctx.core.id, reason="stall",
                        counter=st.counter, parked=st.parked,
                    )
                self._advance(st)
                switches += 1
                self.merge_skips += 1
                st.skips += 1
                ctx.telemetry.count("mflow_merge_skips")
                continue
            break
        if switches:
            ctx.core.submit_call(
                "mflow_merge_switch",
                ctx.costs.mflow_merge_switch_ns * switches,
                _noop,
            )
        if out:
            st.last_progress_ns = ctx.sim.now
        return out

    def _arm_timer(self, flow: FlowKey, st: _FlowMergeState, ctx: StageContext) -> None:
        """Progress timeout: if parked skbs sit with no merge progress for
        ``timeout_ns``, assume the expected micro-flow was lost and advance."""
        if self._timer_armed.get(flow) or st.parked == 0:
            return
        self._timer_armed[flow] = True
        # the timer callback is a bound method (not a closure) so a live
        # event heap stays picklable for checkpoints
        ctx.sim.call_in(
            self.timeout_ns,
            self._progress_check, flow, ctx.pipeline, ctx.node, ctx.core,
        )

    def _progress_check(self, flow: FlowKey, pipeline, node, core) -> None:
        sim = pipeline.sim
        state = self._flows.get(flow)
        if state is None or state.parked == 0:
            self._timer_armed[flow] = False
            return
        idle = sim.now - state.last_progress_ns
        if idle >= self.timeout_ns:
            if pipeline.obs is not None:
                pipeline.obs.instant(
                    "mflow_merge_skip", core=core.id, reason="timeout",
                    counter=state.counter, parked=state.parked,
                )
            self._advance(state)
            self.merge_skips += 1
            state.skips += 1
            state.last_progress_ns = sim.now
            fake_ctx = StageContext(pipeline, node, core)
            for skb in self._drain(state, fake_ctx):
                pipeline.inject(node.next, skb, core)
        sim.call_in(self.timeout_ns, self._progress_check, flow, pipeline, node, core)

    def parked_total(self) -> int:
        return sum(st.parked for st in self._flows.values())


class PerPacketReorderStage(Stage):
    """Ablation strawman: restore *wire order* packet by packet.

    Models reusing the kernel's per-packet out-of-order queue instead of
    MFLOW's batch-based design: every out-of-order arrival pays
    ``reorder_per_pkt_ns`` and packets are released strictly in wire-
    sequence order (with the same loss-recovery escapes).
    """

    name = "pkt_reorder"
    droppable = False
    cost_base = "mflow_merge_per_skb_ns"

    def __init__(self, stall_skbs: int = 2048):
        self.stall_skbs = stall_skbs
        self._expected: Dict[FlowKey, int] = {}
        self._held: Dict[FlowKey, Dict[int, Skb]] = {}
        self.ooo_arrivals = 0

    def process(self, skb: Skb, ctx: StageContext) -> List[Skb]:
        flow = skb.flow
        expected = self._expected.get(flow, 0)
        held = self._held.setdefault(flow, {})
        first = skb.flow_serial if skb.flow_serial is not None else skb.head.wire_seq
        out: List[Skb] = []
        if first < expected:
            # straggler after a forced skip: release immediately
            return [skb]
        held[first] = skb
        if first != expected:
            self.ooo_arrivals += 1
            ctx.core.submit_call(
                "pkt_reorder_ooo", ctx.costs.reorder_per_pkt_ns * skb.segs, _noop
            )
        while expected in held:
            nxt = held.pop(expected)
            expected = expected + nxt.segs
            out.append(nxt)
        if len(held) >= self.stall_skbs:
            # loss recovery: jump to the oldest held packet
            expected = min(held)
        self._expected[flow] = expected
        return out


def _noop() -> None:
    return None
