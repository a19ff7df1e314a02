"""Testbed assembly: one detailed receiver host plus client machines.

Mirrors the paper's two-server setup: the receive side (where all the
contention the paper studies happens) is simulated in full stage-level
detail; each client machine contributes CPU-limited senders on its own
cores, connected by a 100 Gbps wire.

Typical use::

    sc = Scenario(DatapathKind.OVERLAY, "tcp",
                  lambda cpus: VanillaPolicy(cpus, app_core=0,
                                             role_cores={"first": 1}))
    sc.add_tcp_sender(message_size=64 * 1024)
    res = sc.run()
    print(res.throughput_gbps)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cpu.topology import CpuSet
from repro.faults.injectors import FaultInjectors
from repro.faults.watchdog import ConservationWatchdog
from repro.metrics.summary import LatencySummary, summarize_latencies
from repro.metrics.telemetry import Telemetry
from repro.migration.controller import MigrationController
from repro.netstack.costs import DEFAULT_COSTS, CostModel
from repro.obs import FlightRecorder, IntervalMetrics, ObsConfig, decompose
from repro.obs.hist import StageHistograms
from repro.netstack.nic import Nic, Wire
from repro.netstack.packet import FlowKey
from repro.netstack.pipeline import Pipeline, link_nodes
from repro.netstack.protocol.tcp import TcpDeliverStage, TcpReceiverStage, TcpSender
from repro.netstack.protocol.udp import UdpDeliverStage, UdpSender
from repro.overlay.balancer import ConsistentHashBalancerStage, HashRing
from repro.overlay.namespace import OverlayNetwork
from repro.overlay.topology import DatapathKind, build_datapath_stages
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MSEC
from repro.steering.base import SteeringPolicy
from repro.workloads.options import RunOptions


def make_flow(proto: str, client_id: int = 0, dport: int = 5001) -> FlowKey:
    """A canonical flow from client machine ``client_id`` to the server."""
    return FlowKey(src=100 + client_id, dst=1, proto=proto, sport=40000 + client_id, dport=dport)


@dataclass
class ScenarioResult:
    """Everything the paper's figures read off one run."""

    throughput_gbps: float
    messages_delivered: int
    latency: LatencySummary
    cpu_utilization: List[float]
    cpu_breakdown: List[Dict[str, float]]
    counters: Dict[str, int] = field(default_factory=dict)
    drops: Dict[str, int] = field(default_factory=dict)
    ooo_arrivals: int = 0
    window_ns: float = 0.0
    events_executed: int = 0
    #: fault-injection ledger (empty when the run had no active plan)
    fault_plan: str = ""
    fault_counters: Dict[str, int] = field(default_factory=dict)
    degradation_events: List[Dict] = field(default_factory=list)
    conservation_checks: int = 0
    conservation_violations: int = 0
    #: flight-recorder payload (None unless the run was instrumented):
    #: recorder stats, latency decomposition, and interval time series
    obs: Optional[Dict] = None
    #: live-migration ledger (None unless the run had an active plan):
    #: cutover timeline, blackout, buffered/dropped/replayed packets,
    #: per-flow recovery times, connection drops — see repro.migration
    migration: Optional[Dict] = None
    #: per-flow quarantine/readmission tallies from the health monitor
    #: (empty unless an MFLOW run had an active fault plan)
    health_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: exact per-(stage, core, flow-class) latency histograms (None only in
    #: a record that carries none); see repro.obs.hist for the payload
    #: layout and merge algebra
    hist: Optional[Dict] = None

    def __str__(self) -> str:  # pragma: no cover - convenience printer
        return (
            f"throughput={self.throughput_gbps:.2f} Gbps "
            f"msgs={self.messages_delivered} lat[{self.latency}]"
        )


class Scenario:
    """A complete single-receiver testbed under one steering policy."""

    def __init__(
        self,
        kind: DatapathKind,
        proto: str,
        policy_factory: Callable[[CpuSet], SteeringPolicy],
        costs: Optional[CostModel] = None,
        seed: int = 0,
        n_receiver_cores: int = 8,
        irq_core: int = 1,
        rss_core_indices: Optional[List[int]] = None,
        options: RunOptions = RunOptions(),
    ):
        if proto not in ("tcp", "udp"):
            raise ValueError(f"proto must be 'tcp' or 'udp', got {proto!r}")
        self.kind = kind
        self.proto = proto
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.costs.validate()
        self.sim = Simulator()
        self.rngs = RngStreams(seed)
        self.telemetry = Telemetry(self.sim)
        # Each option left None builds the exact same object graph and
        # event schedule as a run that never heard of it (RunOptions has
        # already turned an inert plan into None).
        self.options = options
        self.faults: Optional[FaultInjectors] = None
        self.watchdog: Optional[ConservationWatchdog] = None
        if options.faults is not None:
            self.faults = FaultInjectors(options.faults, self.sim, self.rngs, self.telemetry)
        self.cpus = CpuSet(
            self.sim,
            n_receiver_cores,
            jitter_sigma=self.costs.core_jitter_sigma,
            rngs=self.rngs,
        )
        self.policy = policy_factory(self.cpus)

        self.network: Optional[OverlayNetwork] = None
        self.balancer: Optional[ConsistentHashBalancerStage] = None
        self.migration: Optional[MigrationController] = None
        plan = options.migration
        if plan is not None:
            if kind is not DatapathKind.OVERLAY:
                raise ValueError("live migration requires the overlay datapath")
            self.network = OverlayNetwork()
            self.network.attach(plan.source)
            # the destination namespace is dormant until the restore
            self.network.attach(plan.dest, state="frozen")
            ring = HashRing(vnodes=plan.vnodes)
            ring.add(plan.source)
            self.balancer = ConsistentHashBalancerStage(
                ring, buffer_packets=plan.buffer_packets
            )

        self.tcp_receiver: Optional[TcpReceiverStage] = None
        self.tcp_deliver: Optional[TcpDeliverStage] = None
        self.udp_deliver: Optional[UdpDeliverStage] = None
        if proto == "tcp":
            self.tcp_receiver = TcpReceiverStage(self._route_ack)
            self.tcp_deliver = TcpDeliverStage()
        else:
            self.udp_deliver = UdpDeliverStage()
        stages = build_datapath_stages(
            kind,
            proto,
            tcp_receiver=self.tcp_receiver,
            udp_deliver=self.udp_deliver,
            tcp_deliver=self.tcp_deliver,
            balancer=self.balancer,
        )
        stages = self.policy.build_pipeline_stages(stages)
        self.pipeline = Pipeline(self.sim, self.costs, self.policy, self.telemetry)
        self.pipeline.reference_path = options.reference_path
        self.pipeline.set_head(link_nodes(stages))
        rss_cores = (
            [self.cpus[i] for i in rss_core_indices] if rss_core_indices else None
        )
        self.nic = Nic(
            self.sim,
            self.costs,
            self.cpus[irq_core],
            self.pipeline,
            self.telemetry,
            rss_cores=rss_cores,
        )
        self.wire = Wire(self.sim, self.costs, self.nic, faults=self.faults)
        if plan is not None:
            self.migration = MigrationController(self, plan)
        self.recorder: Optional[FlightRecorder] = None
        self.intervals: Optional[IntervalMetrics] = None
        if options.obs is not None:
            self._attach_obs(options.obs)
        # Exact stage histograms, on the receive side only: the contention
        # the paper studies is all there, and client-machine core ids
        # would collide with receiver series.  Recording draws no
        # randomness and schedules no events, so the simulated timeline —
        # and every other measurement — is the same with them detached.
        self.hist = StageHistograms()
        self.pipeline.hist = self.hist
        for core in self.cpus:
            core.hist = self.hist
        if self.faults is not None:
            self.nic.faults = self.faults
            self.faults.apply_to_nic(self.nic)
            self.policy.attach_faults(self.faults)
            self.watchdog = ConservationWatchdog(
                self.sim,
                self.telemetry,
                proto,
                self.wire.sent_packet_count,
                period_ns=options.faults.watchdog_period_ns,
            )

        self._senders: Dict[FlowKey, object] = {}
        self._client_count = 0
        # run-phase state machine ("init" -> "warmup" -> "measure" -> "done"),
        # carried inside checkpoints so a restored run knows where to resume
        self._run_phase = "init"
        self._warmup_ns = 0.0
        self._measure_ns = 0.0
        self._ckpt_slot = None

    # ------------------------------------------------------------- obs wiring
    def _attach_obs(self, cfg: ObsConfig) -> None:
        """Hand the flight recorder to every receiver-side producer.

        Client-machine cores are deliberately *not* instrumented: their
        core ids would collide with receiver tracks in the trace, and all
        the contention the paper studies is on the receive side.
        """
        self.recorder = FlightRecorder(capacity=cfg.capacity)
        self.recorder.bind_clock(self.sim)
        for core in self.cpus:
            core.obs = self.recorder
        self.pipeline.obs = self.recorder
        self.nic.obs = self.recorder
        for queue in self.nic._queues:
            queue.napi.obs = self.recorder
        if self.faults is not None:
            self.faults.obs = self.recorder
        monitor = getattr(self.policy, "health_monitor", None)
        if monitor is not None:
            monitor.obs = self.recorder

    # ------------------------------------------------------------- clients
    def make_client_flow(self, client_id: int, dport: int = 5001) -> FlowKey:
        """A fresh flow key for one client connection."""
        return make_flow(self.proto, client_id, dport=dport)

    def _new_client_cores(self) -> CpuSet:
        """Each client machine contributes an (app, kernel) core pair.

        Machine ``k`` (the ``k``-th sender added) draws its jitter from its
        own ``client{k}.core{i}.jitter`` streams, independent of the
        receiver's."""
        return CpuSet(
            self.sim,
            2,
            jitter_sigma=self.costs.core_jitter_sigma,
            rngs=self.rngs,
            stream_prefix=f"client{self._client_count}.",
        )

    def add_tcp_sender(
        self,
        message_size: int,
        flow: Optional[FlowKey] = None,
        window_bytes: Optional[int] = None,
        continuous: bool = True,
        interval_ns: Optional[float] = None,
    ) -> TcpSender:
        if self.proto != "tcp":
            raise RuntimeError("scenario is not a TCP scenario")
        if flow is None:
            flow = make_flow("tcp", self._client_count)
        client = self._new_client_cores()
        # migration runs arm a retransmission timeout so blackout drops
        # (and lossy fault plans riding along) recover instead of
        # deadlocking the window; plain runs keep the stock lossless model
        rto_ns = None
        plan = self.options.migration
        if plan is not None and plan.retransmit_ns > 0.0:
            rto_ns = plan.retransmit_ns
        sender = TcpSender(
            self.sim,
            self.costs,
            flow,
            message_size,
            self.wire,
            app_core=client[0],
            kernel_core=client[1],
            telemetry=self.telemetry,
            encap=(self.kind is DatapathKind.OVERLAY),
            window_bytes=window_bytes,
            continuous=continuous,
            interval_ns=interval_ns,
            rto_ns=rto_ns,
        )
        self._senders[flow] = sender
        self._client_count += 1
        return sender

    def add_udp_sender(
        self,
        message_size: int,
        flow: Optional[FlowKey] = None,
        interval_ns: Optional[float] = None,
    ) -> UdpSender:
        if self.proto != "udp":
            raise RuntimeError("scenario is not a UDP scenario")
        if flow is None:
            flow = make_flow("udp", self._client_count)
        client = self._new_client_cores()
        sender = UdpSender(
            self.sim,
            self.costs,
            flow,
            message_size,
            self.wire,
            app_core=client[0],
            kernel_core=client[1],
            telemetry=self.telemetry,
            encap=(self.kind is DatapathKind.OVERLAY),
            interval_ns=interval_ns,
        )
        self._senders[flow] = sender
        self._client_count += 1
        return sender

    def _route_ack(self, flow: FlowKey, ack_seq: int) -> None:
        sender = self._senders.get(flow)
        if sender is not None:
            # the ACK's wire leg; CostModel.validate() rejects a negative delay
            sim = self.sim
            sim._sched(sim._now + self.costs.wire_delay_ns, sender.on_ack, (flow, ack_seq))

    # ------------------------------------------------------------- teardown
    def retire_flow(self, flow: FlowKey) -> None:
        """Tear down one flow mid-run, releasing every pooled resource.

        Retiring a flow (or the container namespace serving it) must not
        strand pooled skbs: GRO held skbs, the TCP OOO queue, and any
        skbs parked in the steering policy's merge queues all return to
        the pipeline's free list here.  The flow's sender stops: it sends
        no new message, and frames already on the wire still arrive.
        """
        gro = self.pipeline.find_node("gro").stage
        gro.release_flow(flow, self.pipeline)
        if self.tcp_receiver is not None:
            self.tcp_receiver.release_flow(flow, self.pipeline)
        if self.udp_deliver is not None:
            self.udp_deliver.detach_flow(flow)  # index sets only, no skbs
        self.policy.retire_flow(flow, pipeline=self.pipeline)
        sender = self._senders.pop(flow, None)
        if sender is not None:
            sender.stop()

    # ----------------------------------------------------------------- run
    def run(
        self,
        warmup_ns: float = 2 * MSEC,
        measure_ns: float = 10 * MSEC,
    ) -> ScenarioResult:
        """Start all senders, warm up, measure, and summarize.

        When a :mod:`repro.resilience` checkpoint scope is active (the
        engine arms one around every worker), the run periodically
        snapshots itself and — if a usable snapshot from an interrupted
        earlier attempt exists — resumes from it instead of starting
        over, with bit-identical results either way.  Without a scope
        this claims nothing and runs the historical path untouched.
        """
        from repro.resilience.checkpoint import claim_slot, current_context

        slot = claim_slot()
        if slot is not None:
            restored = slot.try_restore()
            if isinstance(restored, Scenario) and restored._run_phase != "init":
                ctx = current_context()
                if ctx is not None:
                    ctx.note_restore()
                return restored._finish_run()
            ckpt = slot.checkpointer_for(self)
            if ckpt is not None:
                self.sim.checkpointer = ckpt
            self._ckpt_slot = slot
        self._begin_run(warmup_ns, measure_ns)
        return self._finish_run()

    def _begin_run(self, warmup_ns: float, measure_ns: float) -> None:
        """Arm faults/watchdog/recorder and launch the senders."""
        if not self._senders:
            raise RuntimeError("no senders configured")
        if self.faults is not None:
            self.faults.stall_horizon_ns = warmup_ns + measure_ns
            self.faults.schedule_core_stalls(self.cpus)
        if self.watchdog is not None:
            self.watchdog.arm()
        if self.recorder is not None:
            # journeys sample steady state, not warmup
            self.recorder.journeys.start_ns = warmup_ns
        if self.migration is not None:
            self.migration.arm()
        for i, sender in enumerate(self._senders.values()):
            # small stagger so clients do not start in lockstep
            self.sim.call_in(i * 1_000.0, sender.start)
        self._warmup_ns = warmup_ns
        self._measure_ns = measure_ns
        self._run_phase = "warmup"

    def _begin_measure_window(self) -> None:
        """Warmup over: open the measurement window."""
        self.telemetry.start_window()
        self.cpus.start_window()
        cfg = self.options.obs
        if cfg is not None:
            # interval metrics cover exactly the measurement window
            self.intervals = IntervalMetrics(
                self.sim,
                self.telemetry,
                self.cpus,
                pipeline=self.pipeline,
                nic=self.nic,
                merge_stage=getattr(self.policy, "merge_stage", None),
                proto=self.proto,
                interval_ns=cfg.interval_ns,
            )
            self.intervals.arm()
        self._run_phase = "measure"

    def _finish_run(self) -> ScenarioResult:
        """Drive the remaining phases (idempotent after a restore)."""
        if self._run_phase == "warmup":
            self.sim.run(until_ns=self._warmup_ns)
            self._begin_measure_window()
        if self._run_phase == "measure":
            self.sim.run(until_ns=self._warmup_ns + self._measure_ns)
            self._run_phase = "done"
        slot = self._ckpt_slot
        if slot is not None:
            self._ckpt_slot = None
            self.sim.checkpointer = None
            slot.complete()
        return self._collect(self._measure_ns)

    def _collect(self, window_ns: float) -> ScenarioResult:
        bytes_counter = f"{self.proto}_delivered_bytes"
        latency_samples = self.telemetry.sample_list(f"{self.proto}_msg_latency_ns")
        ooo = 0
        if hasattr(self.policy, "ooo_arrivals"):
            ooo = self.policy.ooo_arrivals
        checks = violations = 0
        if self.watchdog is not None:
            self.watchdog.check_now()  # final invariant check at run end
            checks = self.watchdog.checks
            violations = len(self.watchdog.violations)
        monitor = getattr(self.policy, "health_monitor", None)
        obs_payload = None
        if self.recorder is not None:
            obs_payload = {
                "config": self.options.obs.to_dict(),
                "events_seen": self.recorder.events_seen,
                "events_kept": self.recorder.events_kept,
                "events_dropped": self.recorder.events_dropped,
                "decomposition": decompose(self.recorder.journeys).to_dict(),
                "timeseries": self.intervals.to_dict() if self.intervals else None,
            }
        return ScenarioResult(
            throughput_gbps=self.telemetry.window_rate_gbps(bytes_counter),
            messages_delivered=self.telemetry.window_count(
                f"{self.proto}_delivered_messages"
            ),
            latency=summarize_latencies(latency_samples),
            cpu_utilization=self.cpus.utilization(),
            cpu_breakdown=self.cpus.utilization_breakdown(),
            counters=dict(self.telemetry.counters),
            drops=dict(self.pipeline.drops),
            ooo_arrivals=ooo,
            window_ns=window_ns,
            events_executed=self.sim.events_executed,
            fault_plan=self.options.faults.name if self.faults else "",
            fault_counters=self.faults.summary() if self.faults else {},
            degradation_events=list(monitor.events) if monitor else [],
            conservation_checks=checks,
            conservation_violations=violations,
            obs=obs_payload,
            migration=self.migration.summary() if self.migration is not None else None,
            health_counts={k: dict(v) for k, v in monitor.counts.items()}
            if monitor
            else {},
            hist=self.hist.to_dict(),
        )
