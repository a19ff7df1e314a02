"""Run-wide observability: the flight recorder and its consumers.

The paper's core evidence is *attribution* — Fig. 4-6 decompose where
time goes in the prolonged overlay pipeline and show softirq
serialization as the bottleneck.  This package gives the reproduction
the same power as a first-class subsystem:

* :mod:`repro.obs.recorder` — a cheap structured event bus
  (:class:`FlightRecorder`).  Every layer of the datapath probes into it:
  NIC IRQ raise/fire, softirq entry/exit per core, stage execution
  start/end, steering decisions (micro-flow split/merge), IPIs, fault
  injections, and health-monitor quarantine transitions.
* :mod:`repro.obs.timeseries` — per-interval metrics (goodput, per-core
  utilization, backlog depth, merge-skip rate) sampled on a sim timer.
* :mod:`repro.obs.perfetto` — Chrome ``trace_events`` JSON export (one
  track per core; slices for softirq/stage execution, instants for
  IRQs/IPIs/faults) loadable in ``chrome://tracing`` / Perfetto.
* :mod:`repro.obs.decompose` — per-packet critical-path journeys split
  into per-stage queueing vs service vs hold (GRO hold / merge wait),
  reproducing the Fig. 5/6 latency-attribution analysis.
* :mod:`repro.obs.hist` — always-on exact per-stage latency histograms
  (deterministic log-bucketed counts per stage × core × flow class) with
  a lossless merge algebra; the substrate for ``repro diff`` regression
  attribution (:mod:`repro.obs.diff`).

**Zero cost when disabled.**  Components hold an ``obs`` reference that
is ``None`` by default; hot paths guard every probe with a single
``if obs is not None`` check and the disabled path schedules no events,
draws no randomness, and allocates nothing — run results and spec cache
keys are bit-identical to an uninstrumented build.
"""

from repro.obs.config import ObsConfig
from repro.obs.decompose import Decomposition, JourneyTracker, decompose
from repro.obs.hist import LatencyHistogram, StageHistograms, merge_payloads, stage_rollup
from repro.obs.perfetto import to_trace_events, write_trace
from repro.obs.recorder import Event, FlightRecorder
from repro.obs.timeseries import IntervalMetrics

__all__ = [
    "ObsConfig",
    "LatencyHistogram",
    "StageHistograms",
    "merge_payloads",
    "stage_rollup",
    "FlightRecorder",
    "Event",
    "IntervalMetrics",
    "JourneyTracker",
    "Decomposition",
    "decompose",
    "to_trace_events",
    "write_trace",
]
