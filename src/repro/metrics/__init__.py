"""Measurement infrastructure: counters, latency distributions, throughput
windows and per-core utilization reporting."""

from repro.metrics.telemetry import Telemetry
from repro.metrics.summary import summarize_latencies, LatencySummary

__all__ = ["Telemetry", "summarize_latencies", "LatencySummary"]
