"""Discrete-event simulation substrate.

Everything in this reproduction runs on the :class:`~repro.sim.engine.Simulator`:
a timer-wheel discrete-event engine with simulated time in nanoseconds.
There is one programming style, callbacks: ``sim.call_in(delay_ns, fn,
*args)`` files a bare wheel entry, and CPU work is a chain of
:class:`~repro.cpu.core.Core` work items whose completions call the next
stage.  Millions of such small events must be cheap, so an event is a
tuple, never an object with a handle.
"""

from repro.sim.engine import Simulator
from repro.sim.queues import RingBuffer
from repro.sim.rng import RngStreams
from repro.sim.units import (
    GBPS,
    KIB,
    MIB,
    MSEC,
    SEC,
    USEC,
    bits_to_bytes,
    gbps,
    ns_per_byte_at_gbps,
)

__all__ = [
    "Simulator",
    "RingBuffer",
    "RngStreams",
    "GBPS",
    "KIB",
    "MIB",
    "MSEC",
    "SEC",
    "USEC",
    "bits_to_bytes",
    "gbps",
    "ns_per_byte_at_gbps",
]
