"""Chrome/Perfetto ``trace_events`` JSON export.

Converts a :class:`~repro.obs.recorder.FlightRecorder` buffer into the
`trace_events format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and https://ui.perfetto.dev:

* one **thread track per core** (``tid = core id``), carrying ``"X"``
  complete slices for every work item the core executed (stage runs,
  ``softirq:*`` entries, ``irq:*`` top halves, ``driver_poll:*``,
  ``steer_dispatch`` payments);
* a synthetic **"events" track** for instants not bound to a core
  (wire faults, quarantine transitions), plus per-core ``"i"`` instant
  markers for IRQ raises, IPIs, steering decisions, and fault hits.

Timestamps: the simulator runs in nanoseconds; trace_events wants
microseconds.  We export ``ts = t_ns / 1000`` as floats — both viewers
accept fractional µs, preserving ns resolution.
"""

from __future__ import annotations

import json
from typing import IO, List, Union

from repro.obs.recorder import FlightRecorder

#: pid used for every track (one simulated machine == one "process")
TRACE_PID = 1
#: tid of the track collecting core-less instants (fault plan, wire, health)
GLOBAL_TRACK_TID = 1000

_NS_PER_US = 1e3


def _category(name: str) -> str:
    """Coarse slice category, used by the viewers for color/filter."""
    if ":" in name:
        return name.split(":", 1)[0]  # irq / softirq / driver_poll
    if name.startswith("fault_"):
        return "fault"
    if name.startswith("irq") or name.startswith("nic_"):
        return "irq"
    if name.startswith("softirq"):
        return "softirq"
    if name.startswith("mflow_") or name.startswith("steer"):
        return "steering"
    return "stage"


def to_trace_events(rec: FlightRecorder, label: str = "repro") -> dict:
    """Build the JSON-object form of the trace (``{"traceEvents": [...]}``)."""
    events: List[dict] = []
    cores = rec.cores()

    # metadata: name the process and one thread per core, keeping the
    # Perfetto track order equal to the core id order.
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "args": {"name": f"{label} datapath"},
        }
    )
    for core in cores:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": core,
                "args": {"name": f"core {core}"},
            }
        )
        events.append(
            {"name": "thread_sort_index", "ph": "M", "pid": TRACE_PID, "tid": core,
             "args": {"sort_index": core}}
        )
    events.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": GLOBAL_TRACK_TID,
            "args": {"name": "events (no core)"},
        }
    )

    for ev in rec.events():
        tid = ev.core if ev.core >= 0 else GLOBAL_TRACK_TID
        out = {
            "name": ev.name,
            "cat": _category(ev.name),
            "pid": TRACE_PID,
            "tid": tid,
            "ts": ev.t_ns / _NS_PER_US,
        }
        if ev.kind == "X":
            out["ph"] = "X"
            out["dur"] = ev.dur_ns / _NS_PER_US
        else:
            out["ph"] = "i"
            # scope: thread-scoped when bound to a core, global otherwise
            out["s"] = "t" if ev.core >= 0 else "g"
        if ev.fields:
            out["args"] = {k: _jsonable(v) for k, v in ev.fields.items()}
        events.append(out)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "events_seen": rec.events_seen,
            "events_kept": rec.events_kept,
            "events_dropped": rec.events_dropped,
            # False => the buffer overflowed and slices were
            # reservoir-sampled; gaps in the tracks are sampling, not idleness
            "complete": rec.events_dropped == 0,
        },
    }


def _jsonable(v):
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


def write_trace(rec: FlightRecorder, dest: Union[str, IO[str]], label: str = "repro") -> dict:
    """Serialize the trace to ``dest`` (path or file object); returns it."""
    trace = to_trace_events(rec, label=label)
    if hasattr(dest, "write"):
        json.dump(trace, dest)  # atomic-ok: stream (caller owns the file)
    else:
        from repro.resilience.atomic import atomic_write_json

        atomic_write_json(dest, trace, indent=None)
    return trace
