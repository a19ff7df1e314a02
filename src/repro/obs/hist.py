"""Always-on, exactly-mergeable per-stage latency histograms.

The flight recorder's journey decomposition (:mod:`repro.obs.decompose`)
is *sampled* — the first journeys of the measurement window, off by
default.  This module is the complementary instrument: HdrHistogram-style
log-bucketed latency histograms recorded on **every** datapath hop, per
``(stage, core, flow-class)``, cheap enough to leave on always.

Design constraints, in order:

* **Deterministic and inert.**  Recording draws no randomness and
  schedules no events, so an instrumented run's simulated timeline is
  bit-identical to an uninstrumented one: detaching the histograms from
  a built scenario (``pipeline.hist`` and each receiver core's ``hist``
  set to ``None``) removes the payload without changing any measurement.
* **Exactly mergeable.**  The bucket geometry is a fixed module-level
  constant (never a per-run parameter), so histograms from different
  cores, sweep cells, repetitions, and resumed runs can be merged by
  plain bucket-wise integer addition.  All aggregates (``count``,
  ``sum_ns``, ``min_ns``, ``max_ns``) are integers — integer addition is
  associative and commutative, so merge order can never change a byte of
  the serialized result.
* **Recorded where the work completes.**  Only the core that finishes a
  work item knows its spans, so :class:`~repro.cpu.core.Core` logs
  them, raw, with no span arithmetic, into per-series float logs
  (``array('d')``, converted as the values are logged): a pipeline
  hop's item carries its ``(stage, core, flow-class)`` series log
  (resolved once per stage node and core by the pipeline) and its
  submit time, and its completion appends ``submit, end, duration``;
  system work appends its duration to a log the core resolves once per
  tag; a fused run appends its submit time, boundary times and
  durations to its plan's log.  Once the logs hold a shared budget of
  spans (``_FOLD_BUDGET``, 4096, charged by each core every 64
  completions), one vectorised fold copies them into one array,
  computes every span with the per-hop float expressions and moves it
  into an int64 bucket matrix (one 960-bucket row per series) and exact
  per-series sum/min/max.  The logs stay bounded by the budget (plus
  one charge interval per core) whatever the series count, and a matrix
  row costs what a per-series count list did.  The fold is
  integer-exact: it gives the same payload as calling
  :meth:`LatencyHistogram.record` once per span, which stays as the
  tested reference.  ``to_dict`` folds first; a checkpoint carries the
  logs unfolded and only the matrix's nonzero cells.  A span the
  reference would reject (not finite, or past the bucket range) raises
  at the fold, not at the completion that logged it.

Bucket geometry (log-linear, HdrHistogram style)
------------------------------------------------

Values are integer simulated nanoseconds (floored).  The first
``LINEAR_MAX = 32`` buckets are exact (one per nanosecond); past that,
each power-of-two octave is split into 16 linear sub-buckets, giving a
worst-case relative error of ``1/16`` (~6%, ~3% at the midpoint) at any
magnitude.  960 buckets cover the full 63-bit range::

    v < 32:  index = v
    else:    k = bit_length(v) - 5          # octave beyond the linear zone
             index = 16*k + (v >> k)        # v >> k is in [16, 31]

The inverse (:func:`bucket_bounds`) recovers the half-open value range
``[lo, hi)`` of a bucket.  Geometry constants are serialized alongside
the counts so a reader can verify compatibility before merging.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Mapping, Tuple

import numpy as np

__all__ = [
    "HIST_SCHEMA_VERSION",
    "LINEAR_MAX",
    "N_BUCKETS",
    "SUB_BUCKETS",
    "LatencyHistogram",
    "StageHistograms",
    "bucket_bounds",
    "bucket_index",
    "bucket_mid",
    "merge_payloads",
    "merge_series",
    "series_mean_ns",
    "series_quantile_ns",
    "series_samples",
    "stage_rollup",
]

#: bump when the serialized payload layout changes incompatibly
HIST_SCHEMA_VERSION = 1

#: exact 1-ns buckets below this value
LINEAR_MAX = 32
#: linear sub-buckets per power-of-two octave past the linear zone
SUB_BUCKETS = 16
#: total buckets; covers every value up to 2**63 - 1
N_BUCKETS = 960

_SENTINEL_MIN = (1 << 63) - 1

#: logged spans, summed over every core of one StageHistograms, that
#: trigger a fold (a shared budget: per-core or per-series buffers would
#: scale the buffered memory with their count)
_FOLD_BUDGET = 4096
#: a fold holding a value at or beyond this magnitude goes through
#: LatencyHistogram.record; below it float64 -> int64 is exact and a
#: whole fold of them sums inside int64 (a fused run may log past the
#: budget by its length, so twice the budget bounds one row's values)
_VEC_LIMIT = 1 << 48
assert 2 * _FOLD_BUDGET * _VEC_LIMIT < 1 << 63
#: series rows added to the bucket matrix at a time
_ROW_CHUNK = 64


def bucket_index(v: int) -> int:
    """Bucket index of integer nanosecond value ``v`` (clamped at 0)."""
    if v < LINEAR_MAX:
        return v if v > 0 else 0
    k = v.bit_length() - 5
    return (k << 4) + (v >> k)


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Half-open value range ``[lo, hi)`` covered by bucket ``index``."""
    if not 0 <= index < N_BUCKETS:
        raise ValueError(f"bucket index out of range: {index}")
    if index < LINEAR_MAX:
        return (index, index + 1)
    k = (index >> 4) - 1
    m = (index & 15) + SUB_BUCKETS
    return (m << k, (m + 1) << k)


def bucket_mid(index: int) -> int:
    """Representative (midpoint) value of bucket ``index``."""
    lo, hi = bucket_bounds(index)
    return (lo + hi - 1) >> 1 if hi - lo > 1 else lo


# ---------------------------------------------------------------- histograms
class LatencyHistogram:
    """One latency distribution: preallocated counts + exact aggregates."""

    __slots__ = ("counts", "count", "sum_ns", "min_ns", "max_ns")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * N_BUCKETS
        self.count = 0
        self.sum_ns = 0
        self.min_ns = _SENTINEL_MIN
        self.max_ns = 0

    def record(self, value_ns: float) -> None:
        """Record one value (float sim-ns, floored to integer ns)."""
        v = int(value_ns)
        if v < LINEAR_MAX:
            if v < 0:
                v = 0
            idx = v
        else:
            k = v.bit_length() - 5
            idx = (k << 4) + (v >> k)
        self.counts[idx] += 1
        self.count += 1
        self.sum_ns += v
        if v < self.min_ns:
            self.min_ns = v
        if v > self.max_ns:
            self.max_ns = v

    def to_dict(self) -> Dict[str, Any]:
        """Sparse, JSON-safe, merge-order-invariant serialization."""
        counts = self.counts
        return {
            "count": self.count,
            "sum_ns": self.sum_ns,
            "min_ns": self.min_ns if self.count else 0,
            "max_ns": self.max_ns,
            "buckets": [[i, c] for i, c in enumerate(counts) if c],
        }


class StageHistograms:
    """Every histogram family of one run.

    Two families:

    * ``stages`` — per ``(stage, core, flow-class)``, a *queue* histogram
      (run-queue wait between dispatch and execution start) and a
      *service* histogram (the work item's execution span, jitter and
      handoff penalty included), one pair per executed pipeline hop;
    * ``cores`` — per ``(tag, core)`` service histograms for system work
      that is not a datapath stage (``irq:*``, ``driver_poll:*``,
      ``softirq:*``, ``steer_dispatch``, app work).

    Both are recorded where the work completes, by
    :class:`~repro.cpu.core.Core`, into the raw logs this object hands
    out (:meth:`stage_series`, :meth:`core_series`, :meth:`plan_series`);
    :meth:`fold` turns the logs into spans and counts.

    The object is pickled inside simulator checkpoints with the rest of
    the scenario graph, so a killed-and-resumed run carries its exact
    counts forward.
    """

    def __init__(self) -> None:
        # Every histogram is a *row* of the bucket matrix and of the exact
        # aggregates below.  A series is its row and its raw log (a float
        # array the cores append to: converted as logged, while the values
        # are fresh, so the fold only copies memory); a stage series' row
        # is its service row, and its queue row is the one before.
        # stage -> core_id -> flow_class -> (row, log of submit/end/duration)
        self._stages: Dict[str, Dict[int, Dict[str, Tuple[int, array]]]] = {}
        # tag -> core_id -> (row, log of durations)
        self._cores: Dict[str, Dict[int, Tuple[int, array]]] = {}
        #: the same series, in the order the fold reads them
        self._hop_logs: List[Tuple[int, array]] = []
        self._sys_logs: List[Tuple[int, array]] = []
        #: fused-run plans: their sub-stages' rows -> one log per covered
        #: length m (index 0 unused) of submit, bounds[0..m], durs[0..m-1]
        self._plans: Dict[Tuple[int, ...], List[array]] = {}
        #: logged spans still allowed before the next fold (see charge)
        self.room = _FOLD_BUDGET
        #: per-row aggregates: exact Python-int sums, and int64 arrays
        #: grown _ROW_CHUNK rows at a time
        self._sums: List[int] = []
        self._buckets = np.zeros((0, N_BUCKETS), dtype=np.int64)
        self._mins = np.zeros(0, dtype=np.int64)
        self._maxs = np.zeros(0, dtype=np.int64)

    def __getstate__(self) -> dict:
        """Checkpoints carry the counts folded so far, only for the rows in
        use (``_new_rows`` regrows past them) and the bucket matrix as its
        nonzero cells, and the logs as they are.  No fold here: queued
        work items share the logs, and the pickler may already have
        written a log through one of them."""
        state = self.__dict__.copy()
        used = len(self._sums)
        state["_mins"] = self._mins[:used]
        state["_maxs"] = self._maxs[:used]
        flat = self._buckets[:used].reshape(-1)
        cells = np.flatnonzero(flat)
        state["_buckets"] = (used, cells, flat[cells])
        return state

    def __setstate__(self, state: dict) -> None:
        used, cells, counts = state["_buckets"]
        buckets = np.zeros((used, N_BUCKETS), dtype=np.int64)
        buckets.reshape(-1)[cells] = counts
        state["_buckets"] = buckets
        self.__dict__.update(state)

    # ------------------------------------------------------ series resolution
    def stage_series(self, stage: str, core_id: int, flow_class: str) -> array:
        """The log of a ``(stage, core, flow-class)`` series: a completed
        hop appends its ``submit, end, duration``.  Made on first use; a
        series that never logs a span is left out of the payload."""
        return self._stage_entry(stage, core_id, flow_class)[1]

    def core_series(self, tag: str, core_id: int) -> array:
        """The log of a ``(tag, core)`` system-work series: a completed
        item appends its duration."""
        by_core = self._cores.setdefault(tag, {})
        entry = by_core.get(core_id)
        if entry is None:
            entry = by_core[core_id] = (self._new_rows(1), array("d"))
            self._sys_logs.append(entry)
        return entry[1]

    def plan_series(
        self, stages: Tuple[str, ...], core_id: int, flow_class: str
    ) -> List[array]:
        """The logs of a fused run of ``stages`` on one core, one per
        covered length ``m``: a run appends its submit time, its ``m + 1``
        boundary times and its ``m`` durations to log ``m``."""
        rows = tuple(self._stage_entry(s, core_id, flow_class)[0] for s in stages)
        logs = self._plans.get(rows)
        if logs is None:
            logs = self._plans[rows] = [array("d") for _ in range(len(rows) + 1)]
        return logs

    def _stage_entry(
        self, stage: str, core_id: int, flow_class: str
    ) -> Tuple[int, array]:
        by_class = self._stages.setdefault(stage, {}).setdefault(core_id, {})
        entry = by_class.get(flow_class)
        if entry is None:
            entry = by_class[flow_class] = (self._new_rows(2) + 1, array("d"))
            self._hop_logs.append(entry)
        return entry

    def _new_rows(self, n: int) -> int:
        """Add ``n`` rows; returns the first."""
        first = len(self._sums)
        self._sums.extend([0] * n)
        if first + n > len(self._mins):
            grow = ((first + n - len(self._mins)) // _ROW_CHUNK + 1) * _ROW_CHUNK
            self._buckets = np.concatenate(
                [self._buckets, np.zeros((grow, N_BUCKETS), dtype=np.int64)]
            )
            self._mins = np.concatenate(
                [self._mins, np.full(grow, _SENTINEL_MIN, dtype=np.int64)]
            )
            self._maxs = np.concatenate([self._maxs, np.zeros(grow, dtype=np.int64)])
        return first

    # ---------------------------------------------------------------- folding
    def charge(self, spans: int) -> None:
        """A core logged ``spans`` more spans: fold once the shared budget
        is spent.  Cores charge in fixed intervals of completed items (see
        :mod:`repro.cpu.core`), so the logs hold at most the budget plus
        one interval and one fused run per core."""
        self.room -= spans
        if self.room <= 0:
            self.fold()

    def fold(self) -> None:
        """Turn the logs into spans and move them into their series' exact
        aggregates.

        A hop logged ``(submit, end, duration)``; its spans are computed
        here with the per-hop float expressions, vectorised: ``start =
        end - duration``, queue ``start - submit`` and service ``end -
        start``.  A fused run's sub-stage ``i`` ends at boundary ``i + 1``
        and was submitted at boundary ``i`` (the first at the run's
        submit time).  System work records its duration.

        Integer-exact, so the result equals one
        :meth:`LatencyHistogram.record` call per span: ``astype(int64)``
        truncates toward zero like ``int()``, ``frexp``'s exponent is
        ``bit_length`` for integers below 2**53, and one fold's int64
        sums stay below 2**61 (see ``_VEC_LIMIT``) before they join the
        Python-int running sums.  A span the reference would reject (not
        finite, or past the bucket range) raises here, at the fold that
        meets it — a later charge, ``to_dict`` or pickling — rather than
        where it was logged; nothing of the batch is folded and the logs
        are kept.
        """
        rows, x = self._spans()
        if len(x):
            top = np.abs(x).max()  # NaN if any span is NaN
            if top < _VEC_LIMIT:
                self._fold_vector(rows, x)
            elif not np.isfinite(top):
                raise ValueError("latency span is not finite")
            else:  # huge values: the reference path is exact
                self._fold_reference(rows, x)
        for _, log in self._hop_logs:
            del log[:]
        for _, log in self._sys_logs:
            del log[:]
        for logs in self._plans.values():
            for log in logs:
                del log[:]
        self.room = _FOLD_BUDGET

    def _spans(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every logged span and its row, as two flat arrays.

        All logs are copied into one float array first; the per-series
        Python work is gathering them, never per span."""
        flat = array("d")
        hop_rows: List[int] = []
        hops: List[int] = []
        for row, log in self._hop_logs:
            if log:
                hop_rows.append(row)
                hops.append(len(log) // 3)
                flat += log
        n_hop = len(flat)
        sys_rows: List[int] = []
        durs: List[int] = []
        for row, log in self._sys_logs:
            if log:
                sys_rows.append(row)
                durs.append(len(log))
                flat += log
        n_sys = len(flat) - n_hop
        # fused runs, grouped by covered length m: one 2-D block each
        blocks: List[Tuple[int, List[Tuple[int, ...]], List[int]]] = []
        longest = max(map(len, self._plans), default=0)
        for m in range(1, longest + 1):
            plans: List[Tuple[int, ...]] = []
            runs: List[int] = []
            for plan, logs in self._plans.items():
                if m < len(logs) and logs[m]:
                    plans.append(plan[:m])
                    runs.append(len(logs[m]) // (2 * m + 2))
                    flat += logs[m]
            if plans:
                blocks.append((m, plans, runs))
        if not flat:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        x = np.frombuffer(flat, dtype=np.float64)
        hop = x[:n_hop].reshape(-1, 3)
        rows = [np.repeat(np.array(hop_rows, dtype=np.int64), hops)]
        submit = [hop[:, 0]]
        end = [hop[:, 1]]
        dur = [hop[:, 2]]
        at = n_hop + n_sys
        for m, plans, runs in blocks:
            width = 2 * m + 2
            # columns: submit, bounds[0..m], durs[0..m-1]
            log = x[at:at + sum(runs) * width].reshape(-1, width)
            at += len(log) * width
            rows.append(np.repeat(np.array(plans, dtype=np.int64), runs, axis=0).ravel())
            sub = log[:, 1:m + 1].copy()  # bounds[i]: sub-stage i's submit...
            sub[:, 0] = log[:, 0]  # ...but the first was submitted with the run
            submit.append(sub.ravel())
            end.append(log[:, 2:m + 2].ravel())
            dur.append(log[:, m + 2:].ravel())
        s = np.concatenate(rows)
        e = np.concatenate(end)
        start = e - np.concatenate(dur)
        return (
            np.concatenate([s - 1, s, np.repeat(np.array(sys_rows, dtype=np.int64), durs)]),
            np.concatenate([start - np.concatenate(submit), e - start, x[n_hop:n_hop + n_sys]]),
        )

    def _fold_vector(self, rows: np.ndarray, x: np.ndarray) -> None:
        v = x.astype(np.int64)
        np.maximum(v, 0, out=v)
        k = np.maximum(np.frexp(v)[1] - 5, 0).astype(np.int64)
        idx = (k << 4) + (v >> k)  # k == 0 below LINEAR_MAX: idx == v
        np.add.at(self._buckets.reshape(-1), rows * N_BUCKETS + idx, 1)
        sums = np.zeros(len(self._sums), dtype=np.int64)
        np.add.at(sums, rows, v)
        self._sums = list(map(int.__add__, self._sums, sums.tolist()))
        np.minimum.at(self._mins, rows, v)
        np.maximum.at(self._maxs, rows, v)

    def _fold_reference(self, rows: np.ndarray, x: np.ndarray) -> None:
        # record every row before touching the aggregates, so a value the
        # reference rejects leaves them as they were
        refs: Dict[int, LatencyHistogram] = {}
        for row, value in zip(rows.tolist(), x.tolist()):
            ref = refs.get(row)
            if ref is None:
                ref = refs[row] = LatencyHistogram()
            ref.record(value)
        for row, ref in refs.items():
            self._buckets[row] += np.array(ref.counts, dtype=np.int64)
            self._sums[row] += ref.sum_ns
            self._mins[row] = min(int(self._mins[row]), ref.min_ns)
            self._maxs[row] = max(int(self._maxs[row]), ref.max_ns)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """The run-record / checkpoint payload, keys sorted for stability.

        Series that never logged a span are left out."""
        self.fold()
        used = len(self._sums)
        matrix = self._buckets[:used]
        counts = matrix.sum(axis=1).tolist()
        cells = np.flatnonzero(matrix)
        # row r's nonzero buckets are cells[cuts[r]:cuts[r + 1]]
        cuts = np.searchsorted(cells, np.arange(used + 1) * N_BUCKETS).tolist()
        index = (cells % N_BUCKETS).tolist()
        hits = matrix.reshape(-1)[cells].tolist()
        sums = self._sums
        mins = self._mins[:used].tolist()
        maxs = self._maxs[:used].tolist()

        def series(row: int) -> Dict[str, Any]:
            lo, hi = cuts[row], cuts[row + 1]
            return {
                "count": counts[row],
                "sum_ns": sums[row],
                "min_ns": mins[row] if counts[row] else 0,
                "max_ns": maxs[row],
                "buckets": list(map(list, zip(index[lo:hi], hits[lo:hi]))),
            }

        stages: Dict[str, Any] = {}
        for stage in sorted(self._stages):
            by_core = self._stages[stage]
            out_core: Dict[str, Any] = {}
            for core_id in sorted(by_core):
                out_class = {
                    flow_class: {"queue": series(row - 1), "service": series(row)}
                    for flow_class, (row, _) in sorted(by_core[core_id].items())
                    if counts[row]
                }
                if out_class:
                    out_core[str(core_id)] = out_class
            if out_core:
                stages[stage] = out_core
        cores: Dict[str, Any] = {}
        for tag in sorted(self._cores):
            by_core = self._cores[tag]
            out = {
                str(core_id): series(by_core[core_id][0])
                for core_id in sorted(by_core)
                if counts[by_core[core_id][0]]
            }
            if out:
                cores[tag] = out
        return {
            "schema": HIST_SCHEMA_VERSION,
            "geometry": {
                "linear_max": LINEAR_MAX,
                "sub_buckets": SUB_BUCKETS,
                "n_buckets": N_BUCKETS,
            },
            "stages": stages,
            "cores": cores,
        }


# ------------------------------------------------------- payload-level algebra
def _check_geometry(payload: Mapping[str, Any]) -> None:
    geo = payload.get("geometry") or {}
    mine = {
        "linear_max": LINEAR_MAX,
        "sub_buckets": SUB_BUCKETS,
        "n_buckets": N_BUCKETS,
    }
    if {k: geo.get(k) for k in mine} != mine:
        raise ValueError(f"incompatible histogram geometry: {geo!r}")


def _empty_series() -> Dict[str, Any]:
    return {"count": 0, "sum_ns": 0, "min_ns": 0, "max_ns": 0, "buckets": []}


def merge_series(series: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Bucket-wise sum of serialized histogram series (exact, any order)."""
    counts: Dict[int, int] = {}
    count = 0
    sum_ns = 0
    min_ns = _SENTINEL_MIN
    max_ns = 0
    for ser in series:
        n = int(ser.get("count", 0))
        if n == 0:
            continue
        count += n
        sum_ns += int(ser.get("sum_ns", 0))
        min_ns = min(min_ns, int(ser.get("min_ns", 0)))
        max_ns = max(max_ns, int(ser.get("max_ns", 0)))
        for idx, c in ser.get("buckets", ()):
            counts[idx] = counts.get(idx, 0) + int(c)
    if count == 0:
        return _empty_series()
    return {
        "count": count,
        "sum_ns": sum_ns,
        "min_ns": min_ns,
        "max_ns": max_ns,
        "buckets": [[i, counts[i]] for i in sorted(counts)],
    }


def merge_payloads(payloads: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge whole ``StageHistograms.to_dict()`` payloads (cells, reps,
    resumed halves) into one; byte-identical regardless of input order."""
    stage_acc: Dict[str, Dict[str, Dict[str, List[Dict[str, Any]]]]] = {}
    core_acc: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    seen = 0
    for payload in payloads:
        if not payload:
            continue
        _check_geometry(payload)
        seen += 1
        for stage, by_core in (payload.get("stages") or {}).items():
            s = stage_acc.setdefault(stage, {})
            for core_id, by_class in by_core.items():
                c = s.setdefault(core_id, {})
                for flow_class, kinds in by_class.items():
                    k = c.setdefault(flow_class, {"queue": [], "service": []})
                    k["queue"].append(kinds.get("queue") or _empty_series())
                    k["service"].append(kinds.get("service") or _empty_series())
        for tag, by_core in (payload.get("cores") or {}).items():
            t = core_acc.setdefault(tag, {})
            for core_id, ser in by_core.items():
                t.setdefault(core_id, []).append(ser)
    if seen == 0:
        raise ValueError("no histogram payloads to merge")
    return {
        "schema": HIST_SCHEMA_VERSION,
        "geometry": {
            "linear_max": LINEAR_MAX,
            "sub_buckets": SUB_BUCKETS,
            "n_buckets": N_BUCKETS,
        },
        "stages": {
            stage: {
                core_id: {
                    flow_class: {
                        "queue": merge_series(k["queue"]),
                        "service": merge_series(k["service"]),
                    }
                    for flow_class, k in sorted(stage_acc[stage][core_id].items())
                }
                for core_id in sorted(stage_acc[stage], key=int)
            }
            for stage in sorted(stage_acc)
        },
        "cores": {
            tag: {
                core_id: merge_series(sers)
                for core_id, sers in sorted(core_acc[tag].items(), key=lambda kv: int(kv[0]))
            }
            for tag in sorted(core_acc)
        },
    }


def stage_rollup(payload: Mapping[str, Any]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Collapse cores and flow classes: ``{stage: {queue, service}}``.

    Includes the core-tag family as pseudo-stages (their tag names never
    collide with datapath stage names), each with an empty queue series —
    so a diff over the rollup sees softirq/IRQ/steering work too.
    """
    _check_geometry(payload)
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for stage, by_core in (payload.get("stages") or {}).items():
        queues: List[Mapping[str, Any]] = []
        services: List[Mapping[str, Any]] = []
        for by_class in by_core.values():
            for kinds in by_class.values():
                queues.append(kinds.get("queue") or _empty_series())
                services.append(kinds.get("service") or _empty_series())
        out[stage] = {
            "queue": merge_series(queues),
            "service": merge_series(services),
        }
    for tag, by_core in (payload.get("cores") or {}).items():
        out[tag] = {
            "queue": _empty_series(),
            "service": merge_series(by_core.values()),
        }
    return out


# -------------------------------------------------------------- series maths
def series_mean_ns(series: Mapping[str, Any]) -> float:
    """Exact mean (from the integer sum, not the quantized buckets)."""
    n = int(series.get("count", 0))
    return int(series.get("sum_ns", 0)) / n if n else 0.0


def series_quantile_ns(series: Mapping[str, Any], q: float) -> int:
    """Value at quantile ``q`` (bucket-midpoint resolution, exact at the
    recorded ``min``/``max`` endpoints)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = int(series.get("count", 0))
    if total == 0:
        return 0
    if q <= 0.0:
        return int(series.get("min_ns", 0))
    if q >= 1.0:
        return int(series.get("max_ns", 0))
    rank = q * (total - 1)
    seen = 0
    for idx, c in series.get("buckets", ()):
        seen += int(c)
        if seen > rank:
            return bucket_mid(int(idx))
    return int(series.get("max_ns", 0))


def series_samples(series: Mapping[str, Any], cap: int = 2000) -> List[float]:
    """A deterministic, order-free sample reconstruction for bootstrap CIs.

    Systematic sampling at bucket-midpoint resolution: ``n = min(count,
    cap)`` evenly spaced ranks are materialized by one cumulative walk of
    the sparse buckets.  Feed the result to
    :func:`repro.perf.stats.bootstrap_ci` / ``SampleStats``.
    """
    total = int(series.get("count", 0))
    if total == 0:
        return []
    n = min(total, cap)
    buckets = [(int(i), int(c)) for i, c in series.get("buckets", ())]
    samples: List[float] = []
    seen = 0
    b = 0
    for j in range(n):
        rank = (j + 0.5) * total / n
        while b < len(buckets) and seen + buckets[b][1] < rank:
            seen += buckets[b][1]
            b += 1
        idx = buckets[b][0] if b < len(buckets) else buckets[-1][0]
        samples.append(float(bucket_mid(idx)))
    return samples
