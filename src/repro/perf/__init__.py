"""Performance observatory for the reproduction harness itself.

Measures the *simulator as a program* rather than the simulated network
(that side is :mod:`repro.obs`):

* :mod:`repro.perf.selfprof` — wall-clock self-profiling of the
  discrete-event hot path (heap traffic, per-component callback costs,
  events/sec), behind a ``selfprof`` toggle that mirrors ``obs=None``;
* :mod:`repro.perf.fidelity` — a paper-fidelity scoreboard running the
  figure modules on reduced windows and scoring each reproduced
  headline number against the paper within explicit tolerance bands;
* :mod:`repro.perf.stats` — bootstrap confidence intervals, used by
  :mod:`repro.obs.diff`'s significance test.

The host-time benchmark of record is ``benchmarks/e2e/``
(docs/BENCHMARKS.md).
"""

from repro.perf.fidelity import (
    FidelityCheck,
    FidelityInputs,
    Scoreboard,
    classify,
    collect_inputs,
    run_fidelity,
    score,
)
from repro.perf.selfprof import SelfProfiler
from repro.perf.stats import SampleStats, bootstrap_ci, intervals_overlap

__all__ = [
    "FidelityCheck",
    "FidelityInputs",
    "SampleStats",
    "Scoreboard",
    "SelfProfiler",
    "bootstrap_ci",
    "classify",
    "collect_inputs",
    "intervals_overlap",
    "run_fidelity",
    "score",
]
