"""Performance observatory for the reproduction harness itself.

Measures the *simulator as a program* rather than the simulated network
(that side is :mod:`repro.obs`):

* :mod:`repro.perf.fidelity` — a paper-fidelity scoreboard running the
  figure modules on reduced windows and scoring each reproduced
  headline number against the paper within explicit tolerance bands;
* :mod:`repro.perf.stats` — bootstrap confidence intervals, used by
  :mod:`repro.obs.diff`'s significance test.

Where the simulator's wall time goes is ``repro prof`` (stdlib
:mod:`cProfile` around one scenario run); the host-time benchmark of
record is ``benchmarks/e2e/`` (docs/BENCHMARKS.md).
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
from repro.perf.stats import SampleStats, bootstrap_ci, intervals_overlap

__all__ = [
    "FidelityCheck",
    "FidelityInputs",
    "SampleStats",
    "Scoreboard",
    "bootstrap_ci",
    "classify",
    "collect_inputs",
    "intervals_overlap",
    "run_fidelity",
    "score",
]
