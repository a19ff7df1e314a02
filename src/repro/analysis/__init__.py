"""Analysis companions to the simulator.

* :mod:`repro.analysis.bottleneck` — a closed-form bottleneck model that
  predicts each scheme's single-flow throughput ceiling from a built
  scenario's datapath, placement and cost model (the back-of-envelope the
  calibration is built on); used to cross-validate the simulator and to
  explain results;
* :mod:`repro.analysis.charts` — dependency-free ASCII bar/line charts
  for experiment reports;
* :mod:`repro.analysis.conservation` — end-to-end packet-conservation
  checks (sent = delivered + dropped + in-flight) used by the
  integration tests.
"""

from repro.analysis.bottleneck import BottleneckModel, StageLoad
from repro.analysis.charts import bar_chart, line_chart
from repro.analysis.conservation import ConservationReport, check_conservation

__all__ = [
    "BottleneckModel",
    "StageLoad",
    "bar_chart",
    "line_chart",
    "ConservationReport",
    "check_conservation",
]
