"""Live container migration as a first-class chaos scenario.

``plan`` declares a cutover (drain window, transfer model, balancer
geometry); an inert plan is no plan (see repro.workloads.options);
``controller`` executes it as simulator events against a scenario.  The
consistent-hash ingress balancer the cutover pivots on lives in
:mod:`repro.overlay.balancer`.
"""

from repro.migration.controller import MigrationController
from repro.migration.plan import PLANS, MigrationPlan

__all__ = [
    "MigrationController",
    "MigrationPlan",
    "PLANS",
]
