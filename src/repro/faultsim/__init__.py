"""Declarative fault campaigns: scenarios, the matrix, and the sweep's script.

The paper's central claim is *detection*: any malicious server behaviour is
caught by the external auditor (Lemmas 1-7) or by the TFCommit round itself.
This package turns that guarantee into a measurable, sweepable artifact: the
scenario rows and the fault x trigger grid (:mod:`repro.faultsim.plan`), and
the script of the ``faultmatrix`` sweep row (:mod:`repro.faultsim.campaign`),
which builds every scenario's system with :func:`repro.bench.harness.build`
and reports one ``(AuditReport, row)`` pair per scenario -- see DESIGN.md
("Fault model & campaign engine") and ``python -m repro.bench faultmatrix``.
The fault vocabulary itself (:class:`~repro.server.faults.FaultPlan`, its
kinds and triggers) lives with the server that executes it, in
:mod:`repro.server.faults`.
"""

from repro.faultsim.campaign import fault_matrix, run_scenario
from repro.faultsim.plan import (
    RESERVED_ITEM,
    CampaignScenario,
    build_fault_matrix,
)

__all__ = [
    "CampaignScenario",
    "RESERVED_ITEM",
    "build_fault_matrix",
    "fault_matrix",
    "run_scenario",
]
