"""Declarative fault campaigns: scenarios, the matrix, and the runner.

The paper's central claim is *detection*: any malicious server behaviour is
caught by the external auditor (Lemmas 1-7) or by the TFCommit round itself.
This package turns that guarantee into a measurable, sweepable artifact --
see DESIGN.md ("Fault model & campaign engine") and
``python -m repro.bench faultmatrix``.  The fault vocabulary itself
(:class:`~repro.server.faults.FaultPlan`, its kinds and triggers) lives with
the server that executes it, in :mod:`repro.server.faults`.
"""

from repro.faultsim.campaign import (
    CampaignConfig,
    CampaignRunner,
    DetectionResult,
    run_campaign,
)
from repro.faultsim.plan import (
    RESERVED_ITEM,
    CampaignScenario,
    build_fault_matrix,
)

__all__ = [
    "CampaignConfig",
    "CampaignRunner",
    "CampaignScenario",
    "DetectionResult",
    "RESERVED_ITEM",
    "build_fault_matrix",
    "run_campaign",
]
