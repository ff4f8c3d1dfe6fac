"""The paper's primary contribution: TFCommit and the Fides system assembly.

* :mod:`repro.core.tfcommit` -- the TrustFree Commitment protocol (Section 4.3).
* :mod:`repro.core.twopc` -- the trusted Two-Phase Commit baseline (Section 6.1).
* :mod:`repro.core.fides` -- cluster assembly: servers, clients, coordinator, audits.
* :mod:`repro.core.grouping` / :mod:`repro.core.sequencing` -- the scale-out path
  of Section 4.6 (per-group coordinators and the block ordering service).
* :mod:`repro.core.scaled` -- the scaled multi-coordinator deployment wiring
  dynamic groups and the ordering service into a full system.
"""

from repro.core.tfcommit import (
    BatchBuilder,
    BlockCommitResult,
    TFCommitCoordinator,
    TimingBreakdown,
    TxnOutcome,
)
from repro.core.twopc import TwoPhaseCommitCoordinator
from repro.core.fides import FidesSystem
from repro.core.grouping import ServerGroup, group_for_batch, group_for_transaction
from repro.core.scaled import GroupTFCommitCoordinator, ScaledFidesSystem
from repro.core.sequencing import OrderedBlock, OrderingService

__all__ = [
    "BatchBuilder",
    "BlockCommitResult",
    "FidesSystem",
    "GroupTFCommitCoordinator",
    "OrderedBlock",
    "OrderingService",
    "ScaledFidesSystem",
    "ServerGroup",
    "TFCommitCoordinator",
    "TimingBreakdown",
    "TwoPhaseCommitCoordinator",
    "TxnOutcome",
    "group_for_batch",
    "group_for_transaction",
]
