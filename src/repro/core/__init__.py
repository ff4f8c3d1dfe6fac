"""The paper's primary contribution: TFCommit and the Fides system assembly.

* :mod:`repro.core.rounds` -- the round object, its lifecycle and the driver
  both commit protocols share.
* :mod:`repro.core.tfcommit` -- the TrustFree Commitment protocol (Section 4.3).
* :mod:`repro.core.twopc` -- the trusted Two-Phase Commit baseline (Section 6.1).
* :mod:`repro.core.fides` -- the one deployment: servers, clients, the
  coordinator table, failover, flush, audits.
* :mod:`repro.core.grouping` / :mod:`repro.core.sequencing` -- the scale-out path
  of Section 4.6 (dynamic groups and the block ordering service).
* :mod:`repro.core.scaled` -- the Section 4.6 wiring of that deployment:
  group coordinators and the ordered-delivery subscriber.

Elsewhere in ``repro``, :func:`repro.bench.harness.build` is the only code
that constructs a deployment (from an ``ExperimentConfig``).
"""

from repro.core.rounds import BatchBuilder, BlockCommitResult, TimingBreakdown, TxnOutcome
from repro.core.tfcommit import TFCommitCoordinator
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
