"""The tamper-proof, globally replicated transaction log.

Fides replaces traditional local transaction logs (ARIES-style) with a
globally replicated log of hash-chained, collectively signed blocks
(Sections 3.1, 4.1, 4.4).  Each block carries the fields of Table 1.
"""

from repro.ledger.block import Block, BlockDecision
from repro.ledger.checkpoint import (
    Checkpoint,
    apply_checkpoint,
    build_checkpoint,
    cosign_checkpoint,
)
from repro.ledger.log import LogVerificationResult, TransactionLog, verify_checkpoint

__all__ = [
    "Block",
    "BlockDecision",
    "Checkpoint",
    "LogVerificationResult",
    "TransactionLog",
    "apply_checkpoint",
    "build_checkpoint",
    "cosign_checkpoint",
    "verify_checkpoint",
]
