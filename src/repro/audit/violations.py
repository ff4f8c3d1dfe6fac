"""Violation types the auditor can report.

Each violation maps to one of the paper's lemmas / failure scenarios and
carries enough context to satisfy the paper's two detection goals
(Section 3.3): the precise point in the transaction history where the anomaly
occurred (``block_height``) and the misbehaving server(s) it is linked to
(``culprits``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple


class ViolationType(Enum):
    """Classes of detectable misbehaviour."""

    #: A log copy contains a modified or reordered block (Lemma 6).
    LOG_TAMPERED = "log-tampered"
    #: A log copy is missing tail blocks (Lemma 7).
    LOG_INCOMPLETE = "log-incomplete"
    #: A read returned a value inconsistent with the preceding write (Lemma 1).
    INCORRECT_READ = "incorrect-read"
    #: A committed transaction violates timestamp-order serializability (Lemma 3).
    ISOLATION_VIOLATION = "isolation-violation"
    #: The datastore state does not authenticate against the logged MHT root (Lemma 2).
    DATASTORE_CORRUPTION = "datastore-corruption"
    #: Different servers hold conflicting decisions / forked blocks (Lemma 5).
    ATOMICITY_VIOLATION = "atomicity-violation"
    #: A block carries a collective signature that does not verify (Lemma 4).
    INVALID_COSIGN = "invalid-cosign"
    #: A commit block is missing an involved server's root, or an abort block has all roots.
    MALFORMED_BLOCK = "malformed-block"
    #: The sharded sequencer's epoch-anchor chain does not match the per-shard
    #: chains replayed from the reference log (DESIGN.md section 5).
    ANCHOR_MISMATCH = "epoch-anchor-mismatch"


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected anomaly."""

    kind: ViolationType
    description: str
    culprits: Tuple[str, ...] = field(default_factory=tuple)
    block_height: Optional[int] = None
    item_id: Optional[str] = None
    txn_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "culprits", tuple(self.culprits))

    def involves(self, server_id: str) -> bool:
        return server_id in self.culprits

    def summary(self) -> str:
        where = f" at block {self.block_height}" if self.block_height is not None else ""
        who = f" (culprits: {', '.join(self.culprits)})" if self.culprits else ""
        return f"[{self.kind.value}]{where} {self.description}{who}"
