"""System-wide configuration for a Fides deployment.

A :class:`SystemConfig` captures everything needed to instantiate a cluster:
how many servers and clients, how many data items per shard, whether the
datastore is multi-versioned, which signature scheme authenticates messages,
and how many transactions are batched per block.  The defaults mirror the
experimental setup of Section 6 of the paper (10 000 items per shard,
5 operations per transaction, 100 transactions per block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.errors import ConfigurationError
from repro.common.types import ServerId, make_server_id


@dataclass(frozen=True)
class SystemConfig:
    """Static configuration of a Fides cluster.

    Parameters
    ----------
    num_servers:
        Number of database servers; each stores exactly one shard (Section 6).
    items_per_shard:
        Number of data items initially loaded into each shard.
    txns_per_block:
        How many non-conflicting transactions the coordinator batches into a
        single block (Section 4.6); the paper's evaluation uses 100.
    ops_per_txn:
        Operations per transaction in generated workloads (the paper uses 5).
    multi_versioned:
        Whether datastores keep every committed version (enables per-version
        audits and recoverability, Section 4.2.1).
    message_signing:
        Name of the signature scheme used for per-message envelopes:
        ``"schnorr"`` (real public-key signatures, default) or ``"hash"``
        (an HMAC-style scheme used to keep very large benchmark sweeps
        tractable; block co-signing always uses real Schnorr/CoSi).
    pipeline_depth:
        How many consecutive block rounds one coordinator may keep in
        flight on the simulated timeline (DESIGN.md section 7).  The default
        of 1 reproduces the paper's sequential block production; depth >= 2
        lets phase 1 of block N+1 overlap phases 2-5 of block N where the
        chaining / commit-frontier / conflict rules allow.
    seed:
        Seed for deterministic key generation and workload generation.
    """

    num_servers: int = 5
    items_per_shard: int = 10_000
    txns_per_block: int = 100
    ops_per_txn: int = 5
    multi_versioned: bool = True
    message_signing: str = "schnorr"
    pipeline_depth: int = 1
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")
        if self.items_per_shard < 1:
            raise ConfigurationError("items_per_shard must be >= 1")
        if self.txns_per_block < 1:
            raise ConfigurationError("txns_per_block must be >= 1")
        if self.ops_per_txn < 1:
            raise ConfigurationError("ops_per_txn must be >= 1")
        if self.message_signing not in ("schnorr", "hash"):
            raise ConfigurationError(
                f"unknown message_signing scheme {self.message_signing!r};"
                " expected 'schnorr' or 'hash'"
            )
        if self.pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")

    @property
    def server_ids(self) -> List[ServerId]:
        """Canonical identifiers of all servers in the cluster."""
        return [make_server_id(i) for i in range(self.num_servers)]

    @property
    def total_items(self) -> int:
        """Total number of data items across all shards."""
        return self.num_servers * self.items_per_shard

