"""Restoring a crashed server and catching it up from untrusted peers.

The recovery pipeline has two halves:

* :func:`restore_from_state` -- rebuild the datastore and the tamper-proof
  log from the :class:`~repro.recovery.statestore.PersistedState` a
  state store loaded.  The WAL is *trusted but verified*: every replayed
  block must reproduce the shard Merkle root recorded next to it, so silent
  WAL corruption (or a bug that diverged the live store from the log) fails
  loudly instead of resurrecting a wrong server.

* :func:`catch_up_from_peers` -- fetch the block range the WAL does not
  cover.  Peers are **untrusted** (the whole point of Fides), so a fetched
  range is believed only if every block passes (1) the ledger's chain rule
  -- it extends the local head -- and (2) its co-sign rule -- signed by
  exactly its recorded group, or by every server for a classic block (both
  in :mod:`repro.ledger.log`) -- and (3) replaying each commit block onto
  the restored shard reproduces the root the block advertises for this
  server *before* the writes are applied.  A response failing any check is
  rejected wholesale and the next peer is tried; blocks verified before the
  failure stay applied (each one was individually proven correct).

Check (1) anchors the range in state this server already trusts (its own
checkpoint / WAL head), (2) proves the whole cluster once agreed on every
block, and (3) closes the loop between log and datastore -- together a
tampering peer would need to forge a collective signature or find a hash
collision to make a recovering server accept a wrong block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    ConfigurationError,
    RecoveryError,
    UnreachableError,
    ValidationError,
)
from repro.ledger.block import Block
from repro.ledger.log import TransactionLog, verify_block
from repro.net.forms import Refusal, StateRequest, read_reply
from repro.net.message import MessageType
from repro.net.network import Network
from repro.obs.timing import Stopwatch
from repro.recovery.statestore import PersistedState, StateStore
from repro.storage.apply import block_local_writes, block_store_commits
from repro.storage.datastore import DataStore


@dataclass
class RecoveryResult:
    """What one crash-recovery pass did, for tests and the benchmark sweep."""

    server_id: str
    from_checkpoint_height: Optional[int] = None
    #: Blocks restored into the log straight from the state store.
    restored_blocks: int = 0
    #: Subset of restored blocks whose writes were replayed into the store.
    replayed_blocks: int = 0
    #: Blocks fetched from peers, verified, and applied.
    fetched_blocks: int = 0
    #: Peer that completed the catch-up (last useful response).
    served_by: str = ""
    #: ``(peer, reason)`` for every response that failed verification.
    rejected: List[Tuple[str, str]] = field(default_factory=list)
    caught_up: bool = True
    wall_time_s: float = 0.0

    @property
    def rejected_peers(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(peer for peer, _ in self.rejected))


def restore_from_state(
    state: PersistedState, result: Optional[RecoveryResult] = None
) -> Tuple[DataStore, TransactionLog]:
    """Rebuild (datastore, log) from persisted state, verifying replay roots."""
    store = DataStore.import_state(state.datastore_state)
    log = TransactionLog(
        base_height=state.log_base_height,
        base_hash=state.checkpoint.head_hash if state.checkpoint is not None else None,
    )
    for block, recorded_root in state.blocks:
        try:
            log.append(block)
        except ValidationError as exc:
            raise RecoveryError(f"persisted log does not chain: {exc}") from None
        if block.height >= state.snapshot_next_height:
            if block.is_commit:
                store.apply_batch(block_store_commits(block, store))
            if store.merkle_root() != recorded_root:
                raise RecoveryError(
                    f"replaying persisted block {block.height} does not reproduce "
                    "the recorded shard root (corrupt WAL or diverged store)"
                )
            if result is not None:
                result.replayed_blocks += 1
        if result is not None:
            result.restored_blocks += 1
    return store, log


def verify_and_apply_catchup(
    server_id: str,
    store: DataStore,
    log: TransactionLog,
    blocks: Sequence[Block],
    public_keys: Dict,
    servers: Collection[str],
    state_store: Optional[StateStore] = None,
    result: Optional[RecoveryResult] = None,
) -> int:
    """Apply a peer-served block range after full verification; returns count.

    Each block is verified *then* applied, one at a time, so a failure
    mid-range leaves the server in a consistent state at a higher height
    (everything already applied passed all three checks independently).
    ``servers`` is the cluster, the signer set of a classic block.
    ``result.fetched_blocks`` is advanced per applied block, so blocks that
    stay applied before a mid-range rejection are still accounted for.
    """
    applied = 0
    for block in blocks:
        reason = verify_block(block, log.height, log.head_hash, public_keys, servers)
        if reason:
            raise RecoveryError(f"catch-up block {block.height}: {reason}")
        if block.is_commit and server_id in block.roots:
            local_writes = block_local_writes(block.transactions, store)
            replayed_root, _ = store.speculative_root(local_writes)
            if replayed_root != block.roots[server_id]:
                raise RecoveryError(
                    f"replaying catch-up block {block.height} does not reproduce the "
                    "advertised shard root"
                )
        if block.is_commit:
            store.apply_batch(block_store_commits(block, store))
        log.append(block)
        if state_store is not None:
            state_store.record_block(block, store.merkle_root())
        applied += 1
        if result is not None:
            result.fetched_blocks += 1
    return applied


def catch_up_from_peers(
    server_id: str,
    store: DataStore,
    log: TransactionLog,
    network: Network,
    peers: Sequence[str],
    servers: Collection[str],
    state_store: Optional[StateStore] = None,
    result: Optional[RecoveryResult] = None,
) -> RecoveryResult:
    """Fetch and verify the missing block range, consulting every peer.

    Every peer is consulted: a peer's claimed ``head_height`` is just
    another untrusted statement, so an early-exit on the first "you are
    caught up" answer would let a malicious (or merely lagging) first peer
    terminate recovery prematurely and have the server rejoin stale.
    Responses failing verification are recorded in ``result.rejected`` and
    the remaining peers are still consulted -- one honest reachable peer
    suffices, exactly the failure model's guarantee.  ``caught_up`` is
    judged against the *largest* head any well-formed response claimed.
    """
    if result is None:
        result = RecoveryResult(server_id=server_id)
    public_keys = network.public_key_directory()
    #: True once verified blocks reached some well-formed peer's claimed
    #: head.  An *unreached* claim carries no weight either way: crediting it
    #: would let a lagging/lying peer end recovery stale, and requiring it
    #: would let a peer claiming an absurd head deny recovery -- every honest
    #: peer's claim is reachable through its own served blocks, and every
    #: peer gets consulted, so one honest peer settles it.
    satisfied = False
    for peer in peers:
        try:
            response = read_reply(
                MessageType.STATE_REQUEST,
                peer,
                network.send(
                    server_id, peer, MessageType.STATE_REQUEST, StateRequest(log.height)
                ),
            )
        except (UnreachableError, ConfigurationError) as exc:
            result.rejected.append((peer, f"peer unreachable: {exc}"))
            continue
        if type(response) is Refusal:
            result.rejected.append((peer, response.reason))
            continue
        try:
            applied = verify_and_apply_catchup(
                server_id,
                store,
                log,
                response.blocks,
                public_keys,
                servers,
                state_store=state_store,
                result=result,
            )
        except (RecoveryError, ValidationError) as exc:
            result.rejected.append((peer, str(exc)))
            continue
        if applied:
            result.served_by = peer
        if log.height >= response.head_height:
            satisfied = True
    result.caught_up = satisfied or not peers
    return result


def recover_server_state(
    server_id: str,
    state_store: StateStore,
    network: Network,
    peers: Sequence[str],
    servers: Collection[str],
) -> Tuple[DataStore, TransactionLog, Optional[object], RecoveryResult]:
    """The full recovery pipeline: load, restore+verify, catch up.

    Returns ``(store, log, checkpoint, result)`` -- the checkpoint is the
    one the persisted snapshot carried (``None`` at genesis), handed back so
    the caller does not have to decode the journal a second time.  Raises
    :class:`RecoveryError` when the persisted state is unusable or no peer
    could be caught up with (every response rejected/unreachable).
    """
    watch = Stopwatch()
    state = state_store.load()
    if state.server_id != server_id:
        raise RecoveryError(
            f"state store belongs to {state.server_id!r}, not {server_id!r}"
        )
    result = RecoveryResult(
        server_id=server_id,
        from_checkpoint_height=(
            state.checkpoint.height if state.checkpoint is not None else None
        ),
    )
    store, log = restore_from_state(state, result)
    catch_up_from_peers(
        server_id, store, log, network, peers, servers, state_store=state_store, result=result
    )
    if not result.caught_up:
        raise RecoveryError(
            f"{server_id} could not catch up with any peer: {result.rejected}"
        )
    result.wall_time_s = watch.elapsed()
    return store, log, state.checkpoint, result
