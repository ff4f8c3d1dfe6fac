"""The Fides database server.

A :class:`DatabaseServer` bundles the four components of Figure 3 -- the
execution layer, the commitment layer, the datastore, and the tamper-proof
log -- behind one network handler that dispatches on message type.  The
server is deliberately simple ("we choose a simplified design for a database
server to minimize the potential for failure", Section 3.1): it has no
front-end transaction manager; clients talk to it directly for data access,
and the designated coordinator talks to it during transaction termination.

Servers can **crash and recover** (the liveness half of the fault model):
:meth:`DatabaseServer.crash` drops every piece of volatile state -- the
execution buffers, the commitment layer's round state, the live datastore
and log objects, the network handler -- keeping only the identity keys and
the durable :class:`~repro.recovery.statestore.StateStore`.
:meth:`DatabaseServer.recover` rebuilds the server from that store, fetches
the block range it missed from (untrusted) peers via ``STATE_REQUEST``, and
re-registers on the network; see :mod:`repro.recovery` for the verification
the catch-up performs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.common.errors import (
    ConfigurationError,
    ProtocolError,
    ServerCrashed,
    UnreachableError,
)
from repro.common.timestamps import Timestamp
from repro.common.types import ServerId, Value
from repro.crypto.keys import KeyPair
from repro.ledger.checkpoint import Checkpoint, apply_checkpoint
from repro.ledger.log import TransactionLog
from repro.net.message import Envelope, MessageType
from repro.net.network import Network
from repro.recovery.manager import RecoveryResult, recover_server_state
from repro.recovery.statestore import MemoryStateStore, StateStore
from repro.server.commitment import CommitmentLayer
from repro.server.execution import ExecutionLayer
from repro.server.faults import FaultPlan, FaultPolicy
from repro.storage.datastore import DataStore


class DatabaseServer:
    """One untrusted database server storing a single shard."""

    def __init__(
        self,
        server_id: ServerId,
        keypair: KeyPair,
        items: Mapping[str, Value],
        clock,
        obs,
        multi_versioned: bool = True,
        state_store: Optional[StateStore] = None,
    ) -> None:
        self.server_id = server_id
        self.keypair = keypair
        #: The deployment's virtual clock and observability bundle: like the
        #: keys they are configuration, so they survive crashes and are
        #: handed to whatever layers and fault policy are active.
        self._clock = clock
        self._obs = obs
        #: Durable state (WAL or its in-memory simulation).  Every server has
        #: one -- crash/recovery is part of the deployment model, not an
        #: optional extra -- and it survives :meth:`crash` untouched.
        self.state_store = state_store or MemoryStateStore()
        self.store = DataStore(items, multi_versioned=multi_versioned)
        self.log = TransactionLog()
        #: The behaviour policy is configuration, not volatile state: a faulty
        #: machine that reboots is still the same (possibly faulty) machine.
        self.faults = FaultPolicy((), clock, obs)
        self._build_layers()
        self.state_store.initialize(server_id, self.store.export_state())
        #: Latest collectively signed checkpoint this server's log was
        #: truncated under (None until one is installed).
        self.latest_checkpoint: Optional[Checkpoint] = None
        #: Epoch anchors received from a sharded ordering service, in epoch
        #: order (possibly with gaps if this server was down when one was
        #: broadcast); volatile, like the rest of the unlogged message state.
        self.epoch_anchors: List = []
        self.crashed = False
        self._network: Optional[Network] = None
        #: Coordinator role (TFCommit or 2PC) if this server is the designated
        #: coordinator; set via :meth:`set_coordinator_role`.
        self.coordinator_role = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, network: Network, rejoin: bool = False) -> None:
        """Register this server's handler and keys on the network."""
        self._network = network
        network.register(self.server_id, self.keypair, self.handle, replace=rejoin)

    @property
    def network(self) -> Network:
        if self._network is None:
            raise ProtocolError(f"server {self.server_id} is not attached to a network")
        return self._network

    def _build_layers(self) -> None:
        """The volatile half of the server -- both layers over the current
        store and log, under the current fault policy -- at deployment and
        after a crash."""
        self.execution = ExecutionLayer(self.store, self.faults)
        self.commitment = CommitmentLayer(
            self.server_id,
            self.keypair,
            self.store,
            self.log,
            self._clock,
            self._obs,
            self.faults,
            on_block_applied=self._persist_block,
        )

    def set_faults(self, plans: Sequence[FaultPlan]) -> None:
        """From now on this server misbehaves as ``plans`` say (none: honestly).

        Time-based triggers fire on the deployment's clock, injections report
        to its obs.
        """
        for plan in plans:
            if plan.target != self.server_id:
                raise ConfigurationError(
                    f"fault plan targets {plan.target!r}, not server {self.server_id!r}"
                )
        self.faults = FaultPolicy(plans, self._clock, self._obs)
        self.execution.set_faults(self.faults)
        self.commitment.set_faults(self.faults)

    def set_coordinator_role(self, role) -> None:
        """Give this server the coordinator's extra termination duties (Section 4.1)."""
        self.coordinator_role = role

    def _persist_block(self, block) -> None:
        """Durability hook: record each applied block + resulting shard root."""
        self.state_store.record_block(block, self.store.merkle_root())
        self._obs.metrics.counter("recovery.wal_appends")

    # -- crash / recovery life-cycle -------------------------------------------

    def crash(self) -> None:
        """Crash: drop all volatile state, keeping only identity + durable state.

        The network handler is unregistered (messages to this server now
        raise :class:`UnreachableError`), and the live store, log, execution
        buffers, and per-round commitment state are discarded.  The
        :attr:`state_store` and the key pair survive -- they are what
        :meth:`recover` rebuilds from.
        """
        if self.crashed:
            return
        if self._network is not None:
            self._network.unregister(self.server_id)
        self.crashed = True
        self.store = None
        self.log = None
        self.execution = None
        self.commitment = None
        self.epoch_anchors = []

    def recover(self, peers: Sequence[ServerId] = ()) -> RecoveryResult:
        """Restore from the state store, catch up from ``peers``, and rejoin.

        The crash -> restore -> catch-up -> verify -> rejoin state machine of
        DESIGN.md section 6.  Raises
        :class:`~repro.common.errors.RecoveryError` if the persisted state is
        unusable or no peer's catch-up response survives verification.
        """
        if not self.crashed:
            raise ProtocolError(f"server {self.server_id} is not crashed")
        if self._network is None:
            raise ProtocolError(f"server {self.server_id} was never attached to a network")
        store, log, checkpoint, result = recover_server_state(
            self.server_id, self.state_store, self._network, list(peers)
        )
        self.store = store
        self.log = log
        self.latest_checkpoint = checkpoint
        self._build_layers()
        self._obs.metrics.counter("recovery.recoveries")
        self._obs.metrics.observe(
            "recovery.replayed_blocks", float(result.replayed_blocks + result.fetched_blocks)
        )
        self.crashed = False
        self.attach(self._network, rejoin=True)
        return result

    def install_checkpoint(self, checkpoint: Checkpoint) -> int:
        """Truncate the local log under a co-signed checkpoint (Section 3.3).

        Persists the checkpoint (with a fresh datastore snapshot) to the
        state store, compacting its WAL; returns the number of log blocks
        dropped.  A *stale* checkpoint -- at or below the boundary already
        installed -- is a no-op: regressing ``latest_checkpoint`` or
        rewriting the snapshot to an older boundary would leave the WAL
        inconsistent with the live log and unrecoverable.
        """
        if checkpoint.height < self.log.base_height:
            return 0
        removed = apply_checkpoint(self.log, checkpoint)
        self.latest_checkpoint = checkpoint
        self.state_store.install_checkpoint(
            checkpoint, self.store.export_state(), self.log.height, self.server_id
        )
        return removed

    # -- message dispatch -------------------------------------------------------

    def handle(self, envelope: Envelope):
        """Handle one verified envelope; returns the response payload."""
        handler = {
            MessageType.BEGIN_TRANSACTION: self._on_begin,
            MessageType.READ: self._on_read,
            MessageType.WRITE: self._on_write,
            MessageType.END_TRANSACTION: self._on_end_transaction,
            MessageType.GET_VOTE: self._on_get_vote,
            MessageType.CHALLENGE: self._on_challenge,
            MessageType.DECISION: self._on_decision,
            MessageType.ROUND_FAILED: self._on_round_failed,
            MessageType.ORDERED_BLOCK: self._on_ordered_block,
            MessageType.EPOCH_ANCHOR: self._on_epoch_anchor,
            MessageType.PREPARE: self._on_prepare,
            MessageType.COMMIT_DECISION: self._on_2pc_decision,
            MessageType.VIEW_CHANGE: self._on_view_change,
            MessageType.NEW_VIEW: self._on_new_view,
            MessageType.STATE_REQUEST: self._on_state_request,
            MessageType.AUDIT_LOG_REQUEST: self._on_audit_log_request,
            MessageType.AUDIT_VO_REQUEST: self._on_audit_vo_request,
        }.get(envelope.message_type)
        if handler is None:
            raise ProtocolError(
                f"server {self.server_id} cannot handle message type {envelope.message_type}"
            )
        try:
            return handler(envelope)
        except ServerCrashed as exc:
            # A crash fault fired mid-message: drop volatile state and surface
            # the loss of the reply as unreachability, exactly what the sender
            # of a message to a just-crashed machine observes.
            self.crash()
            raise UnreachableError(str(exc)) from None

    # -- execution-layer messages (Figure 6) --------------------------------------

    def _on_begin(self, envelope: Envelope):
        payload = envelope.payload
        self.execution.archive_client_message(envelope)
        self.execution.begin(payload["txn_id"], payload.get("client_id", envelope.sender))
        return {"ok": True, "server_id": self.server_id}

    def _on_read(self, envelope: Envelope):
        payload = envelope.payload
        self.execution.archive_client_message(envelope)
        # Execution-layer hooks see the height the *next* block would carry,
        # so height-based fault triggers line up with the commitment phases.
        self.faults.observe_phase("execute", self.log.height, (payload["txn_id"],))
        result = self.execution.read(payload["txn_id"], payload["item_id"])
        return result.to_wire()

    def _on_write(self, envelope: Envelope):
        payload = envelope.payload
        self.execution.archive_client_message(envelope)
        self.faults.observe_phase("execute", self.log.height, (payload["txn_id"],))
        old = self.execution.write(payload["txn_id"], payload["item_id"], payload["value"])
        return {"ok": True, "old": old.to_wire(), "server_id": self.server_id}

    def _on_end_transaction(self, envelope: Envelope):
        """Route a client's termination request to the coordinator role."""
        self.execution.archive_client_message(envelope)
        if self.coordinator_role is None:
            raise ProtocolError(
                f"server {self.server_id} received end_transaction but is not the coordinator"
            )
        return self.coordinator_role.on_end_transaction(envelope)

    # -- TFCommit cohort messages (Figure 7) ----------------------------------------

    def _on_get_vote(self, envelope: Envelope):
        payload = envelope.payload
        block = payload["block"]
        client_requests = payload.get("client_requests", [])
        force_abort_reason = ""
        for request in client_requests:
            if not self.network.verify_envelope(request):
                force_abort_reason = "encapsulated client request failed signature verification"
                break
        vote = self.commitment.handle_get_vote(
            block,
            force_abort_reason=force_abort_reason,
            coordinator=envelope.sender,
            client_requests=tuple(client_requests),
        )
        if isinstance(vote, dict):
            # Stale-view refusal: already in response form.
            return vote
        return vote.to_wire()

    def _on_challenge(self, envelope: Envelope):
        payload = envelope.payload
        return self.commitment.handle_challenge(
            challenge=payload["challenge"],
            aggregate_commitment=payload["aggregate_commitment"],
            block=payload["block"],
        )

    def _on_decision(self, envelope: Envelope):
        payload = envelope.payload
        block = payload["block"]
        response = self.commitment.handle_decision(block, self.network.public_key_directory())
        if response.get("ok"):
            # The block terminated its transactions; release their buffered
            # execution state so long multi-client runs do not accumulate it.
            self.execution.finish_many(txn.txn_id for txn in block.transactions)
        return response

    def _on_round_failed(self, envelope: Envelope):
        """Release buffered round state for a round the coordinator abandoned."""
        return self.commitment.handle_round_failed(envelope.payload["round_key"])

    # -- scaled deployment: ordered-stream delivery (Section 4.6) -------------------------

    def _on_ordered_block(self, envelope: Envelope):
        """Apply one globally ordered block delivered by the ordering
        service: the terminal path of a phase-5 decision, for every server."""
        return self._on_decision(envelope)

    def _on_epoch_anchor(self, envelope: Envelope):
        """Record one sealed ordering-epoch anchor (DESIGN.md §5).

        The server keeps the chain it can vouch for: a stale or replayed
        epoch is rejected, and a directly consecutive anchor must extend
        the previous one's hash.  Anchors arriving after a gap (this server
        was crashed during the missed epochs) are accepted -- chain
        linkage across the gap is the auditor's job, not the server's.
        """
        anchor = envelope.payload["anchor"]
        last = self.epoch_anchors[-1] if self.epoch_anchors else None
        if last is not None:
            if anchor.epoch <= last.epoch:
                return {
                    "ok": False,
                    "server_id": self.server_id,
                    "error": f"stale epoch anchor {anchor.epoch} (have {last.epoch})",
                }
            if anchor.epoch == last.epoch + 1 and anchor.previous != last.anchor_hash():
                return {
                    "ok": False,
                    "server_id": self.server_id,
                    "error": f"epoch anchor {anchor.epoch} breaks the anchor chain",
                }
        self.epoch_anchors.append(anchor)
        return {"ok": True, "server_id": self.server_id, "epoch": anchor.epoch}

    # -- 2PC baseline messages ----------------------------------------------------------

    def _on_prepare(self, envelope: Envelope):
        return self.commitment.handle_prepare(
            envelope.payload["block"],
            coordinator=envelope.sender,
            client_requests=tuple(envelope.payload.get("client_requests", ())),
        )

    def _on_2pc_decision(self, envelope: Envelope):
        block = envelope.payload["block"]
        response = self.commitment.handle_2pc_decision(block)
        if response.get("ok"):
            self.execution.finish_many(txn.txn_id for txn in block.transactions)
        return response

    # -- coordinator failover (view change) ------------------------------------------------

    def _on_view_change(self, envelope: Envelope):
        """Report this cohort's commit frontier + stalled rounds to a successor."""
        payload = envelope.payload
        group = payload.get("group")
        return self.commitment.handle_view_change(
            group=tuple(group) if group is not None else None,
            deposed=payload["deposed"],
            new_view=int(payload["view"]),
        )

    def _on_new_view(self, envelope: Envelope):
        """Install the successor's new view; refuse older proposals from now on."""
        payload = envelope.payload
        group = payload.get("group")
        return self.commitment.handle_new_view(
            group=tuple(group) if group is not None else None,
            deposed=payload["deposed"],
            new_view=int(payload["view"]),
        )

    # -- crash recovery: serving catch-up state to a restarted peer ------------------------

    def _on_state_request(self, envelope: Envelope):
        """Serve the block range a recovering peer is missing.

        Blocks cross this boundary as *wire dicts* (a real deployment ships
        bytes): the requester decodes and fully re-verifies them, because
        this server -- like any server -- is untrusted.  The fault policy's
        :meth:`~repro.server.faults.FaultPolicy.tamper_state_response` hook
        models a malicious peer doctoring the payload.
        """
        from_height = int(envelope.payload["from_height"])
        if from_height < self.log.base_height:
            return {
                "server_id": self.server_id,
                "ok": False,
                "reason": (
                    f"blocks below height {self.log.base_height} were checkpointed away"
                ),
                "head_height": self.log.height,
                "checkpoint": (
                    self.latest_checkpoint.to_wire()
                    if self.latest_checkpoint is not None
                    else None
                ),
            }
        blocks = [
            block.to_wire() for block in self.log if block.height >= from_height
        ]
        blocks = self.faults.tamper_state_response(blocks)
        return {
            "server_id": self.server_id,
            "ok": True,
            "from_height": from_height,
            "head_height": self.log.height,
            "blocks": blocks,
        }

    # -- audit messages (Section 3.3) -----------------------------------------------------

    def _on_audit_log_request(self, envelope: Envelope):
        """Hand over (a copy of) the local log, and its checkpoint if truncated."""
        return {
            "server_id": self.server_id,
            "log": self.log.copy(),
            "checkpoint": self.latest_checkpoint,
        }

    def _on_audit_vo_request(self, envelope: Envelope):
        """Produce a Verification Object for one item, optionally at a version."""
        payload = envelope.payload
        item_id = payload["item_id"]
        at = payload.get("at")
        if item_id not in self.store:
            return {"server_id": self.server_id, "ok": False, "reason": "item not stored here"}
        if at is None or not self.store.multi_versioned:
            vo = self.store.verification_object(item_id)
            root = self.store.merkle_root()
            value = self.store.read(item_id).value
        else:
            timestamp = Timestamp(at[0], at[1]) if isinstance(at, (tuple, list)) else at
            vo, root = self.store.verification_object_at(item_id, timestamp)
            value = self.store.read_version(item_id, timestamp).value
        return {"server_id": self.server_id, "ok": True, "vo": vo, "root": root, "value": value}

    # -- convenience -----------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Value]:
        """Latest committed value of every locally stored item."""
        return self.store.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatabaseServer({self.server_id!r}, items={len(self.store)}, "
            f"log_height={self.log.height}, faults={self.faults.name!r})"
        )
