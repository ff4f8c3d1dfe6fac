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

from typing import Dict, Mapping, Optional, Sequence

from repro.common.errors import (
    ConfigurationError,
    ProtocolError,
    ServerCrashed,
    UnreachableError,
)
from repro.common.types import ServerId, Value
from repro.crypto.keys import KeyPair
from repro.ledger.checkpoint import Checkpoint, apply_checkpoint
from repro.ledger.log import TransactionLog
from repro.net.forms import (
    MESSAGES,
    Ack,
    Applied,
    EndTxn,
    Inclusion,
    Proposal,
    Refusal,
    StateResponse,
    WriteAck,
)
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
        cluster: Sequence[ServerId],
        multi_versioned: bool = True,
        state_store: Optional[StateStore] = None,
    ) -> None:
        self.server_id = server_id
        self.keypair = keypair
        #: Every server of the deployment, this one included: the signer set
        #: a classic block and a checkpoint must carry (DESIGN.md section 5).
        self.cluster = tuple(cluster)
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
            self.server_id, self.state_store, self._network, list(peers), self.cluster
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
        inconsistent with the live log and unrecoverable.  The archived
        client requests of the transactions in the dropped blocks go with
        them.
        """
        if checkpoint.height < self.log.base_height:
            return 0
        dropped = apply_checkpoint(self.log, checkpoint)
        self.execution.forget_client_messages(
            {txn.txn_id for block in dropped for txn in block.transactions}
        )
        self.latest_checkpoint = checkpoint
        self.state_store.install_checkpoint(
            checkpoint, self.store.export_state(), self.log.height, self.server_id
        )
        return len(dropped)

    # -- message dispatch -------------------------------------------------------

    def handle(self, envelope: Envelope):
        """Handle one verified envelope; returns the reply as plain data.

        The message table (:data:`repro.net.forms.MESSAGES`) says what the
        payload must be; the handler is ``_on_<type.value>``, found the way
        ``ast.NodeVisitor`` finds ``visit_*``.  A payload that is not its
        row's request form is refused here, before any handler reads it, and
        a declared reply is flattened here, after its handler built it.
        """
        message_type = envelope.message_type
        row = MESSAGES.get(message_type)
        if row is None:
            raise ProtocolError(
                f"server {self.server_id} cannot handle message type {message_type}"
            )
        if type(envelope.payload) is not row.request:
            reply = self._refuse(
                f"a {message_type.value} payload must be a {row.request.__name__}, "
                f"not {type(envelope.payload).__name__}"
            )
        else:
            try:
                reply = getattr(self, "_on_" + message_type.value)(envelope)
            except ServerCrashed as exc:
                # A crash fault fired mid-message: drop volatile state and surface
                # the loss of the reply as unreachability, exactly what the sender
                # of a message to a just-crashed machine observes.
                self.crash()
                raise UnreachableError(str(exc)) from None
        if row.reply is None and type(reply) is not Refusal:
            return reply
        return reply.to_wire()

    def _refuse(self, reason: str) -> Refusal:
        return Refusal(self.server_id, reason)

    # -- execution-layer messages (Figure 6) --------------------------------------

    def _on_begin_transaction(self, envelope: Envelope):
        request = envelope.payload
        self.execution.archive_client_message(envelope)
        if request.client_id != envelope.sender:
            return self._refuse(
                f"{envelope.sender} cannot open a transaction as {request.client_id}"
            )
        self.execution.begin(request.txn_id, request.client_id)
        return Ack(self.server_id)

    def _on_read(self, envelope: Envelope):
        request = envelope.payload
        self.execution.archive_client_message(envelope)
        # Execution-layer hooks see the height the *next* block would carry,
        # so height-based fault triggers line up with the commitment phases.
        self.faults.observe_phase("execute", self.log.height)
        return self.execution.read(request.txn_id, request.item_id)

    def _on_write(self, envelope: Envelope):
        request = envelope.payload
        self.execution.archive_client_message(envelope)
        self.faults.observe_phase("execute", self.log.height)
        return WriteAck(self.execution.write(request.txn_id, request.item_id, request.value))

    def _on_end_transaction(self, envelope: Envelope):
        """Route a client's termination request to the coordinator role."""
        request = envelope.payload
        self.execution.archive_client_message(envelope)
        if request.commit_ts != request.transaction.commit_ts:
            return self._refuse(
                f"end_transaction states commit timestamp {request.commit_ts}, "
                f"its transaction {request.transaction.commit_ts}"
            )
        if self.coordinator_role is None:
            raise ProtocolError(
                f"server {self.server_id} received end_transaction but is not the coordinator"
            )
        return self.coordinator_role.on_end_transaction(envelope)

    # -- TFCommit cohort messages (Figure 7) ----------------------------------------

    def _unbacked(self, proposal: Proposal) -> str:
        """Why ``proposal``'s block must not commit (``""``: it may).

        Section 4.3.1: a cohort verifies the client requests encapsulated in
        the coordinator's -- that each is signed, and that every transaction
        of the block *has* one: an ``END_TRANSACTION`` from the transaction's
        own client carrying that very transaction.  Without the second half a
        coordinator could have the cluster co-sign transactions no client
        ever asked for.
        """
        asked = set()
        for request in proposal.client_requests:
            if not self.network.verify_envelope(request):
                return "encapsulated client request failed signature verification"
            if request.message_type is MessageType.END_TRANSACTION and (
                type(request.payload) is EndTxn
            ):
                asked.add((request.sender, request.payload.transaction.wire_bytes()))
        for txn in proposal.block.transactions:
            if (txn.client_id, txn.wire_bytes()) not in asked:
                return f"no signed client request backs transaction {txn.txn_id}"
        return ""

    def _on_get_vote(self, envelope: Envelope):
        proposal = envelope.payload
        return self.commitment.handle_get_vote(
            proposal.block,
            force_abort_reason=self._unbacked(proposal),
            coordinator=envelope.sender,
            client_requests=proposal.client_requests,
        )

    def _on_challenge(self, envelope: Envelope):
        request = envelope.payload
        return self.commitment.handle_challenge(
            request.challenge, request.aggregate_commitment, request.block
        )

    def _on_decision(self, envelope: Envelope):
        block = envelope.payload.block
        reply = self.commitment.handle_decision(
            block, self.network.public_key_directory(), self.cluster
        )
        if type(reply) is Applied:
            # The block terminated its transactions; release their buffered
            # execution state so long multi-client runs do not accumulate it.
            self.execution.finish_many(txn.txn_id for txn in block.transactions)
        return reply

    def _on_round_failed(self, envelope: Envelope):
        """Release buffered round state for a round the coordinator abandoned."""
        return self.commitment.handle_round_failed(envelope.payload.round_key)

    # -- scaled deployment: ordered-stream delivery (Section 4.6) -------------------------

    def _on_ordered_block(self, envelope: Envelope):
        """Apply one globally ordered block delivered by the ordering
        service: the terminal path of a phase-5 decision, for every server."""
        return self._on_decision(envelope)

    # -- 2PC baseline messages ----------------------------------------------------------

    def _on_prepare(self, envelope: Envelope):
        """The baseline trusts its infrastructure: the requests ride along for
        a view change to re-propose, unverified."""
        proposal = envelope.payload
        return self.commitment.handle_prepare(
            proposal.block,
            coordinator=envelope.sender,
            client_requests=proposal.client_requests,
        )

    def _on_commit_decision(self, envelope: Envelope):
        block = envelope.payload.block
        reply = self.commitment.handle_2pc_decision(block)
        self.execution.finish_many(txn.txn_id for txn in block.transactions)
        return reply

    # -- coordinator failover (view change) ------------------------------------------------

    def _on_view_change(self, envelope: Envelope):
        """Report this cohort's commit frontier + stalled rounds to a successor."""
        request = envelope.payload
        return self.commitment.handle_view_change(request.group, request.deposed, request.view)

    def _on_new_view(self, envelope: Envelope):
        """Install the successor's new view; refuse older proposals from now on."""
        request = envelope.payload
        return self.commitment.handle_new_view(request.group, request.deposed, request.view)

    # -- crash recovery: serving catch-up state to a restarted peer ------------------------

    def _on_state_request(self, envelope: Envelope):
        """Serve the block range a recovering peer is missing.

        The requester re-reads the reply strictly and fully re-verifies every
        block, because this server -- like any server -- is untrusted.  The
        fault policy's
        :meth:`~repro.server.faults.FaultPolicy.tamper_state_response` hook
        models a malicious peer doctoring the range it serves.
        """
        from_height = envelope.payload.from_height
        if from_height < self.log.base_height:
            return self._refuse(
                f"blocks below height {self.log.base_height} were checkpointed away"
            )
        blocks = [block for block in self.log if block.height >= from_height]
        return StateResponse(self.log.height, tuple(self.faults.tamper_state_response(blocks)))

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
        item_id, at = envelope.payload.item_id, envelope.payload.at
        if item_id not in self.store:
            return self._refuse("item not stored here")
        if at is None or not self.store.multi_versioned:
            vo = self.store.verification_object(item_id)
            return Inclusion(self.store.read(item_id).value, vo)
        vo, _ = self.store.verification_object_at(item_id, at)
        return Inclusion(self.store.read_version(item_id, at).value, vo)

    # -- convenience -----------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Value]:
        """Latest committed value of every locally stored item."""
        return self.store.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatabaseServer({self.server_id!r}, items={len(self.store)}, "
            f"log_height={self.log.height}, faults={self.faults.name!r})"
        )
