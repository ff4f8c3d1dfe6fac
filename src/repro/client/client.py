"""The Fides client run-time library.

A :class:`FidesClient` is how an application accesses data stored on the
untrusted servers (Figure 4): it locates the server owning each item via the
shard map, sends signed begin / read / write requests directly to that
server, and sends the signed ``end_transaction`` request -- carrying the full
read and write sets -- to the designated coordinator.  When the coordinator
returns a decision, the client verifies the collective signature before
accepting it (Section 4.3.1: "even an aborted transaction must be signed by
all the servers"); a failed verification is an anomaly that should trigger an
audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.common.errors import ProtocolError, SignatureError
from repro.common.timestamps import TimestampGenerator
from repro.common.types import ClientId, ItemId, Value
from repro.crypto.cosi import cosi_verify
from repro.crypto.keys import KeyPair
from repro.net.forms import (
    BeginTxn,
    EndTxn,
    ReadItem,
    Refusal,
    Termination,
    TxnOutcome,
    WriteItem,
    read_reply,
)
from repro.net.message import Envelope, MessageType
from repro.net.network import Network
from repro.client.session import TransactionSession
from repro.storage.shard import ShardMap
from repro.txn.transaction import Transaction


@dataclass(frozen=True, slots=True)
class CommitOutcome:
    """What the client learns about a terminated transaction."""

    txn_id: str
    status: str  # "committed", "aborted", "queued", or "failed"
    block_height: Optional[int] = None
    reason: str = ""
    cosign_verified: bool = False
    #: Virtual time the terminating block's decision landed on the simulated
    #: event timeline (``None`` for queued outcomes or sim-less deployments).
    decided_at: Optional[float] = None

    @property
    def committed(self) -> bool:
        return self.status == "committed"

    @property
    def pending(self) -> bool:
        return self.status == "queued"


class FidesClient:
    """Application-facing client: begin / read / write / commit."""

    def __init__(
        self,
        client_id: ClientId,
        keypair: KeyPair,
        network: Network,
        shard_map: ShardMap,
        coordinator_id: str,
        coordinator_router: Optional[Callable[[Transaction], str]] = None,
    ) -> None:
        """``coordinator_router`` overrides the fixed designated coordinator:
        in the scaled deployment (Section 4.6) each transaction is terminated
        by its dynamic group's coordinator, so the router maps the built
        transaction to the server that coordinates its group."""
        self.client_id = client_id
        self.keypair = keypair
        self._network = network
        self._shard_map = shard_map
        self._coordinator_id = coordinator_id
        self._coordinator_router = coordinator_router
        self._clock = TimestampGenerator(client_id)
        self._txn_counter = 0
        #: The last proof that verified: the outcomes of one block share it.
        self._verified_proof = None
        network.register_observer(client_id, keypair)

    def coordinator_for(self, txn: Transaction) -> str:
        """The server this transaction's ``end_transaction`` goes to."""
        if self._coordinator_router is not None:
            return self._coordinator_router(txn)
        return self._coordinator_id

    # -- transaction life-cycle (Figure 5) ------------------------------------------

    def begin(self) -> TransactionSession:
        """Start a new transaction and return its session."""
        self._txn_counter += 1
        txn_id = f"{self.client_id}-txn-{self._txn_counter}"
        return TransactionSession(txn_id=txn_id, client_id=self.client_id)

    def read(self, session: TransactionSession, item_id: ItemId) -> Value:
        """Read ``item_id`` within ``session``; returns the value reported by the server."""
        server_id = self._shard_map.server_for(item_id)
        self._ensure_begun(session, server_id)
        result = self._ask(server_id, MessageType.READ, ReadItem(session.txn_id, item_id))
        self._clock.observe(result.rts)
        self._clock.observe(result.wts)
        session.record_read(item_id, result.value, result.rts, result.wts)
        return result.value

    def write(self, session: TransactionSession, item_id: ItemId, value: Value) -> None:
        """Write ``value`` to ``item_id`` within ``session`` (buffered server-side)."""
        server_id = self._shard_map.server_for(item_id)
        self._ensure_begun(session, server_id)
        old = self._ask(
            server_id, MessageType.WRITE, WriteItem(session.txn_id, item_id, value)
        ).old
        self._clock.observe(old.rts)
        self._clock.observe(old.wts)
        session.record_write(item_id, value, old.value, old.rts, old.wts)

    def commit(self, session: TransactionSession) -> CommitOutcome:
        """Terminate the transaction: send ``end_transaction`` to the coordinator.

        The returned outcome is ``queued`` when the coordinator batches
        transactions into blocks and the current block is not yet full; the
        caller then learns the final outcome from a later flush (see
        :class:`~repro.core.fides.FidesSystem`).
        """
        outcome, _ = self.commit_with_response(session)
        return outcome

    def commit_with_response(self, session: TransactionSession):
        """Like :meth:`commit` but also return the coordinator's reply, a
        :class:`~repro.net.forms.Termination` or a :class:`Refusal`.

        A flushed reply may carry outcomes of *other* queued transactions
        that terminated in the same flush; the workload engine and the
        benchmark harness use it to resolve those.
        """
        for stamp in session.observed_timestamps():
            self._clock.observe(stamp)
        commit_ts = self._clock.next()
        txn = session.build_transaction(commit_ts)
        coordinator_id = self.coordinator_for(txn)
        envelope = self._network.sign_envelope(
            self._end_transaction_envelope(txn, coordinator_id)
        )
        data = self._network.send(
            self.client_id,
            coordinator_id,
            MessageType.END_TRANSACTION,
            envelope.payload,
            presigned=envelope,
        )
        reply = read_reply(MessageType.END_TRANSACTION, coordinator_id, data)
        return self.interpret_outcome(txn.txn_id, reply), reply

    def _end_transaction_envelope(self, txn: Transaction, coordinator_id: str):
        return Envelope(
            sender=self.client_id,
            recipient=coordinator_id,
            message_type=MessageType.END_TRANSACTION,
            payload=EndTxn(txn, txn.commit_ts),
        )

    # -- outcome handling ----------------------------------------------------------------

    def interpret_outcome(self, txn_id: str, reply: Union[Termination, Refusal]) -> CommitOutcome:
        """Turn a coordinator's reply into ``txn_id``'s :class:`CommitOutcome`:
        ``failed`` with the reason of a refusal, or of a flush that carries
        no outcome for it."""
        if type(reply) is Refusal:
            return CommitOutcome(txn_id=txn_id, status="failed", reason=reply.reason)
        if reply.queued:
            return CommitOutcome(txn_id=txn_id, status="queued")
        for outcome in reply.outcomes:
            if outcome.txn_id == txn_id:
                return self.accept(outcome)
        return CommitOutcome(txn_id=txn_id, status="failed", reason="no outcome for txn")

    def accept(self, outcome: TxnOutcome) -> CommitOutcome:
        """One outcome, believed once its proof -- the block digest and
        collective signature, if it carries them -- verifies against the
        public keys of all servers."""
        proof = (outcome.block_digest, outcome.cosign)
        verified = outcome.block_digest is not None and outcome.cosign is not None
        if verified and proof != self._verified_proof:
            if not cosi_verify(
                outcome.cosign, outcome.block_digest, self._network.public_key_directory()
            ):
                # An invalid co-sign on a decision is itself an anomaly the
                # client reports (it would trigger an audit, Section 4.3.1).
                raise SignatureError(
                    f"client {self.client_id}: decision for {outcome.txn_id} "
                    "carries an invalid co-sign"
                )
            self._verified_proof = proof
        return CommitOutcome(
            txn_id=outcome.txn_id,
            status=outcome.status,
            block_height=outcome.block_height,
            reason=outcome.reason,
            cosign_verified=verified,
            decided_at=outcome.decided_at,
        )

    # -- helpers ------------------------------------------------------------------------------

    def _ask(self, server_id: str, message_type: MessageType, request):
        """Send ``request`` and return the reply of its row's form.

        The server is untrusted: anything else it answered -- a refusal, or
        a reply that does not decode -- is a :class:`ProtocolError` the
        application can catch, naming the server's reason.
        """
        reply = read_reply(
            message_type,
            server_id,
            self._network.send(self.client_id, server_id, message_type, request),
        )
        if type(reply) is Refusal:
            raise ProtocolError(
                f"client {self.client_id}: {server_id} refused {message_type.value}: "
                f"{reply.reason}"
            )
        return reply

    def _ensure_begun(self, session: TransactionSession, server_id: str) -> None:
        """Send Begin Transaction to a server the first time the session touches it."""
        if server_id in session.servers_contacted:
            return
        self._ask(
            server_id, MessageType.BEGIN_TRANSACTION, BeginTxn(session.txn_id, self.client_id)
        )
        session.record_server(server_id)

    @property
    def clock(self) -> TimestampGenerator:
        return self._clock
