"""The message table: every request and every protocol reply, declared once.

A message is its :class:`~repro.net.message.MessageType` and a payload; the
network is synchronous RPC, so the reply is the handler's return value.
:data:`MESSAGES` says, per type, which wire form the payload must be and
which form the reply is.  Everything that needs the vocabulary reads it from
here: senders construct ``row.request``, ``DatabaseServer.handle`` refuses a
payload that is anything else and calls ``_on_<type.value>``, and whoever
sent the request reads the answer through :func:`read_reply`.

A request's keys are exactly the keys its sender used to put in a dict, so
its bytes -- signed content, and what ``net.bytes`` meters -- did not move
when the dicts became forms.  A reply crosses as the plain data of its form
and is *believed only as far as it decodes*: the one reader is the strict
``from_wire``, and anything it will not read is a :class:`Refusal`, the one
shape "no" has -- from a handler that declines, from a peer that never
answered, from a reply that is not what its row declares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.common.wire import (
    ANY,
    BOOL,
    BYTES,
    INT,
    MAPPING,
    NUMBER,
    SCALAR,
    STR,
    TIMESTAMP,
    list_of,
    nested,
    optional,
    wire_form,
)
from repro.crypto.cosi import CollectiveSignature
from repro.crypto.merkle import VerificationObject
from repro.ledger.block import Block
from repro.net.message import Envelope, MessageType
from repro.storage.datastore import ReadResult
from repro.txn.transaction import Transaction

# -- requests ------------------------------------------------------------------------


@wire_form(("txn_id", STR), ("client_id", STR))
@dataclass(frozen=True, slots=True)
class BeginTxn:
    """A client opens ``txn_id`` on a server; ``client_id`` must be the sender."""

    txn_id: str
    client_id: str


@wire_form(("txn_id", STR), ("item_id", STR))
@dataclass(frozen=True, slots=True)
class ReadItem:
    txn_id: str
    item_id: str


@wire_form(("txn_id", STR), ("item_id", STR), ("value", ANY))
@dataclass(frozen=True, slots=True)
class WriteItem:
    txn_id: str
    item_id: str
    value: Any


@wire_form(("transaction", nested(Transaction)), ("commit_ts", TIMESTAMP))
@dataclass(frozen=True, slots=True)
class EndTxn:
    """A client's signed termination request; ``commit_ts`` must be the transaction's."""

    transaction: Transaction
    commit_ts: Timestamp

    @property
    def txn_id(self) -> str:
        """The transaction's id, as every other client request carries one."""
        return self.transaction.txn_id


@wire_form(("block", nested(Block)), ("client_requests", list_of(nested(Envelope))))
@dataclass(frozen=True, slots=True)
class Proposal:
    """A partial block and the signed ``END_TRANSACTION`` requests behind it:
    ``GET_VOTE``, ``PREPARE``, and a stalled round handed to a view change."""

    block: Block
    client_requests: Tuple[Envelope, ...] = ()


@wire_form(("challenge", SCALAR), ("aggregate_commitment", BYTES), ("block", nested(Block)))
@dataclass(frozen=True, slots=True)
class Challenge:
    challenge: int
    aggregate_commitment: bytes
    block: Block


@wire_form(("block", nested(Block)))
@dataclass(frozen=True, slots=True)
class DecidedBlock:
    """A terminated block: ``DECISION``, ``COMMIT_DECISION``, ``ORDERED_BLOCK``."""

    block: Block


@wire_form(("round_key", list_of(ANY)))
@dataclass(frozen=True, slots=True)
class RoundFailed:
    """:meth:`~repro.ledger.block.Block.round_key` of a round that will see no decision."""

    round_key: tuple


@wire_form(("group", optional(list_of(STR))), ("deposed", STR), ("view", INT))
@dataclass(frozen=True, slots=True)
class ViewChange:
    """``VIEW_CHANGE`` and ``NEW_VIEW``: ``deposed`` no longer leads ``group``
    (``None``: any group) from ``view`` on."""

    group: Optional[Tuple[str, ...]]
    deposed: str
    view: int


@wire_form(("from_height", INT))
@dataclass(frozen=True, slots=True)
class StateRequest:
    from_height: int


@wire_form(("full", BOOL))
@dataclass(frozen=True, slots=True)
class AuditLogRequest:
    full: bool = True


@wire_form(("item_id", STR), ("at", optional(TIMESTAMP)))
@dataclass(frozen=True, slots=True)
class AuditVoRequest:
    """A verification object for ``item_id``, as of version ``at`` (``None``: now)."""

    item_id: str
    at: Optional[Timestamp] = None


# -- replies -------------------------------------------------------------------------


@wire_form(
    ("server_id", STR), ("reason", STR), ("compute_time", NUMBER), ("unreachable", BOOL)
)
@dataclass(frozen=True, slots=True)
class Refusal:
    """Why ``server_id`` gave no answer of the row's form.

    ``unreachable`` is the reader's own observation that no reply ever came
    (:func:`repro.core.rounds.timed_exchange` sets it); :func:`read_reply`
    never takes a peer's word for it.
    """

    server_id: str
    reason: str
    compute_time: float = 0.0
    unreachable: bool = False


@wire_form(("server_id", STR))
@dataclass(frozen=True, slots=True)
class Ack:
    server_id: str


@wire_form(("old", nested(ReadResult)))
@dataclass(frozen=True, slots=True)
class WriteAck:
    """The value and timestamps the buffered write will replace."""

    old: ReadResult


@wire_form(
    ("server_id", STR),
    ("involved", BOOL),
    ("decision", STR),
    ("commitment", BYTES),
    ("root", optional(BYTES)),
    ("compute_time", NUMBER),
    ("mht_time", NUMBER),
    ("mht_hashes", INT),
    ("abort_reason", STR),
)
@dataclass
class VoteResult:
    """What a cohort returns from the vote phase."""

    server_id: str
    involved: bool
    decision: str
    commitment: bytes
    root: Optional[bytes]
    compute_time: float
    mht_time: float
    mht_hashes: int
    abort_reason: str = ""


@wire_form(("involved", BOOL), ("decision", STR), ("reason", STR), ("compute_time", NUMBER))
@dataclass(frozen=True, slots=True)
class PrepareVote:
    """A 2PC cohort's vote: no commitment, no root."""

    involved: bool
    decision: str
    reason: str
    compute_time: float


@wire_form(("response", SCALAR), ("compute_time", NUMBER))
@dataclass(frozen=True, slots=True)
class ChallengeResponse:
    response: int
    compute_time: float


@wire_form(("state_known", BOOL), ("compute_time", NUMBER))
@dataclass(frozen=True, slots=True)
class Applied:
    """The block is in the log; ``state_known``: this server had voted on it."""

    state_known: bool
    compute_time: float


@wire_form(("released", INT), ("compute_time", NUMBER))
@dataclass(frozen=True, slots=True)
class Released:
    """How many armed rounds ``ROUND_FAILED`` / ``NEW_VIEW`` made this cohort drop."""

    released: int
    compute_time: float = 0.0


@wire_form(
    ("server_id", STR),
    ("view", INT),
    ("height", INT),
    ("head_hash", BYTES),
    ("head", optional(MAPPING)),
)
@dataclass(frozen=True, slots=True)
class FrontierCertificate:
    """One cohort's signed-evidence claim of its commit frontier.

    ``head`` is the cohort's last log block in wire form; the block's
    collective signature is the certificate's authority -- the successor
    believes ``height``/``head_hash`` only after re-verifying the co-sign
    and recomputing the hash, so a Byzantine cohort cannot fabricate a
    frontier it never committed.  A height-0 certificate (empty log) carries
    no head and claims nothing that needs proving.
    """

    server_id: str
    view: int
    height: int
    head_hash: bytes
    head: Optional[dict] = None


@wire_form(
    ("certificate", nested(FrontierCertificate)),
    ("stalled", list_of(nested(Proposal))),
    ("compute_time", NUMBER),
)
@dataclass(frozen=True, slots=True)
class FrontierReport:
    """A cohort's answer to ``VIEW_CHANGE``: its frontier, and every round the
    deposed coordinator left armed on it."""

    certificate: FrontierCertificate
    stalled: Tuple[Proposal, ...]
    compute_time: float


@wire_form(("head_height", INT), ("blocks", list_of(nested(Block))))
@dataclass(frozen=True, slots=True)
class StateResponse:
    """The served block range and the serving peer's (claimed) log height."""

    head_height: int
    blocks: Tuple[Block, ...]


@wire_form(
    ("txn_id", STR),
    ("status", STR),
    ("block_height", optional(INT)),
    ("reason", STR),
    ("decided_at", optional(NUMBER)),
    ("block_digest", optional(BYTES)),
    ("cosign", optional(nested(CollectiveSignature))),
)
@dataclass(frozen=True, slots=True)
class TxnOutcome:
    """Outcome of one transaction within a block, and its proof: the decision
    block's signing digest and co-sign, which the client verifies itself
    (``None`` where the block carries no co-sign: 2PC, a failed round)."""

    txn_id: str
    status: str  # "committed" / "aborted" / "failed"
    block_height: Optional[int] = None
    reason: str = ""
    #: Virtual time at which the block's decision landed (the end of the
    #: round's terminal phase on the simulated timeline); ``None`` while a
    #: published group block still waits for its ordered delivery.
    decided_at: Optional[float] = None
    block_digest: Optional[bytes] = None
    cosign: Optional[CollectiveSignature] = None


@wire_form(
    ("queued", BOOL),
    ("outcomes", list_of(nested(TxnOutcome))),
    ("frontier", optional(TIMESTAMP)),
)
@dataclass(frozen=True, slots=True)
class Termination:
    """A coordinator's answer to ``END_TRANSACTION``: ``queued`` until the
    transaction's block fills, else the ``outcomes`` of every transaction the
    flush terminated and the committed ``frontier`` a client retrying a stale
    commit refreshes its clock from."""

    queued: bool
    outcomes: Tuple[TxnOutcome, ...] = ()
    frontier: Optional[Timestamp] = None


@wire_form(("value", ANY), ("vo", nested(VerificationObject)))
@dataclass(frozen=True, slots=True)
class Inclusion:
    """An item's stored value and the Merkle path that should prove it (the
    auditor holds the co-signed root it must lead to)."""

    value: Any
    vo: VerificationObject


# -- the table -----------------------------------------------------------------------


class Row(NamedTuple):
    request: type
    #: ``None``: the reply is not a declared form (yet) and its reader takes
    #: the handler's plain data as it comes.
    reply: Optional[type]


_T = MessageType
MESSAGES: Dict[MessageType, Row] = {
    _T.BEGIN_TRANSACTION: Row(BeginTxn, Ack),
    _T.READ: Row(ReadItem, ReadResult),
    _T.WRITE: Row(WriteItem, WriteAck),
    _T.END_TRANSACTION: Row(EndTxn, Termination),
    _T.GET_VOTE: Row(Proposal, VoteResult),
    _T.CHALLENGE: Row(Challenge, ChallengeResponse),
    _T.DECISION: Row(DecidedBlock, Applied),
    _T.ROUND_FAILED: Row(RoundFailed, Released),
    _T.ORDERED_BLOCK: Row(DecidedBlock, Applied),
    _T.VIEW_CHANGE: Row(ViewChange, FrontierReport),
    _T.NEW_VIEW: Row(ViewChange, Released),
    _T.PREPARE: Row(Proposal, PrepareVote),
    _T.COMMIT_DECISION: Row(DecidedBlock, Applied),
    _T.STATE_REQUEST: Row(StateRequest, StateResponse),
    # The auditor is handed a live TransactionLog: a declared form would
    # flatten every log at once (ROADMAP item 5(b)'s streamed form).
    _T.AUDIT_LOG_REQUEST: Row(AuditLogRequest, None),
    _T.AUDIT_VO_REQUEST: Row(AuditVoRequest, Inclusion),
}


def read_reply(message_type: MessageType, server_id: str, data):
    """What ``server_id`` answered a ``message_type`` request with: ``row.reply | Refusal``.

    The row's reply form if ``data`` decodes as one; else the
    :class:`Refusal` it decodes as (who answered, and that it did, are the
    reader's knowledge, not the peer's to state); else a refusal naming what
    kept ``data`` from being the row's form.  Never an exception: a peer
    cannot crash its reader, and a reply that says less, more or something
    else than its form is not an answer.
    """
    try:
        return MESSAGES[message_type].reply.from_wire(data)
    except ValidationError as malformed:
        try:
            refusal = Refusal.from_wire(data)
        except ValidationError:
            return Refusal(server_id, str(malformed))
        return Refusal(server_id, refusal.reason, refusal.compute_time)
