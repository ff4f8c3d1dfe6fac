"""Message types and signed envelopes.

Every protocol message is wrapped in an :class:`Envelope`: sender, recipient,
type, payload, and the sender's signature over the canonical encoding of all
of it.  Receivers verify the signature before processing (Section 3.1); an
envelope that fails verification is rejected with
:class:`~repro.common.errors.SignatureError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Tuple

from repro.common.encoding import canonical_encode
from repro.common.wire import ANY, BYTES, STR, enum_of, optional, sub, wire_form


class MessageType(Enum):
    """All *request* message kinds exchanged in Fides.

    The names follow the transaction life-cycle of Figure 5 and the TFCommit
    phases of Figure 7.  The network is synchronous-RPC
    (:meth:`~repro.net.network.Network.send` returns the handler's result),
    so replies -- votes, read results, state and audit responses -- travel as
    handler *return payloads* and have no enveloped type of their own.  What
    each member's payload and reply are is declared once, in
    :data:`repro.net.forms.MESSAGES`; ``tests/net/test_forms.py`` holds
    members, table rows and ``DatabaseServer._on_<value>`` handlers in
    bijection, and ``tests/check/test_flowgraph.py`` records which members
    each deployment really sends.
    """

    # Transaction execution (client <-> server), Figure 6.
    BEGIN_TRANSACTION = "begin_transaction"
    READ = "read"
    WRITE = "write"
    END_TRANSACTION = "end_transaction"

    # TFCommit phases (coordinator <-> cohorts), Figure 7.  The cohort's
    # <TxnVote, SchCommit> and <null, SchResponse> halves are the returns of
    # GET_VOTE and CHALLENGE respectively.
    GET_VOTE = "get_vote"
    CHALLENGE = "challenge"
    DECISION = "decision"
    #: A round that failed (refusals, bad co-sign) is abandoned explicitly so
    #: cohorts release the per-round state they buffered for it.
    ROUND_FAILED = "round_failed"

    # Scaled deployment (Section 4.6): the ordering service's atomic broadcast
    # of globally chained per-group blocks.
    ORDERED_BLOCK = "ordered_block"

    # Coordinator failover (view change): the successor solicits each
    # surviving cohort's commit frontier + stalled rounds, then announces the
    # new view so cohorts stop accepting the deposed coordinator's proposals.
    VIEW_CHANGE = "view_change"
    NEW_VIEW = "new_view"

    # 2PC baseline phases (the prepare vote is PREPARE's return payload).
    PREPARE = "prepare"
    COMMIT_DECISION = "commit_decision"

    # Crash recovery: a restarted server fetches its missing block range from
    # (untrusted) peers and verifies it before applying.
    STATE_REQUEST = "state_request"

    # Audit traffic (auditor <-> servers).
    AUDIT_LOG_REQUEST = "audit_log_request"
    AUDIT_VO_REQUEST = "audit_vo_request"


@wire_form(
    sub(
        "content",
        ("sender", STR),
        ("recipient", STR),
        ("type", enum_of(MessageType), "message_type"),
        ("payload", ANY),
    ),
    ("signature", optional(BYTES)),
)
@dataclass(frozen=True, slots=True)
class Envelope:
    """A signed protocol message.

    ``signature`` covers the canonical encoding of
    ``(sender, recipient, message_type, payload)`` under the sender's key; it
    is ``None`` only transiently while the envelope is being built.
    """

    sender: str
    recipient: str
    message_type: MessageType
    payload: Any
    signature: Optional[bytes] = None

    def with_signature(self, signature: bytes) -> "Envelope":
        return Envelope(
            sender=self.sender,
            recipient=self.recipient,
            message_type=self.message_type,
            payload=self.payload,
            signature=signature,
        )


#: Stands in the payload's place while :func:`content_frame` reads the layout
#: around it.  Everything else in ``content`` is UTF-8 text behind a four-byte
#: length, where sixteen ``0xFF`` bytes cannot occur.
_PAYLOAD_MARK = b"\xff" * 16


def content_frame(sender: str, recipient: str, message_type: MessageType) -> Tuple[bytes, bytes]:
    """The bytes of an envelope's ``content`` before and after its payload's.

    ``b"".join((before, canonical_encode(payload), after))`` is
    ``Envelope(sender, recipient, message_type, payload).content_bytes()`` for
    every payload: the two halves are cut from the derived encoder's own
    output, so whoever splices them writes the declared layout.
    """
    framed = Envelope(sender, recipient, message_type, _PAYLOAD_MARK).content_bytes()
    before, _, after = framed.partition(canonical_encode(_PAYLOAD_MARK))
    return before, after
