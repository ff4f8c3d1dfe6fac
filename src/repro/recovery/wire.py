"""Decoding untrusted wire/WAL structures back into domain objects.

The recovery subsystem is the one place where blocks and checkpoints cross a
*byte* boundary: the write-ahead log persists them across a crash, and the
catch-up protocol ships them from peers that may lie.  Every ``to_wire()``
producer in the library therefore gets its inverse here, in one module, so
the trust boundary is explicit: anything built by these functions came from
bytes an attacker could have chosen and **must** still pass hash-chain,
co-sign, and root-replay verification before it is believed (see
:mod:`repro.recovery.manager`).

Decoders are strict -- missing fields, wrong types, or malformed nesting
raise :class:`~repro.common.errors.ValidationError` -- because a garbled
record must never half-materialise into a plausible-looking block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Union

from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.crypto.cosi import CollectiveSignature
from repro.crypto.merkle import VerificationObject
from repro.ledger.anchor import EpochAnchor
from repro.ledger.block import Block, BlockDecision
from repro.ledger.checkpoint import Checkpoint
from repro.storage.datastore import ReadResult
from repro.storage.record import RecordVersion
from repro.txn.operations import ReadOp, WriteOp
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

if TYPE_CHECKING:  # pragma: no cover - type-only; see the deferred imports below
    from repro.core.grouping import ServerGroup
    from repro.core.rounds import TxnOutcome
    from repro.net.message import Envelope
    from repro.server.commitment import VoteResult


#: What a decoder's field accesses and coercions raise on malformed input.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _fail(what: str, exc: Exception) -> ValidationError:
    return ValidationError(f"malformed wire encoding of {what}: {exc}")


def _is(value, kind, what: str):
    """``value``, if it is a ``kind`` (a bool is not a number): identifiers
    and integers are checked, not coerced -- ``str(b"s0")`` would decode."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(f"{what} must be {kind}, not {type(value).__name__}")
    return value


def _scalar(value, what: str) -> int:
    """A Schnorr scalar: an integer that fits the 32 bytes it is encoded in."""
    if not 0 <= _is(value, int, what) < 1 << 256:
        raise ValidationError(f"{what} must fit 32 bytes")
    return value


def _opt(value, kind, what: str):
    """``value``, if it is ``None`` or a ``kind``."""
    return None if value is None else _is(value, kind, what)


def _list(values, what: str):
    return _is(values, (list, tuple), what)


def _ids(values, what: str) -> tuple:
    """A list of string identifiers (server ids, signer ids)."""
    return tuple(_is(value, str, what) for value in _list(values, what))


def _id_set(values, what: str) -> tuple:
    """A set of identifiers in its one wire form: sorted, without repeats
    (any other order would decode to the same set but not re-encode to the
    bytes it came from)."""
    members = _ids(values, what)
    if list(members) != sorted(set(members)):
        raise ValidationError(f"{what} must be sorted and free of repeats")
    return members


#: Durations and virtual times: either number type, kept as it arrived.
_NUMBER = (int, float)


def _roots(roots, what: str) -> dict:
    """A ``server id -> Merkle root`` mapping."""
    for server_id, root in _is(roots, Mapping, what).items():
        _is(server_id, str, what)
        _is(root, bytes, what)
    return dict(roots)


def timestamp_from_wire(pair) -> Timestamp:
    """Inverse of :meth:`Timestamp.as_tuple` (tuples arrive as lists)."""
    try:
        counter, client_id = _is(pair, (list, tuple), "timestamp")
        return Timestamp(_is(counter, int, "counter"), _is(client_id, str, "client id"))
    except _MALFORMED as exc:
        raise _fail("timestamp", exc) from None


def read_entry_from_wire(data: Mapping) -> ReadSetEntry:
    try:
        return ReadSetEntry(
            item_id=_is(data["item_id"], str, "item id"),
            value=data["value"],
            rts=timestamp_from_wire(data["rts"]),
            wts=timestamp_from_wire(data["wts"]),
        )
    except _MALFORMED as exc:
        raise _fail("read-set entry", exc) from None


def write_entry_from_wire(data: Mapping) -> WriteSetEntry:
    try:
        return WriteSetEntry(
            item_id=_is(data["item_id"], str, "item id"),
            new_value=data["new_value"],
            old_value=data["old_value"],
            rts=timestamp_from_wire(data["rts"]),
            wts=timestamp_from_wire(data["wts"]),
            blind=_is(data["blind"], bool, "blind flag"),
        )
    except _MALFORMED as exc:
        raise _fail("write-set entry", exc) from None


def transaction_from_wire(data: Mapping) -> Transaction:
    try:
        return Transaction(
            txn_id=_is(data["txn_id"], str, "txn id"),
            client_id=_is(data["client_id"], str, "client id"),
            commit_ts=timestamp_from_wire(data["commit_ts"]),
            read_set=tuple(
                read_entry_from_wire(entry) for entry in _list(data["read_set"], "read set")
            ),
            write_set=tuple(
                write_entry_from_wire(entry) for entry in _list(data["write_set"], "write set")
            ),
        )
    except _MALFORMED as exc:
        raise _fail("transaction", exc) from None


def cosign_from_wire(data: Optional[Mapping]) -> Optional[CollectiveSignature]:
    if data is None:
        return None
    try:
        return CollectiveSignature(
            challenge=_scalar(data["challenge"], "challenge"),
            response=_scalar(data["response"], "response"),
            signer_ids=_ids(data["signers"], "signer ids"),
        )
    except _MALFORMED as exc:
        raise _fail("collective signature", exc) from None


def block_from_wire(data: Mapping) -> Block:
    """Inverse of :meth:`Block.to_wire`."""
    try:
        body = data["body"]
        group = body["group"]
        return Block(
            height=_is(body["height"], int, "block height"),
            transactions=tuple(
                transaction_from_wire(txn) for txn in _list(body["transactions"], "transactions")
            ),
            roots=_roots(body["roots"], "block roots"),
            decision=BlockDecision(body["decision"]),
            previous_hash=_is(body["previous_hash"], bytes, "block previous_hash"),
            cosign=cosign_from_wire(data["cosign"]),
            group=_id_set(group, "block group") if group is not None else None,
            view=_is(body["view"], int, "block view"),
        )
    except _MALFORMED as exc:
        raise _fail("block", exc) from None


def checkpoint_from_wire(data: Mapping) -> Checkpoint:
    """Inverse of :meth:`Checkpoint.to_wire`."""
    try:
        return Checkpoint(
            height=_is(data["height"], int, "checkpoint height"),
            head_hash=_is(data["head_hash"], bytes, "checkpoint head_hash"),
            shard_roots=_roots(data["shard_roots"], "checkpoint shard roots"),
            latest_commit_ts=timestamp_from_wire(data["latest_commit_ts"]),
            transactions_covered=_is(data["transactions_covered"], int, "transactions covered"),
            cosign=cosign_from_wire(data["cosign"]),
        )
    except _MALFORMED as exc:
        raise _fail("checkpoint", exc) from None


def envelope_from_wire(data: Mapping) -> "Envelope":
    """Inverse of :meth:`Envelope.to_wire`.

    The payload is kept as the plain wire data it arrived as; nested domain
    objects inside payloads are decoded by whoever consumes the message, at
    which point they go through their own strict decoder above.
    """
    # Deferred: this module is imported during recovery.manager's own
    # initialization, and repro.net transitively reaches back into it.
    from repro.net.message import Envelope, MessageType

    try:
        content = data["content"]
        return Envelope(
            sender=_is(content["sender"], str, "sender"),
            recipient=_is(content["recipient"], str, "recipient"),
            message_type=MessageType(content["type"]),
            payload=content["payload"],
            signature=_opt(data["signature"], bytes, "envelope signature"),
        )
    except _MALFORMED as exc:
        raise _fail("envelope", exc) from None


def operation_from_wire(data: Mapping) -> Union[ReadOp, WriteOp]:
    """Inverse of ``ReadOp.to_wire`` / ``WriteOp.to_wire`` (tag dispatch)."""
    try:
        op = data["op"]
        if op == "read":
            return ReadOp(item_id=_is(data["item_id"], str, "item id"))
        if op == "write":
            return WriteOp(item_id=_is(data["item_id"], str, "item id"), value=data["value"])
        raise ValidationError(f"unknown operation tag {op!r}")
    except _MALFORMED as exc:
        raise _fail("operation", exc) from None


def vote_result_from_wire(data: Mapping) -> "VoteResult":
    """Inverse of :meth:`VoteResult.to_wire`."""
    # Deferred: repro.server imports recovery.manager, which imports us.
    from repro.server.commitment import VoteResult

    try:
        return VoteResult(
            server_id=_is(data["server_id"], str, "server id"),
            involved=_is(data["involved"], bool, "involved flag"),
            decision=_is(data["decision"], str, "decision"),
            commitment=_is(data["commitment"], bytes, "commitment"),
            root=_opt(data["root"], bytes, "vote result root"),
            compute_time=_is(data["compute_time"], _NUMBER, "compute time"),
            mht_time=_is(data["mht_time"], _NUMBER, "mht time"),
            mht_hashes=_is(data["mht_hashes"], int, "mht hashes"),
            abort_reason=_is(data["abort_reason"], str, "abort reason"),
        )
    except _MALFORMED as exc:
        raise _fail("vote result", exc) from None


def verification_object_from_wire(data: Mapping) -> VerificationObject:
    """Inverse of :meth:`VerificationObject.to_wire`."""
    try:
        siblings = []
        for entry in _list(data["siblings"], "siblings"):
            sibling, is_left = _list(entry, "sibling entry")
            siblings.append((_is(sibling, bytes, "sibling"), _is(is_left, bool, "sibling side")))
        return VerificationObject(
            item_id=_is(data["item_id"], str, "item id"),
            leaf_index=_is(data["leaf_index"], int, "leaf index"),
            siblings=tuple(siblings),
        )
    except _MALFORMED as exc:
        raise _fail("verification object", exc) from None


def record_version_from_wire(data: Mapping) -> RecordVersion:
    """Inverse of :meth:`RecordVersion.to_wire`."""
    try:
        return RecordVersion(
            value=data["value"],
            wts=timestamp_from_wire(data["wts"]),
            rts=timestamp_from_wire(data["rts"]),
        )
    except _MALFORMED as exc:
        raise _fail("record version", exc) from None


def read_result_from_wire(data: Mapping) -> ReadResult:
    """Inverse of :meth:`ReadResult.to_wire`."""
    try:
        return ReadResult(
            item_id=_is(data["item_id"], str, "item id"),
            value=data["value"],
            rts=timestamp_from_wire(data["rts"]),
            wts=timestamp_from_wire(data["wts"]),
        )
    except _MALFORMED as exc:
        raise _fail("read result", exc) from None


def epoch_anchor_from_wire(data: Mapping) -> EpochAnchor:
    """Inverse of :meth:`EpochAnchor.to_wire`."""
    try:
        return EpochAnchor(
            epoch=_is(data["epoch"], int, "epoch"),
            start_height=_is(data["start_height"], int, "start height"),
            end_height=_is(data["end_height"], int, "end height"),
            shard_heights=tuple(
                _is(height, int, "shard height")
                for height in _list(data["shard_heights"], "shard heights")
            ),
            shard_heads=tuple(
                _is(head, bytes, "shard head") for head in _list(data["shard_heads"], "shard heads")
            ),
            previous=_is(data["previous"], bytes, "anchor previous"),
        )
    except _MALFORMED as exc:
        raise _fail("epoch anchor", exc) from None


def server_group_from_wire(data: Mapping) -> "ServerGroup":
    """Inverse of :meth:`ServerGroup.to_wire`."""
    # Deferred: repro.core imports recovery.manager, which imports us.
    from repro.core.grouping import ServerGroup

    try:
        return ServerGroup(
            members=frozenset(_id_set(data["members"], "group members")),
            coordinator=_is(data["coordinator"], str, "group coordinator"),
        )
    except _MALFORMED as exc:
        raise _fail("server group", exc) from None


def frontier_certificate_from_wire(data: Mapping) -> "FrontierCertificate":
    """Inverse of :meth:`FrontierCertificate.to_wire`.

    Decoding is only the first half of believing a certificate; the head
    block it carries stays in wire form here and is verified (decode,
    co-sign, hash match) by :func:`repro.core.viewchange.verify_certificate`.
    """
    # Deferred: repro.core imports recovery.manager, which imports us.
    from repro.core.viewchange import FrontierCertificate

    try:
        head = _opt(data["head"], Mapping, "frontier certificate head")
        return FrontierCertificate(
            server_id=_is(data["server_id"], str, "server id"),
            view=_is(data["view"], int, "view"),
            height=_is(data["height"], int, "height"),
            head_hash=_is(data["head_hash"], bytes, "frontier certificate head_hash"),
            head=dict(head) if head is not None else None,
        )
    except _MALFORMED as exc:
        raise _fail("frontier certificate", exc) from None


def txn_outcome_from_wire(data: Mapping) -> "TxnOutcome":
    """Inverse of :meth:`TxnOutcome.to_wire`.

    The wire form carries two advisory extras (``block_digest``, ``cosign``)
    that are not outcome state; they are verified by the client layer and
    intentionally dropped here.
    """
    # Deferred: repro.core imports recovery.manager, which imports us.
    from repro.core.rounds import TxnOutcome

    try:
        return TxnOutcome(
            txn_id=_is(data["txn_id"], str, "txn id"),
            status=_is(data["status"], str, "status"),
            block_height=_opt(data["block_height"], int, "block height"),
            reason=_is(data["reason"], str, "reason"),
            decided_at=_opt(data["decided_at"], _NUMBER, "decided at"),
        )
    except _MALFORMED as exc:
        raise _fail("transaction outcome", exc) from None


def histogram_from_wire(data: Mapping) -> "Histogram":
    """Inverse of :meth:`repro.obs.metrics.Histogram.to_wire`.

    ``mean`` is derived state and deliberately recomputed, not decoded.
    """
    from repro.obs.metrics import Histogram

    try:
        histogram = Histogram(
            bounds=tuple(_is(bound, _NUMBER, "bound") for bound in _list(data["bounds"], "bounds"))
        )
        buckets = [_is(count, int, "bucket") for count in _list(data["buckets"], "buckets")]
        if len(buckets) != len(histogram.buckets):
            raise ValidationError("histogram bucket count does not match its bounds")
        histogram.buckets = buckets
        histogram.count = _is(data["count"], int, "count")
        histogram.total = _is(data["sum"], _NUMBER, "sum")
        histogram.minimum = _opt(data["min"], _NUMBER, "min")
        histogram.maximum = _opt(data["max"], _NUMBER, "max")
        return histogram
    except _MALFORMED as exc:
        raise _fail("metrics histogram", exc) from None


def span_from_wire(data: Mapping) -> "Span":
    """Inverse of :meth:`repro.obs.trace.Span.to_wire` (strict variant).

    :meth:`Span.from_wire` tolerates missing optional fields (it also loads
    Chrome-trace conversions); this decoder is the WAL/peer-boundary strict
    twin the registry requires.
    """
    from repro.obs.trace import Span

    try:
        return Span(
            span_id=_is(data["id"], int, "span id"),
            parent=_opt(data["parent"], int, "parent"),
            kind=_is(data["kind"], str, "kind"),
            name=_is(data["name"], str, "name"),
            category=_is(data["cat"], str, "category"),
            resource=_is(data["resource"], str, "resource"),
            pid=_is(data["pid"], int, "pid"),
            start=_is(data["start"], _NUMBER, "start"),
            end=_opt(data["end"], _NUMBER, "end"),
            status=_is(data["status"], str, "status"),
            attrs=dict(_is(data["attrs"], Mapping, "attrs")),
        )
    except _MALFORMED as exc:
        raise _fail("trace span", exc) from None


#: Every ``to_wire`` class in the library, keyed by class name, mapped to its
#: strict decoder.  ``repro.check.static`` extracts the keys of this dict
#: *statically* (a literal dict, parsed via AST, no import needed) to enforce
#: that no encoder ships without its inverse; the round-trip property test in
#: ``tests/check`` exercises the values dynamically.
WIRE_DECODERS = {
    "Block": block_from_wire,
    "Checkpoint": checkpoint_from_wire,
    "EpochAnchor": epoch_anchor_from_wire,
    "CollectiveSignature": cosign_from_wire,
    "Envelope": envelope_from_wire,
    "FrontierCertificate": frontier_certificate_from_wire,
    "Histogram": histogram_from_wire,
    "ReadOp": operation_from_wire,
    "ReadResult": read_result_from_wire,
    "ReadSetEntry": read_entry_from_wire,
    "RecordVersion": record_version_from_wire,
    "ServerGroup": server_group_from_wire,
    "Span": span_from_wire,
    "Transaction": transaction_from_wire,
    "TxnOutcome": txn_outcome_from_wire,
    "VerificationObject": verification_object_from_wire,
    "VoteResult": vote_result_from_wire,
    "WriteOp": operation_from_wire,
    "WriteSetEntry": write_entry_from_wire,
}
