"""The in-process message bus connecting clients, servers, and the auditor.

The :class:`Network` plays the role of the datacenter network in the paper's
deployment.  It:

* looks up the recipient's registered handler and delivers the envelope;
* signs every outgoing envelope with the sender's key and verifies every
  incoming envelope with the sender's public key (Section 3.1) -- unless the
  sender deliberately sends an unsigned/forged envelope, which receivers then
  reject;
* counts every delivery, once, in the deployment's always-on
  :class:`~repro.obs.metrics.MetricsRegistry` (``sim.obs.metrics``): messages
  and wire bytes, in total and per message type, deliveries per recipient,
  rejected and undeliverable messages, and the simulated delay each message
  would have cost on the configured :class:`~repro.net.latency.LatencyModel`
  (DESIGN.md section 12 names the counters).

Delivery is synchronous: ``send`` returns the recipient handler's response
payload, which keeps the protocol implementations easy to read while the
latency model keeps the timing realistic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.check.choices import choose_order
from repro.common.encoding import canonical_encode
from repro.common.errors import ConfigurationError, SignatureError, UnreachableError
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.signing import SigningScheme, make_signing_scheme
from repro.net.latency import LatencyModel, lan_latency
from repro.net.message import Envelope, MessageType, content_frame
from repro.obs.timing import Stopwatch
from repro.sim.context import SimContext

#: A message handler: receives the verified envelope, returns a response payload.
Handler = Callable[[Envelope], Any]


class _Link(NamedTuple):
    """What never changes about one sender's messages of one type to one recipient.

    ``before`` and ``after`` are the bytes of the envelope's ``content`` on
    either side of the payload's (:func:`~repro.net.message.content_frame`),
    so the bytes a delivery signs, verifies and is metered on are one join
    around the payload's own.  They are spliced anew for each delivery, from
    the bytes the payload's transactions own (the payload is its message's
    request form, :mod:`repro.net.forms`, which splices them); no envelope
    keeps any: servers archive every client envelope for life.

    The three counter names are the registry's per-type and per-recipient
    ledger entries, formatted once here so a delivery formats no strings.
    """

    before: bytes
    after: bytes
    messages_counter: str
    bytes_counter: str
    delivered_counter: str

    def signed_bytes(self, payload_bytes: bytes) -> bytes:
        """``Envelope(sender, recipient, type, payload).content_bytes()``, given
        ``canonical_encode(payload)``."""
        return b"".join((self.before, payload_bytes, self.after))


class Network:
    """Signed, synchronous, in-process message delivery between participants."""

    def __init__(
        self,
        sim: SimContext,
        signing_scheme: Optional[SigningScheme] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        """``sim`` is the deployment's simulation context: every delivered
        message is counted in its metrics registry."""
        self._metrics = sim.obs.metrics
        self._scheme = signing_scheme or make_signing_scheme("schnorr")
        self._latency = latency or lan_latency()
        self._handlers: Dict[str, Handler] = {}
        self._keypairs: Dict[str, KeyPair] = {}
        self._public_keys: Dict[str, PublicKey] = {}
        #: Participants that registered a handler once but are currently down
        #: (crashed servers awaiting recovery).  Their keys stay in the
        #: directory -- co-signs involving them must keep verifying -- but
        #: delivery raises :class:`UnreachableError` until they re-register.
        self._departed: set = set()
        #: One record per ``(sender, recipient, type)`` that has carried a
        #: message: at most participants^2 x the types in use.
        self._links: Dict[Tuple[str, str, MessageType], _Link] = {}

    # -- membership -----------------------------------------------------------

    def register(
        self, identity: str, keypair: KeyPair, handler: Handler, replace: bool = False
    ) -> None:
        """Register a participant: its key pair and its message handler.

        A participant id can only be taken once; a *restarting* server rejoins
        with ``replace=True``, which requires the same key pair it registered
        with originally (a rejoin must not be able to swap identities); its
        ``net.delivered.<id>`` count carries on from before the crash.
        """
        if identity in self._handlers and not replace:
            raise ConfigurationError(
                f"participant {identity!r} is already registered; "
                "rejoin with replace=True"
            )
        existing = self._public_keys.get(identity)
        if existing is not None and existing.encode() != keypair.public.encode():
            raise ConfigurationError(
                f"participant {identity!r} attempted to re-register with a different key"
            )
        self._handlers[identity] = handler
        self._keypairs[identity] = keypair
        self._public_keys[identity] = keypair.public
        self._departed.discard(identity)

    def unregister(self, identity: str) -> None:
        """Take a participant's handler off the network (crash / shutdown).

        The identity's keys remain in the public-key directory so historical
        signatures keep verifying; subsequent sends to it raise
        :class:`UnreachableError` until it re-registers.
        """
        if self._handlers.pop(identity, None) is not None:
            self._departed.add(identity)

    def is_reachable(self, identity: str) -> bool:
        return identity in self._handlers

    def register_observer(self, identity: str, keypair: KeyPair) -> None:
        """Register a participant that only sends (e.g. a client or the auditor)."""
        self._keypairs[identity] = keypair
        self._public_keys[identity] = keypair.public

    def public_key_of(self, identity: str) -> PublicKey:
        try:
            return self._public_keys[identity]
        except KeyError:
            raise ConfigurationError(f"unknown participant {identity!r}") from None

    def public_key_directory(self) -> Dict[str, PublicKey]:
        """The system-wide directory of public keys (Section 3.1)."""
        return dict(self._public_keys)

    @property
    def participants(self):
        return sorted(self._public_keys)

    @property
    def signing_scheme(self) -> SigningScheme:
        return self._scheme

    @property
    def latency_model(self) -> LatencyModel:
        return self._latency

    # -- delivery -------------------------------------------------------------

    def _link(self, sender: str, recipient: str, message_type: MessageType) -> _Link:
        """The link's record, built on first use for a recipient in the key
        directory only: an envelope may name any recipient it likes, and a
        record per made-up name would grow the table without bound."""
        key = (sender, recipient, message_type)
        link = self._links.get(key)
        if link is None:
            if recipient not in self._public_keys:
                raise ConfigurationError(f"unknown participant {recipient!r}")
            name = message_type.value
            link = self._links[key] = _Link(
                *content_frame(sender, recipient, message_type),
                f"net.messages.{name}",
                f"net.bytes.{name}",
                f"net.delivered.{recipient}",
            )
        return link

    def sign_envelope(self, envelope: Envelope) -> Envelope:
        """Sign an envelope with the sender's registered key."""
        keypair = self._keypairs.get(envelope.sender)
        if keypair is None:
            raise ConfigurationError(f"sender {envelope.sender!r} has no registered key")
        link = self._link(envelope.sender, envelope.recipient, envelope.message_type)
        encoded = link.signed_bytes(canonical_encode(envelope.payload))
        return envelope.with_signature(self._scheme.sign_bytes(keypair, encoded))

    def verify_envelope(self, envelope: Envelope) -> bool:
        """Verify an envelope's signature against the sender's public key.

        An envelope addressed to a participant outside the key directory does
        not verify."""
        public = self._public_keys.get(envelope.sender)
        if (
            envelope.signature is None
            or public is None
            or envelope.recipient not in self._public_keys
        ):
            return False
        link = self._link(envelope.sender, envelope.recipient, envelope.message_type)
        return self._scheme.verify_bytes(
            public, link.signed_bytes(canonical_encode(envelope.payload)), envelope.signature
        )

    def send(
        self,
        sender: str,
        recipient: str,
        message_type: MessageType,
        payload: Any,
        presigned: Optional[Envelope] = None,
        *,
        payload_bytes: Optional[bytes] = None,
    ) -> Any:
        """Deliver one signed message and return the recipient's response payload.

        ``presigned`` supplies the payload and a signature made earlier (a
        client signs its ``end_transaction`` once and the cohorts re-verify
        it; fault injection passes forgeries).  Its header is not trusted:
        the bytes verified are spliced from *this delivery's* sender,
        recipient and type, so an envelope signed for another recipient or
        as another type is rejected like any other forgery.

        The signed bytes are spliced once per delivery: the same bytes feed
        the sender-side signature, the receiver-side verification, and the
        wire-size accounting.

        ``payload_bytes`` (keyword-only) is the sender's own splice of
        ``payload``, ``canonical_encode(payload)``: a sender with the same
        request for many recipients (:meth:`broadcast`, a protocol phase)
        splices it once and hands the bytes to each delivery, holding them for
        as long as the phase lasts and no longer.  Nothing checks them against
        the payload here -- the recipient's ``verify_envelope`` splices the
        payload afresh -- so the only callers are those two, and
        ``tests/check/test_wire_links.py`` holds every deployment's metered
        bytes to the envelopes its handlers received.
        """
        metrics = self._metrics
        link = self._link(sender, recipient, message_type)
        if presigned is not None:
            payload, signature = presigned.payload, presigned.signature
            encoded = link.signed_bytes(canonical_encode(payload))
        else:
            keypair = self._keypairs.get(sender)
            if keypair is None:
                raise ConfigurationError(f"sender {sender!r} has no registered key")
            if payload_bytes is None:
                payload_bytes = canonical_encode(payload)
            encoded = link.signed_bytes(payload_bytes)
            watch = Stopwatch()
            signature = self._scheme.sign_bytes(keypair, encoded)
            metrics.counter("crypto.envelope_sign.ops")
            metrics.counter("crypto.envelope_sign.s", watch.elapsed())
        handler = self._handlers.get(recipient)
        if handler is None:
            if recipient in self._departed:
                metrics.counter("net.undeliverable")
                raise UnreachableError(f"participant {recipient!r} is down (crashed)")
            raise ConfigurationError(f"recipient {recipient!r} has no registered handler")
        public = self._public_keys.get(sender)
        watch = Stopwatch()
        verified = (
            signature is not None
            and public is not None
            and self._scheme.verify_bytes(public, encoded, signature)
        )
        metrics.counter("crypto.envelope_verify.ops")
        metrics.counter("crypto.envelope_verify.s", watch.elapsed())
        if not verified:
            metrics.counter("net.rejected")
            raise SignatureError(
                f"envelope from {sender!r} to {recipient!r} failed signature verification"
            )
        size = len(encoded)
        metrics.counter("net.messages")
        metrics.counter(link.messages_counter)
        metrics.counter(link.delivered_counter)
        metrics.counter("net.bytes_total", size)
        metrics.counter(link.bytes_counter, size)
        # This draw only feeds ``net.delay_s``, but it advances the same RNG
        # ``timed_exchange`` draws its phase delays from: dropping it moves
        # every makespan the golden tests pin.
        metrics.counter("net.delay_s", self._latency.sample())
        return handler(Envelope(sender, recipient, message_type, payload, signature))

    def broadcast(
        self,
        sender: str,
        recipients,
        message_type: MessageType,
        payload: Any,
        skip_unreachable: bool = False,
    ) -> Dict[str, Any]:
        """Send the same payload to several recipients; returns responses by id.

        ``skip_unreachable=True`` silently drops recipients that are down --
        used for best-effort notifications (e.g. ``ROUND_FAILED``, whose very
        cause may be a crashed cohort).

        A real network gives no ordering guarantee across recipients, so
        under the model checker the delivery order is a branch point.

        The payload is spliced once, here, for all of them.
        """
        payload_bytes = canonical_encode(payload)
        responses: Dict[str, Any] = {}
        for recipient in choose_order(
            f"net/broadcast/{message_type.value}", list(recipients), feature="net-order"
        ):
            try:
                responses[recipient] = self.send(
                    sender, recipient, message_type, payload, payload_bytes=payload_bytes
                )
            except UnreachableError:
                if not skip_unreachable:
                    raise
        return responses
