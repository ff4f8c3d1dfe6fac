"""The in-process message bus connecting clients, servers, and the auditor.

The :class:`Network` plays the role of the datacenter network in the paper's
deployment.  It:

* looks up the recipient's registered handler and delivers the envelope;
* signs every outgoing envelope with the sender's key and verifies every
  incoming envelope with the sender's public key (Section 3.1) -- unless the
  sender deliberately sends an unsigned/forged envelope, which receivers then
  reject;
* keeps per-message-type traffic statistics and accumulates the simulated
  network delay each message would have cost on the configured
  :class:`~repro.net.latency.LatencyModel` (the benchmark harness reads these
  to cost out protocol rounds).

Delivery is synchronous: ``send`` returns the recipient handler's response
payload, which keeps the protocol implementations easy to read while the
latency model keeps the timing realistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.check.choices import choose_order
from repro.common.encoding import canonical_encode
from repro.common.errors import ConfigurationError, SignatureError, UnreachableError
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.signing import SigningScheme, make_signing_scheme
from repro.net.latency import LatencyModel, lan_latency
from repro.net.message import Envelope, MessageType, content_frame
from repro.obs.timing import Stopwatch

#: A message handler: receives the verified envelope, returns a response payload.
Handler = Callable[[Envelope], Any]


@dataclass
class NetworkStats:
    """Counters the benchmark harness and tests read back.

    ``per_node`` counts messages *delivered to* each participant; it survives
    a participant crashing and re-registering (the stats object belongs to
    the network, not to the handler), so restart-heavy runs keep an accurate
    per-node traffic picture.
    """

    messages_sent: int = 0
    messages_rejected: int = 0
    messages_undeliverable: int = 0
    simulated_delay: float = 0.0
    per_type: Dict[str, int] = field(default_factory=dict)
    per_node: Dict[str, int] = field(default_factory=dict)
    #: Wire bytes (canonical-encoded signed content), total and per type --
    #: the size every message *would* occupy on a real transport.
    bytes_total: int = 0
    bytes_per_type: Dict[str, int] = field(default_factory=dict)

    def record(self, type_name: str, recipient: str, delay: float, size: int = 0) -> None:
        self.messages_sent += 1
        self.simulated_delay += delay
        self.per_type[type_name] = self.per_type.get(type_name, 0) + 1
        self.per_node[recipient] = self.per_node.get(recipient, 0) + 1
        self.bytes_total += size
        self.bytes_per_type[type_name] = self.bytes_per_type.get(type_name, 0) + size


class _Link(NamedTuple):
    """What never changes about one sender's messages of one type to one recipient.

    ``before`` and ``after`` are the bytes of the envelope's ``content`` on
    either side of the payload's (:func:`~repro.net.message.content_frame`),
    so the bytes a delivery signs, verifies and is metered on are one join
    around the payload's own.  They are spliced anew for each delivery, from
    the bytes the payload's transactions own (the payload is its message's
    request form, :mod:`repro.net.forms`, which splices them); no envelope
    keeps any: servers archive every client envelope for life.
    """

    before: bytes
    after: bytes
    type_name: str
    bytes_counter: str

    def signed_bytes(self, payload_bytes: bytes) -> bytes:
        """``Envelope(sender, recipient, type, payload).content_bytes()``, given
        ``canonical_encode(payload)``."""
        return b"".join((self.before, payload_bytes, self.after))


class Network:
    """Signed, synchronous, in-process message delivery between participants."""

    def __init__(
        self,
        signing_scheme: Optional[SigningScheme] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self._scheme = signing_scheme or make_signing_scheme("schnorr")
        self._latency = latency or lan_latency()
        #: Optional simulation context: when attached, every delivered
        #: message is also recorded as an event on the virtual timeline at
        #: the clock's current activity time (see repro.sim).
        self._sim = None
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
        self.stats = NetworkStats()

    def attach_sim(self, sim) -> None:
        """Record delivered messages on a simulation context's timeline."""
        self._sim = sim

    # -- membership -----------------------------------------------------------

    def register(
        self, identity: str, keypair: KeyPair, handler: Handler, replace: bool = False
    ) -> None:
        """Register a participant: its key pair and its message handler.

        A participant id can only be taken once; a *restarting* server rejoins
        with ``replace=True``, which requires the same key pair it registered
        with originally (a rejoin must not be able to swap identities) and
        preserves the per-node traffic stats accumulated before the crash.
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
        key = (sender, recipient, message_type)
        link = self._links.get(key)
        if link is None:
            name = message_type.value
            link = self._links[key] = _Link(
                *content_frame(sender, recipient, message_type), name, f"net.bytes.{name}"
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
        """Verify an envelope's signature against the sender's public key."""
        if envelope.signature is None:
            return False
        public = self._public_keys.get(envelope.sender)
        if public is None:
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
        obs = self._sim.obs if self._sim is not None else None
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
            if obs is not None:
                obs.metrics.counter("crypto.envelope_sign.ops")
                obs.metrics.counter("crypto.envelope_sign.s", watch.elapsed())
        handler = self._handlers.get(recipient)
        if handler is None:
            if recipient in self._departed:
                self.stats.messages_undeliverable += 1
                raise UnreachableError(f"participant {recipient!r} is down (crashed)")
            raise ConfigurationError(f"recipient {recipient!r} has no registered handler")
        public = self._public_keys.get(sender)
        watch = Stopwatch()
        verified = (
            signature is not None
            and public is not None
            and self._scheme.verify_bytes(public, encoded, signature)
        )
        if obs is not None:
            obs.metrics.counter("crypto.envelope_verify.ops")
            obs.metrics.counter("crypto.envelope_verify.s", watch.elapsed())
        if not verified:
            self.stats.messages_rejected += 1
            raise SignatureError(
                f"envelope from {sender!r} to {recipient!r} failed signature verification"
            )
        size = len(encoded)
        # This draw only feeds ``NetworkStats.simulated_delay``, but it
        # advances the same RNG ``timed_exchange`` draws its phase delays
        # from: dropping it moves every makespan the golden tests pin.
        self.stats.record(link.type_name, recipient, self._latency.sample(), size=size)
        if obs is not None:
            obs.metrics.counter("net.messages")
            obs.metrics.counter("net.bytes_total", size)
            obs.metrics.counter(link.bytes_counter, size)
        if self._sim is not None:
            self._sim.timeline.record(
                self._sim.clock.now,
                "message",
                resource=recipient,
                label=link.type_name,
                detail=f"sender={sender}",
            )
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
