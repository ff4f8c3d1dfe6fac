"""The bytes a delivery signs are its envelope's, whoever splices them.

``Network`` keeps the constant halves of each link's header and joins them
around the payload's bytes; a phase with one request for many recipients
splices that request once and hands the bytes to each delivery.  The oracle
stays the derived encoder, ``Envelope(...).content_bytes()``: every check
here compares what the network signed, verified or metered against it.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.common.config import SystemConfig
from repro.common.encoding import canonical_encode
from repro.common.errors import ConfigurationError, SignatureError, UnreachableError
from repro.core.fides import FidesSystem
from repro.core.rounds import TimingBreakdown, timed_exchange
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer
from repro.crypto.keys import keypair_for
from repro.crypto.signing import make_signing_scheme
from repro.ledger.block import BlockDecision
from repro.net import forms
from repro.net.forms import MESSAGES
from repro.net.latency import ConstantLatency
from repro.net.message import Envelope, MessageType, content_frame
from repro.net.network import Network
from repro.server.faults import FaultPlan
from repro.sim.context import SimContext
from repro.txn.operations import WriteOp
from repro.workload.ycsb import YcsbWorkload

from test_wire_roundtrip import BUILDERS

#: ``(sender, recipient)``: plain, one character, the same on both ends,
#: non-ASCII, long, empty, and the nearest a string gets to the payload mark.
LINKS = [
    ("s0", "s1"),
    ("a", "b"),
    ("c", "c"),
    ("clïent-é", "服务器"),
    ("s" * 300, ""),
    ("\u00ff" * 16, "\uffff" * 16),
]


def _request(message_type: MessageType):
    return BUILDERS[MESSAGES[message_type].request.__name__]()


def _hash_network(*observers: str) -> Network:
    sim = SimContext()
    network = Network(sim, make_signing_scheme("hash"), latency=ConstantLatency(0.001))
    network.metrics = sim.obs.metrics
    for identity in observers:
        network.register_observer(identity, keypair_for(identity))
    return network


def _mac(keypair, message: bytes) -> bytes:
    return make_signing_scheme("hash").sign_bytes(keypair, message)


@pytest.mark.parametrize("message_type", MessageType, ids=lambda m: m.value)
class TestTheLinkSplicesTheDerivedEncodersBytes:
    def test_the_frame_around_the_payload(self, message_type):
        payload = _request(message_type)
        for sender, recipient in LINKS:
            oracle = Envelope(sender, recipient, message_type, payload).content_bytes()
            before, after = content_frame(sender, recipient, message_type)
            assert b"".join((before, canonical_encode(payload), after)) == oracle
            # ... for any payload, not only the one the frame was asked about.
            other = Envelope(sender, recipient, message_type, {"k": [b"\xff" * 16, None]})
            assert (
                b"".join((before, canonical_encode(other.payload), after))
                == other.content_bytes()
            )

    def test_what_the_network_signs_verifies_and_meters(self, message_type):
        payload = _request(message_type)
        for sender, recipient in LINKS:
            oracle = Envelope(sender, recipient, message_type, payload).content_bytes()
            network = _hash_network(sender)
            received = []
            network.register(recipient, keypair_for(recipient), received.append)
            signed = network.sign_envelope(Envelope(sender, recipient, message_type, payload))
            assert signed.signature == _mac(keypair_for(sender), oracle)
            assert network.verify_envelope(signed)

            network.send(sender, recipient, message_type, payload)
            network.send(
                sender, recipient, message_type, payload, payload_bytes=canonical_encode(payload)
            )
            network.send(sender, recipient, message_type, None, presigned=signed)
            network.broadcast(sender, [recipient], message_type, payload)
            assert len(received) == 4
            for envelope in received:
                assert envelope == signed
                assert envelope.payload is payload
            assert network.metrics.breakdown("net.bytes") == {message_type.value: 4 * len(oracle)}
            assert network.metrics.breakdown("net.messages") == {message_type.value: 4}


class TestAPresignedEnvelopeIsBoundToItsLink:
    """The link's header is this delivery's, never the presigned envelope's."""

    @pytest.fixture
    def network(self):
        network = _hash_network("c1")
        network.received = defaultdict(list)
        for server_id in ("s0", "s1"):
            network.register(server_id, keypair_for(server_id), network.received[server_id].append)
        return network

    def test_replayed_to_another_recipient_or_as_another_type(self, network):
        request = BUILDERS["EndTxn"]()
        signed = network.sign_envelope(Envelope("c1", "s0", MessageType.END_TRANSACTION, request))
        # Both links have carried traffic, so both headers are on record.
        network.send("c1", "s0", MessageType.END_TRANSACTION, request, presigned=signed)
        network.send("c1", "s1", MessageType.END_TRANSACTION, request)
        network.send("c1", "s0", MessageType.WRITE, request)

        with pytest.raises(SignatureError):
            network.send("c1", "s1", MessageType.END_TRANSACTION, request, presigned=signed)
        with pytest.raises(SignatureError):
            network.send("c1", "s0", MessageType.WRITE, request, presigned=signed)
        with pytest.raises(SignatureError):  # ... nor under another sender's name
            network.send("s1", "s0", MessageType.END_TRANSACTION, request, presigned=signed)
        assert network.metrics.counter_value("net.rejected") == 3
        assert network.metrics.counter_value("net.messages") == 3
        assert len(network.received["s0"]) == 2 and len(network.received["s1"]) == 1

        # A header the envelope itself lies about changes nothing either way.
        relabelled = Envelope("c1", "s1", MessageType.WRITE, request, signed.signature)
        network.send("c1", "s0", MessageType.END_TRANSACTION, request, presigned=relabelled)
        assert network.received["s0"][-1] == signed
        assert not network.verify_envelope(relabelled)

    def test_the_senders_splice_is_not_taken_for_a_presigned_payload(self, network):
        """``presigned`` supplies the payload; bytes handed along for another are ignored."""
        request = BUILDERS["EndTxn"]()
        signed = network.sign_envelope(Envelope("c1", "s0", MessageType.END_TRANSACTION, request))
        network.send(
            "c1", "s0", MessageType.END_TRANSACTION, request,
            presigned=signed, payload_bytes=canonical_encode(BUILDERS["BeginTxn"]()),
        )
        assert network.received["s0"] == [signed]
        assert network.metrics.counter_value("net.bytes_total") == len(signed.content_bytes())


class TestALinkOutlivesARestart:
    def test_rejoining_with_the_same_key_keeps_the_link_and_another_key_is_refused(self):
        network = _hash_network("c1")
        first, second = [], []
        network.register("s0", keypair_for("s0"), first.append)
        request = BUILDERS["ReadItem"]()
        signed = network.sign_envelope(Envelope("s0", "c1", MessageType.READ, request))
        network.send("c1", "s0", MessageType.READ, request)

        network.unregister("s0")
        with pytest.raises(ConfigurationError):
            network.register("s0", keypair_for("mallory"), second.append, replace=True)
        with pytest.raises(UnreachableError):
            network.send("c1", "s0", MessageType.READ, request)
        # An equal key held by another object is the same key.
        network.register("s0", keypair_for("s0"), second.append, replace=True)

        network.send("c1", "s0", MessageType.READ, request)
        assert len(first) == 1 and first == second
        assert network.verify_envelope(first[0]) and network.verify_envelope(second[0])
        # What s0 signed before the restart still verifies after it.
        assert network.verify_envelope(signed)
        assert network.sign_envelope(Envelope("s0", "c1", MessageType.READ, request)) == signed


def _exchange(system: FidesSystem, recipients, message_type, request_for):
    return timed_exchange(
        system.network,
        system.latency,
        "s0",
        recipients,
        message_type,
        request_for,
        TimingBreakdown(),
        "challenge",
        sim=system.sim,
    )


class TestAPhaseSignsEachRequestsOwnBytes:
    @pytest.fixture
    def recording(self, batched_system):
        """The batched deployment with s1 and s2 only recording what they receive."""
        received = defaultdict(list)
        reply = forms.ChallengeResponse(response=1, compute_time=0.0).to_wire()

        def recorder(server_id):
            def handle(envelope):
                received[server_id].append(envelope)
                return reply

            return handle

        for server_id in ("s1", "s2"):
            batched_system.network.register(
                server_id, batched_system.servers[server_id].keypair, recorder(server_id),
                replace=True,
            )
        return batched_system, received

    def test_one_request_for_all_is_every_recipients_own_envelope(self, recording):
        system, received = recording
        request = BUILDERS["Challenge"]()
        replies, refusals = _exchange(
            system, ["s1", "s2"], MessageType.CHALLENGE, lambda _recipient: request
        )
        assert sorted(replies) == ["s1", "s2"] and refusals == []
        for server_id in ("s1", "s2"):
            (envelope,) = received[server_id]
            assert envelope.payload is request
            oracle = Envelope("s0", server_id, MessageType.CHALLENGE, request)
            assert envelope.signature == _mac(
                system.servers["s0"].keypair, oracle.content_bytes()
            )
            assert system.network.verify_envelope(envelope)
        assert received["s1"][0].signature != received["s2"][0].signature

    def test_an_equivocators_halves_are_signed_each_on_its_own(self, recording):
        system, received = recording
        commit_block = BUILDERS["Block"]()
        abort_block = commit_block.with_decision(BlockDecision.ABORT, {})
        sent = {}

        def request_for(server_id):
            block = commit_block if server_id == "s1" else abort_block
            sent[server_id] = forms.Challenge(11, b"\x09" * 33, block)
            return sent[server_id]

        _exchange(system, ["s1", "s2"], MessageType.CHALLENGE, request_for)
        metered = 0
        for server_id in ("s1", "s2"):
            (envelope,) = received[server_id]
            assert envelope.payload is sent[server_id]
            oracle = Envelope("s0", server_id, MessageType.CHALLENGE, sent[server_id])
            assert envelope.signature == _mac(
                system.servers["s0"].keypair, oracle.content_bytes()
            )
            assert system.network.verify_envelope(envelope)
            metered += len(oracle.content_bytes())
        assert received["s1"][0].payload.block.decision != received["s2"][0].payload.block.decision
        assert system.sim.obs.metrics.counter_value("net.bytes.challenge") == metered

    def test_requests_that_alternate_are_never_signed_with_the_others_bytes(self, recording):
        system, received = recording
        first, second = BUILDERS["Challenge"](), forms.Challenge(12, b"\x0a" * 33, BUILDERS["Block"]())
        turn = iter([first, second, first, first, second])
        order = ["s1", "s2", "s1", "s2", "s1"]
        _exchange(system, order, MessageType.CHALLENGE, lambda _recipient: next(turn))
        got = [received["s1"][0], received["s2"][0], received["s1"][1], received["s2"][1],
               received["s1"][2]]
        assert [envelope.payload for envelope in got] == [first, second, first, first, second]
        for envelope in got:
            assert system.network.verify_envelope(envelope)

    def test_a_cohort_crashing_mid_phase_is_an_unreachable_refusal(self, make_system):
        """The phase's one splice is handed to a delivery that never happens."""
        batched_system = make_system(txns_per_block=1)
        batched_system.inject_fault(
            "s2", [FaultPlan("crash", "s2", {"kind": "phase", "phases": ["vote"]})]
        )
        item = batched_system.shard_map.items_of("s1")[0]
        outcome = batched_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        refusals = batched_system.coordinator.results[-1].refusals
        assert [(r.server_id, r.unreachable) for r in refusals] == [("s2", True)]
        assert batched_system.sim.obs.metrics.counter_value("net.undeliverable") >= 1


def _deployment(name: str) -> FidesSystem:
    config = SystemConfig(
        num_servers=3,
        items_per_shard=40,
        txns_per_block=2,
        ops_per_txn=2,
        multi_versioned=True,
        message_signing="hash",
        seed=11,
    )
    latency = ConstantLatency(0.0002)
    if name == "scaled":
        return ScaledFidesSystem(config, latency=latency, sequencer=sharded_sequencer(2))
    return FidesSystem(config, protocol="2pc" if name == "2pc" else "tfcommit", latency=latency)


@pytest.mark.parametrize("name", ["classic", "scaled", "2pc"])
def test_the_bytes_metered_are_the_bytes_of_the_envelopes_received(name):
    """``send`` takes the sender's word for ``payload_bytes``.  Over a whole run
    of each deployment, what was metered per type is the length of what the
    handlers were handed, re-spliced from each envelope by the derived
    encoder -- and each of those envelopes verifies."""
    system = _deployment(name)
    received_bytes = defaultdict(int)
    received_count = defaultdict(int)

    def recording(server):
        def handle(envelope):
            received_bytes[envelope.message_type.value] += len(envelope.content_bytes())
            received_count[envelope.message_type.value] += 1
            assert system.network.verify_envelope(envelope)
            return server.handle(envelope)

        return handle

    for server_id, server in system.servers.items():
        system.network.register(server_id, server.keypair, recording(server), replace=True)
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(), ops_per_txn=2, conflict_free_window=0, seed=3
    )
    assert system.run_workload(workload.generate(6)).committed == 6
    if name != "2pc":
        assert system.audit().ok

    metrics = system.sim.obs.metrics
    assert metrics.breakdown("net.bytes") == dict(received_bytes)
    assert metrics.breakdown("net.messages") == dict(received_count)
    assert metrics.counter_value("net.bytes_total") == sum(received_bytes.values())
    assert metrics.counter_value("net.rejected") == 0
    # The per-type ledger adds up to the totals.
    assert sum(metrics.breakdown("net.messages").values()) == metrics.counter_value(
        "net.messages"
    )
    assert sum(metrics.breakdown("net.bytes").values()) == metrics.counter_value(
        "net.bytes_total"
    )
