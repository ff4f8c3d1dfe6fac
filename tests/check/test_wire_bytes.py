"""Pinned wire bytes: the one byte form of every wire class, as a constant.

The round-trip suite proves decode inverts encode, and the golden
fingerprints prove whole runs hash the same; neither says *which* bytes a
single object encodes to.  These digests do -- recorded at the commit before
the ``to_wire`` methods became derived from per-class declarations, so a
refactor of how the wire form is produced must leave every literal here
untouched.  A digest that moves is a wire-format change: every WAL, exported
log and signature made before it stops verifying.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.config import SystemConfig
from repro.common.encoding import canonical_encode
from repro.common.timestamps import Timestamp
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer
from repro.net.forms import MESSAGES
from repro.net.latency import ConstantLatency
from repro.net.message import Envelope, MessageType
from repro.storage.record import RecordVersion
from repro.workload.ycsb import YcsbWorkload

from test_wire_roundtrip import _TS, _TS2, _TXN, BUILDERS

#: ``sha256(canonical_encode(BUILDERS[name]().to_wire()))``.
WIRE_DIGESTS = {
    "Block": "903ae11031209b777829d09346f30c82b80e44a25e8ae21c98ff2f520f1a9ff4",
    "BlockRecord": "e94d313f887a4734b3e1d76a4d8b868844e4d77e6eb57807f63c10e5823ad7f1",
    "Checkpoint": "2ba1304c01b1f1197821438714b93f59c2148ab3a159c2ae8af87627703590db",
    "CollectiveSignature": "3b63e84be99256c4d0c264d20f8b2c283a97810651ddda44b66da628e0eb983a",
    "Envelope": "7e4db3220852c1acae4312c9d43bab88449dc15f2b0841ada5760e94f7bf0b2e",
    "EpochAnchor": "b971220b2d73d717dbd3f43d226c2e824198904ad3f5b490100138e71ee67025",
    "FrontierCertificate": "6d6fe87ad605788ac4cebb679c8a19739b14036aee84f2e7069e208997474d0e",
    "Histogram": "9973204e62929d55489539ca636a1f2747485234106a3036866fe37335716a23",
    "ReadOp": "50e0565b22577d66f28b8e46136e3c12ee9537832d61f5228124be5aae605ca9",
    "ReadResult": "645e81334fb6f40159fea51e8b9c17f20d7a81e59f8ce111fabddfad9da96037",
    "ReadSetEntry": "503888af5711001fc4ebfe60074e7771be468948190f2c29d8c364b634e5ec7a",
    "RecordVersion": "cfbf4951b67f9ee6012c4eede7ab13f8dbe1d272202a3baae7aa3beab54271ed",
    "ServerGroup": "4a27b9ee384de4271b5b853045e96a17160003d83e1dc5df4e8f737930ff794d",
    "SnapshotRecord": "d8b4579b62d9bbdb54c028f62e655363247d7f9c8363b74f36fce67c3cff011d",
    "Span": "eaad28d8ace4cdae75c50afb8df8d86f6d0609314ae65702adfd66dca6f19434",
    "Transaction": "99019ee12f1d22d3c5ecce6a85ed4e4ba0ba8ddb90d1f3d8d73262e41317aa5a",
    "TxnOutcome": "d2bb3cb04205730d8e065024f32fbc2c1b75cd31eb3a5d0d03090c6564b6a04e",
    "VerificationObject": "aaefca2e7d0b0cf3be520415d10fdf26571d2e7800a0e0c501c22df4d6d4c623",
    "VoteResult": "12297b746bc427762508a320fe674d5f18e65df59f509ee627c39b217cd1a9ba",
    "WriteOp": "9cf70d7617d5a503656464bdd21b1160af8b6c412cadcd98d727bd231f31e3a9",
    "WriteSetEntry": "68d794f7f94c8ddcf456058f35aa4f8c6f0ba0bbdb2ff530b5866b81f0aba952",
    # The request forms of the message table: REQUEST_PAYLOAD_DIGESTS' literals.
    "BeginTxn": "3f592b6740e6ec37970b0a7a136430506915e1fcfdc9f1a86ae386f354c36ce9",
    "ReadItem": "85daabd56cb872e90917d10c3bf3d9dd10a9328115191f772d65936e8cb68edf",
    "WriteItem": "660994a488d38da4b21d0ee3377f4a47378027550da419c2e9ac7fb4fc945ec0",
    "EndTxn": "7b1469672581f1a74b37a54cfc4bc3125fbae25bddebe82cf4e4032e1396ed0d",
    "Proposal": "2f353c5f80525219048cfadda3c0f8dccb766199dd93fe9d3c5305046e656912",
    "Challenge": "abbbff22b5cf6de36323ceccf2e002ff260f04c326609e1189f35b6bf2478f97",
    "DecidedBlock": "3ef7f69e63d0fd63a79072d470d8bbe54f5b4a35a5476f557646ce1a3c408cea",
    "RoundFailed": "1273806ee3b196b7f3c0792aefb1d197ef5a07b6c932cf6ccfc4afb211bb3f8b",
    "ViewChange": "3791619eda1fc401f3dd2ee239095205d2cf4bda7b68d64fd78001c678ce02cf",
    "StateRequest": "d907c95e9167a5ee053da65b87b6a02e91338c4de94f1bee698afe8e80a831e9",
    "AuditLogRequest": "36c56a3ce6b05d8c06f86ae5afb30c109dfbbabb2a66ad9339d95d6256eecb26",
    "AuditVoRequest": "310f5f72cfba84583515d557ed57adb40e5003188be63b72d785b8f9c7726b29",
    # The reply forms (new with the table: replies are neither signed nor metered).
    "Refusal": "879416750e837a4da2efd41b6b4fb7f6e7384da07a6b9164c260ca1d073a1ba5",
    "Ack": "846b2828cddd804b633e6a61213cd4058e33f969a45d5f3703f34c01f8afff45",
    "WriteAck": "ff32cb8cc6d4d36db9dd8582cabc74a2d02849a60ca4da77486d88a1469cff58",
    "PrepareVote": "0e50849be121f06e386552bb3c304f0e361c263f19b1a72fe229d5454d49fdf7",
    "ChallengeResponse": "d610d561e97d38a874f80c12ed7faf38e9969f345bff796eeefb90d860e11edf",
    "Applied": "944319e1ef02c00c06782786f475b86c26751bded6e417b2075f79231b55aa58",
    "Released": "9c6278ad062a81018494c241d2f4990ed780c3bef274ffad0f49c45355c34fdb",
    "FrontierReport": "77f1daad50ee6468ee4d7bfb351773b599024c662b4e960153426069a3c9d600",
    "StateResponse": "eeff80b99b84e6df884e8215d7b9f1704d25ac5581ac5af80bfa29fcd27aeaa9",
    "Termination": "d3f833d8a0f0d3e3937fc5c7fd02d933c7fed9e72e0275b7b79689463f6692e3",
    "Inclusion": "7184ae4e860eec786fa79bb30e38de8eb51d9263b5dec8a584ed6a73f4b43ad6",
}

#: The two sub-forms that are hashed or signed on their own.
SIGNED_CONTENT_DIGEST = "d3c5da4241150e0154a08e118763b60a4d6d2c491bdb5c9be50a0607509050d8"
BLOCK_BODY_DIGEST = "19c22d32129dcbc05b38e8bd4c97edd9eb4da45305905ad915c88c117fa018cd"

#: The two records of the write-ahead log (``recovery/statestore.py``), recorded
#: while they were still plain dicts built inside the state store.  Whatever
#: writes them afterwards must hash to the same: a WAL written before must load.
JOURNAL_RECORD_DIGESTS = {
    "BlockRecord": "e94d313f887a4734b3e1d76a4d8b868844e4d77e6eb57807f63c10e5823ad7f1",
    "SnapshotRecord": "d8b4579b62d9bbdb54c028f62e655363247d7f9c8363b74f36fce67c3cff011d",
}


def journal_record_dicts() -> dict:
    """The two journal records as the plain data the state store used to build."""
    versions = {
        "x1": [RecordVersion(value=7, wts=_TS, rts=_TS2).to_wire()],
        "x10": [
            RecordVersion(value=None, wts=Timestamp.zero(), rts=Timestamp.zero()).to_wire(),
            RecordVersion(value={"k": [1, b"v"]}, wts=_TS, rts=_TS).to_wire(),
        ],
        "x2": [RecordVersion(value="nine", wts=_TS2, rts=_TS2).to_wire()],
    }
    return {
        "BlockRecord": {
            "kind": "block",
            "block": BUILDERS["Block"]().to_wire(),
            "shard_root": b"\x0f" * 32,
        },
        "SnapshotRecord": {
            "kind": "snapshot",
            "server_id": "s0",
            "next_height": 10,
            "datastore": {"multi_versioned": True, "items": versions},
            "checkpoint": BUILDERS["Checkpoint"]().to_wire(),
        },
    }


#: One representative payload of each of the 16 request messages, recorded
#: while senders still built them as dict literals.  Whatever builds a request
#: afterwards must hash to the same: the payload is signed content, and its
#: length is what ``net.bytes`` meters.
REQUEST_PAYLOAD_DIGESTS = {
    "begin_transaction": "3f592b6740e6ec37970b0a7a136430506915e1fcfdc9f1a86ae386f354c36ce9",
    "read": "85daabd56cb872e90917d10c3bf3d9dd10a9328115191f772d65936e8cb68edf",
    "write": "660994a488d38da4b21d0ee3377f4a47378027550da419c2e9ac7fb4fc945ec0",
    "end_transaction": "7b1469672581f1a74b37a54cfc4bc3125fbae25bddebe82cf4e4032e1396ed0d",
    "get_vote": "2f353c5f80525219048cfadda3c0f8dccb766199dd93fe9d3c5305046e656912",
    "challenge": "abbbff22b5cf6de36323ceccf2e002ff260f04c326609e1189f35b6bf2478f97",
    "decision": "3ef7f69e63d0fd63a79072d470d8bbe54f5b4a35a5476f557646ce1a3c408cea",
    "round_failed": "1273806ee3b196b7f3c0792aefb1d197ef5a07b6c932cf6ccfc4afb211bb3f8b",
    "ordered_block": "3ef7f69e63d0fd63a79072d470d8bbe54f5b4a35a5476f557646ce1a3c408cea",
    "view_change": "3791619eda1fc401f3dd2ee239095205d2cf4bda7b68d64fd78001c678ce02cf",
    "new_view": "3791619eda1fc401f3dd2ee239095205d2cf4bda7b68d64fd78001c678ce02cf",
    "prepare": "2f353c5f80525219048cfadda3c0f8dccb766199dd93fe9d3c5305046e656912",
    "commit_decision": "3ef7f69e63d0fd63a79072d470d8bbe54f5b4a35a5476f557646ce1a3c408cea",
    "state_request": "d907c95e9167a5ee053da65b87b6a02e91338c4de94f1bee698afe8e80a831e9",
    "audit_log_request": "36c56a3ce6b05d8c06f86ae5afb30c109dfbbabb2a66ad9339d95d6256eecb26",
    "audit_vo_request": "310f5f72cfba84583515d557ed57adb40e5003188be63b72d785b8f9c7726b29",
}


def request_payload_dicts() -> dict:
    """The 16 request payloads as the plain dicts their senders used to build."""
    block = BUILDERS["Block"]()
    end_transaction = {"transaction": _TXN, "commit_ts": _TS2.as_tuple()}
    proposal = {
        "block": block,
        "client_requests": [
            Envelope("c1", "s0", MessageType.END_TRANSACTION, end_transaction, b"\x06" * 16)
        ],
    }
    view = {"group": ["s1", "s0"], "deposed": "s0", "view": 3}
    return {
        "begin_transaction": {"txn_id": "c1-txn-7", "client_id": "c1"},
        "read": {"txn_id": "c1-txn-7", "item_id": "x1"},
        "write": {"txn_id": "c1-txn-7", "item_id": "x2", "value": {"k": [1, b"v"]}},
        "end_transaction": end_transaction,
        "get_vote": proposal,
        "challenge": {"challenge": 11, "aggregate_commitment": b"\x09" * 33, "block": block},
        "decision": {"block": block},
        "round_failed": {"round_key": ("group", 3, "t1", "t2")},
        "ordered_block": {"block": block},
        "view_change": view,
        "new_view": view,
        "prepare": proposal,
        "commit_decision": {"block": block},
        "state_request": {"from_height": 4},
        "audit_log_request": {"full": True},
        "audit_vo_request": {"item_id": "x1", "at": _TS2.as_tuple()},
    }


def _digest(wire) -> str:
    return hashlib.sha256(canonical_encode(wire)).hexdigest()


def test_every_builder_is_pinned():
    assert set(WIRE_DIGESTS) == set(BUILDERS)


@pytest.mark.parametrize("class_name", sorted(WIRE_DIGESTS))
def test_wire_form_encodes_to_the_pinned_bytes(class_name):
    assert _digest(BUILDERS[class_name]().to_wire()) == WIRE_DIGESTS[class_name]


def test_an_object_encodes_as_its_wire_form():
    """``canonical_encode(x)`` and ``canonical_encode(x.to_wire())`` agree."""
    for class_name, digest in WIRE_DIGESTS.items():
        assert _digest(BUILDERS[class_name]()) == digest, class_name


def test_envelope_signed_content_is_pinned():
    assert _digest(BUILDERS["Envelope"]().to_wire()["content"]) == SIGNED_CONTENT_DIGEST


def test_block_body_is_pinned():
    assert _digest(BUILDERS["Block"]().to_wire()["body"]) == BLOCK_BODY_DIGEST


@pytest.mark.parametrize("record", sorted(JOURNAL_RECORD_DIGESTS))
def test_journal_record_dict_form_encodes_to_the_pinned_bytes(record):
    assert _digest(journal_record_dicts()[record]) == JOURNAL_RECORD_DIGESTS[record]


@pytest.mark.parametrize("record", sorted(JOURNAL_RECORD_DIGESTS))
def test_the_record_classes_write_the_bytes_the_dict_forms_did(record):
    """The literals above were recorded before the classes existed."""
    assert WIRE_DIGESTS[record] == JOURNAL_RECORD_DIGESTS[record]
    assert canonical_encode(BUILDERS[record]()) == canonical_encode(journal_record_dicts()[record])


def test_every_request_message_is_pinned():
    assert set(REQUEST_PAYLOAD_DIGESTS) == {member.value for member in MessageType}
    assert set(request_payload_dicts()) == set(REQUEST_PAYLOAD_DIGESTS)


@pytest.mark.parametrize("message", sorted(REQUEST_PAYLOAD_DIGESTS))
def test_request_payload_dict_form_encodes_to_the_pinned_bytes(message):
    assert _digest(request_payload_dicts()[message]) == REQUEST_PAYLOAD_DIGESTS[message]


@pytest.mark.parametrize("message_type", MessageType, ids=lambda m: m.value)
def test_the_request_forms_write_the_bytes_the_dict_payloads_did(message_type):
    """The literals above were recorded before the forms existed."""
    form = MESSAGES[message_type].request.__name__
    assert WIRE_DIGESTS[form] == REQUEST_PAYLOAD_DIGESTS[message_type.value]
    assert canonical_encode(BUILDERS[form]()) == canonical_encode(
        request_payload_dicts()[message_type.value]
    )


# -- what a delivery signs and what the network meters ---------------------------
#
# Recorded before the network kept a per-link header and phases began to hand
# one splice to several deliveries: the bytes an envelope's signature covers
# are ``content_bytes()`` of the envelope, these bytes, whoever puts them
# together, and a run's traffic is metered on their lengths.

#: ``sha256(Envelope("s0", "s1", type, BUILDERS[request form]()).content_bytes())``.
SIGNED_BYTES_DIGESTS = {
    "begin_transaction": "1067debbed8994272c9306050a3b05507e31d56499b200c036d1fe1a25d61a5c",
    "read": "07538033b9c944f8cc3003d25a4fdd0e0db00f5e51c5fd27dd421836425f5fdf",
    "write": "8dea2e741fe41912295eaf885095ca8699f73cca32cbc6b9b04e6224db9d3c36",
    "end_transaction": "9f0bf4bfeb80d398cfd367a4e99f1d062703abdec92d7ec4f4f829c144ae8e8e",
    "get_vote": "95eab69a8dfa60b72e72465c2fb0a541e8f983a355aee78a96391cbed0115720",
    "challenge": "b77075dec62db4b35afcfd37d92c9a9cf608e924af6b210e1e9e3928dc6deb93",
    "decision": "6ff2a334122f9a5e2d99d8de95227723a25f51235cf422bfac1b610b5224ac5a",
    "round_failed": "f32f7058763edd56ae6e1425c1f1b63c966b868365241eaf451b1e6868cd1632",
    "ordered_block": "6bd4959cc6c956cdc75aabb1b3315cd68e9891b6f85fcc41f1b7cb567cfc6de5",
    "view_change": "a3c479a90bfa9c9be39028b70089156a03caff26d58c2dcb139e632d1f7cb2bd",
    "new_view": "8fc6edd0b35e0f09737419c0c4a802941ee38d4d5dd5ba9dadd1327cf400b967",
    "prepare": "4a6ace62dcaa0a14123abbd6c281e66b9f67aea25562b59596b17c6496cf9ada",
    "commit_decision": "1e471fc87a5439147b394bfc37dfa5bb10320f6e97482dc35bea74d633ff8ff8",
    "state_request": "075be23f265c4981d3ae0b79ab171c02540eac532091f284b02d28236a54d645",
    "audit_log_request": "0346bb2c5ed96315335734d71cbbbbd7ad148874dddd49a2a0117ea65dfba762",
    "audit_vo_request": "1346e7a487bec6dd00d0610b6ed3d7566afb8e0ade6537c7f07755f1592d7494",
}


@pytest.mark.parametrize("message_type", MessageType, ids=lambda m: m.value)
def test_an_envelopes_signed_bytes_are_pinned(message_type):
    request = BUILDERS[MESSAGES[message_type].request.__name__]()
    envelope = Envelope("s0", "s1", message_type, request)
    digest = hashlib.sha256(envelope.content_bytes()).hexdigest()
    assert digest == SIGNED_BYTES_DIGESTS[message_type.value]
    assert envelope.content_bytes() == canonical_encode(envelope.to_wire()["content"])
    # The signature is not part of what it covers.
    assert envelope.with_signature(b"\x06" * 32).content_bytes() == envelope.content_bytes()


#: The registry's ``net.messages.<type>`` / ``net.bytes.<type>`` counters of
#: six two-op transactions (YCSB seed 3) on three servers, config seed 11, hash
#: envelopes, two per block -- followed by an audit where the deployment has
#: co-signed blocks.
TRAFFIC = {
    "classic": {
        "per_type": {
            "audit_log_request": 3,
            "audit_vo_request": 4,
            "begin_transaction": 11,
            "challenge": 9,
            "decision": 9,
            "end_transaction": 6,
            "get_vote": 9,
            "read": 12,
            "write": 12,
        },
        "bytes_per_type": {
            "audit_log_request": 321,
            "audit_vo_request": 604,
            "begin_transaction": 1507,
            "challenge": 15294,
            "decision": 15957,
            "end_transaction": 4289,
            "get_vote": 27237,
            "read": 1596,
            "write": 1803,
        },
    },
    "scaled": {
        "per_type": {
            "audit_log_request": 3,
            "audit_vo_request": 3,
            "begin_transaction": 11,
            "challenge": 8,
            "end_transaction": 6,
            "get_vote": 8,
            "ordered_block": 12,
            "read": 12,
            "write": 12,
        },
        "bytes_per_type": {
            "audit_log_request": 321,
            "audit_vo_request": 402,
            "begin_transaction": 1507,
            "challenge": 11316,
            "end_transaction": 4289,
            "get_vote": 18916,
            "ordered_block": 17889,
            "read": 1596,
            "write": 1803,
        },
    },
    "2pc": {
        "per_type": {
            "begin_transaction": 11,
            "commit_decision": 9,
            "end_transaction": 6,
            "prepare": 9,
            "read": 12,
            "write": 12,
        },
        "bytes_per_type": {
            "begin_transaction": 1507,
            "commit_decision": 12993,
            "end_transaction": 4289,
            "prepare": 27228,
            "read": 1596,
            "write": 1803,
        },
    },
}


def traffic_run(deployment: str):
    """The fixed run ``TRAFFIC`` was recorded from; returns the system afterwards."""
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
    if deployment == "scaled":
        system = ScaledFidesSystem(config, latency=latency, sequencer=sharded_sequencer(2))
    else:
        protocol = "2pc" if deployment == "2pc" else "tfcommit"
        system = FidesSystem(config, protocol=protocol, latency=latency)
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(), ops_per_txn=2, conflict_free_window=0, seed=3
    )
    assert system.run_workload(workload.generate(6)).committed == 6
    if deployment != "2pc":  # the baseline has no co-signed blocks to audit
        assert system.audit().ok
    return system


@pytest.mark.parametrize("deployment", sorted(TRAFFIC))
def test_a_runs_traffic_is_pinned(deployment):
    metrics = traffic_run(deployment).sim.obs.metrics
    assert metrics.breakdown("net.messages") == TRAFFIC[deployment]["per_type"]
    assert metrics.breakdown("net.bytes") == TRAFFIC[deployment]["bytes_per_type"]
    assert metrics.counter_value("net.messages") == sum(TRAFFIC[deployment]["per_type"].values())
    assert metrics.counter_value("net.bytes_total") == sum(
        TRAFFIC[deployment]["bytes_per_type"].values()
    )
    assert metrics.counter_value("net.rejected") == 0
