"""One table of forged blocks, refused alike by every acceptor of a block.

A block is accepted in four places: a live server's decision handler, a
recovering server's catch-up, the auditor's log verification, and a view
change's frontier certificate.  All four call the ledger's chain and co-sign
rules (``repro.ledger.log``), so each refuses each forgery below, and says
why in the same words wherever it says why at all.  Each forgery breaks one
rule only: the two chain forgeries are co-signed anew by the whole cluster.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import RecoveryError
from repro.core.fides import FidesSystem
from repro.core.viewchange import verify_certificate
from repro.crypto.cosi import cosign
from repro.ledger.log import TransactionLog
from repro.net.forms import Applied, FrontierCertificate, Refusal
from repro.net.latency import ConstantLatency
from repro.recovery.manager import verify_and_apply_catchup
from repro.txn.operations import WriteOp


def cosigned(block, system, signers, digest=None):
    """``block`` re-co-signed by ``signers`` over ``digest`` (its signing digest by default)."""
    keypairs = {sid: system.server(sid).keypair for sid in signers}
    return block.with_cosign(cosign(digest or block.signing_digest(), keypairs))


def as_group_block(block, system):
    """The block recorded as a group block of every server, co-signed by s0 and s1 only."""
    group_block = replace(block, group=tuple(system.server_ids), cosign=None)
    return cosigned(group_block, system, ("s0", "s1"))


#: ``(forgery, how to make it from the honest block, the reason every acceptor gives)``.
FORGERIES = [
    ("no co-sign", lambda b, s: replace(b, cosign=None), "missing collective signature"),
    (
        "a classic block co-signed by s0 alone",
        lambda b, s: cosigned(b, s, ("s0",)),
        "collective signature of a classic block is not by exactly the cluster's servers",
    ),
    (
        "a group block whose signers differ from its group",
        as_group_block,
        "group block signer set does not match its recorded group",
    ),
    (
        "a co-sign over another digest",
        lambda b, s: cosigned(b, s, s.server_ids, digest=b"another block's digest"),
        "invalid collective signature",
    ),
    (
        "the wrong height",
        lambda b, s: cosigned(replace(b, height=b.height + 1), s, s.server_ids),
        "block height 1 does not extend log height 0",
    ),
    (
        "a broken previous_hash",
        lambda b, s: cosigned(replace(b, previous_hash=b"\x01" * 32), s, s.server_ids),
        "block previous_hash does not match the log head",
    ),
]


@pytest.fixture
def honest(small_system):
    """``(system, the first block it committed)``."""
    item = small_system.shard_map.items_of("s1")[0]
    assert small_system.run_transaction([WriteOp(item, 9)]).committed
    block = small_system.server("s0").log[0]
    assert block.height == 0 and block.group is None
    return small_system, block


def acceptors(system, config, honest_block):
    """Each acceptor as ``block -> reason``: "" accepts, ``None`` refuses without a reason."""
    keys = system.network.public_key_directory()
    servers = system.server_ids

    def fresh_server():
        return FidesSystem(config, latency=ConstantLatency(0.0002)).server("s1")

    def decision(block):
        reply = fresh_server().commitment.handle_decision(block, keys, servers)
        assert isinstance(reply, (Applied, Refusal))
        return reply.reason if isinstance(reply, Refusal) else ""

    def catch_up(block):
        server = fresh_server()
        try:
            verify_and_apply_catchup("s1", server.store, server.log, [block], keys, servers)
        except RecoveryError as exc:
            prefix = f"catch-up block {block.height}: "
            assert str(exc).startswith(prefix)
            return str(exc)[len(prefix):]
        return ""

    def log_verification(block):
        return TransactionLog([block]).verify(keys, servers).reason

    def frontier_certificate(block):
        # The cohort claims the frontier every server agreed on, and backs it
        # with ``block`` as its head.
        certificate = FrontierCertificate(
            "s1", 0, honest_block.height + 1, honest_block.block_hash(), block.to_wire()
        )
        return "" if verify_certificate(certificate, keys, servers, "s1") else None

    return {
        "handle_decision": decision,
        "verify_and_apply_catchup": catch_up,
        "TransactionLog.verify": log_verification,
        "verify_certificate": frontier_certificate,
    }


def test_the_honest_block_passes_every_acceptor(honest, small_config):
    system, block = honest
    for name, accept in acceptors(system, small_config, block).items():
        assert accept(block) == "", name


@pytest.mark.parametrize(
    "forge,reason",
    [(forge, reason) for _, forge, reason in FORGERIES],
    ids=[name for name, _, _ in FORGERIES],
)
def test_every_acceptor_refuses_the_forgery_alike(honest, small_config, forge, reason):
    system, block = honest
    forged = forge(block, system)
    checks = acceptors(system, small_config, block)
    reasons = {name: accept(forged) for name, accept in checks.items()}
    assert reasons == {
        "handle_decision": reason,
        "verify_and_apply_catchup": reason,
        "TransactionLog.verify": reason,
        "verify_certificate": None,
    }
