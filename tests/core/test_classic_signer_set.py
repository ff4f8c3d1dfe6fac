"""A classic block and a checkpoint are co-signed by exactly the cluster's servers.

A classic block records no signer set (``group`` is ``None``), and
``cosi_verify`` checks only the signers a signature lists.  Without a rule
that compares those with the cluster, one server could re-co-sign a committed
block alone and every check downstream would accept it.
"""

from __future__ import annotations

import pytest

from repro.audit.violations import ViolationType
from repro.common.errors import AuditError, ConfigurationError, RecoveryError
from repro.core.fides import FidesSystem
from repro.core.viewchange import FrontierCertificate, verify_certificate
from repro.crypto.cosi import cosi_verify, cosign
from repro.ledger.checkpoint import build_checkpoint, cosign_checkpoint
from repro.ledger.log import TransactionLog, verify_block_cosign, verify_checkpoint
from repro.net.forms import Applied, Refusal
from repro.net.latency import ConstantLatency
from repro.recovery.manager import verify_and_apply_catchup
from repro.txn.operations import WriteOp


@pytest.fixture
def committed(small_system):
    """``(system, honest block, the same block re-co-signed by s0 alone)``."""
    item = small_system.shard_map.items_of("s1")[0]
    assert small_system.run_transaction([WriteOp(item, 9)]).committed
    honest = small_system.server("s0").log.last_block()
    lone = {"s0": small_system.server("s0").keypair}
    forged = honest.with_cosign(cosign(honest.signing_digest(), lone))
    return small_system, honest, forged


def keys_of(system):
    return system.network.public_key_directory()


class TestALoneCosignOnAClassicBlock:
    def test_is_a_valid_signature_by_its_one_signer(self, committed):
        system, _, forged = committed
        assert forged.group is None and forged.cosign.signer_ids == ("s0",)
        assert cosi_verify(forged.cosign, forged.signing_digest(), keys_of(system))
        # The directory holds the client's key too: it is not the server set.
        assert set(keys_of(system)) > set(system.server_ids)

    def test_fails_the_block_rule(self, committed):
        system, honest, forged = committed
        keys = keys_of(system)
        assert verify_block_cosign(honest, keys, system.server_ids) == ""
        assert verify_block_cosign(forged, keys, system.server_ids) == (
            "collective signature of a classic block is not by exactly the cluster's servers"
        )

    def test_is_refused_by_a_fresh_cohort(self, committed, small_config):
        system, honest, forged = committed
        fresh = FidesSystem(small_config, latency=ConstantLatency(0.0002))
        cohort = fresh.server("s1").commitment
        keys = keys_of(fresh)
        refusal = cohort.handle_decision(forged, keys, fresh.server_ids)
        assert isinstance(refusal, Refusal)
        assert refusal.reason == (
            "collective signature of a classic block is not by exactly the cluster's servers"
        )
        assert len(fresh.server("s1").log) == 0
        assert isinstance(cohort.handle_decision(honest, keys, fresh.server_ids), Applied)

    def test_invalidates_a_log_and_an_audit(self, committed):
        system, honest, forged = committed
        result = TransactionLog([forged]).verify(keys_of(system), system.server_ids)
        assert not result.valid and result.first_invalid_height == 0
        logs = {server_id: TransactionLog([forged]) for server_id in system.server_ids}
        with pytest.raises(AuditError, match="no server produced a verifiable log copy"):
            system.auditor().run_audit(logs=logs)
        # Beside honest copies, the one holding it is named, and the co-sign blamed.
        logs["s0"], logs["s1"] = TransactionLog([honest]), TransactionLog([honest])
        report = system.auditor().run_audit(logs=logs)
        assert report.culprit_servers() == ("s2",)
        assert [v.kind for v in report.violations] == [ViolationType.INVALID_COSIGN]

    def test_cannot_head_a_frontier_certificate(self, committed):
        system, honest, forged = committed
        keys = keys_of(system)
        for block, holds in ((honest, True), (forged, False)):
            certificate = FrontierCertificate(
                server_id="s1",
                view=0,
                height=block.height + 1,
                head_hash=block.block_hash(),
                head=block.to_wire(),
            )
            assert verify_certificate(certificate, keys, system.server_ids, "s1") is holds

    def test_is_refused_by_catch_up(self, committed, small_config):
        system, _, forged = committed
        fresh = FidesSystem(small_config, latency=ConstantLatency(0.0002)).server("s1")
        with pytest.raises(RecoveryError, match="not by exactly the cluster"):
            verify_and_apply_catchup(
                "s1", fresh.store, fresh.log, [forged], keys_of(system), system.server_ids
            )
        assert len(fresh.log) == 0


class TestACheckpointCosign:
    def test_needs_every_server(self, committed):
        system, _, _ = committed
        log = system.server("s0").log
        roots = {sid: system.server(sid).store.merkle_root() for sid in system.server_ids}
        checkpoint = build_checkpoint(log, roots)
        keypairs = {sid: system.server(sid).keypair for sid in system.server_ids}
        honest = cosign_checkpoint(checkpoint, keypairs)
        lone = cosign_checkpoint(checkpoint, {"s0": keypairs["s0"]})
        keys = keys_of(system)
        assert verify_checkpoint(honest, keys, system.server_ids)
        assert cosi_verify(lone.cosign, lone.digest(), keys)
        assert not verify_checkpoint(lone, keys, system.server_ids)
        # A copy truncated under the lone checkpoint does not verify either.
        truncated = TransactionLog(base_height=log.height, base_hash=log.head_hash)
        assert truncated.verify(keys, system.server_ids, checkpoint=honest).valid
        result = truncated.verify(keys, system.server_ids, checkpoint=lone)
        assert not result.valid and result.reason == "checkpoint cosign failed verification"

    def test_is_not_taken_while_a_server_is_down(self, committed):
        system, _, _ = committed
        system.crash_server("s2")
        with pytest.raises(ConfigurationError, match="every server's co-sign"):
            system.create_checkpoint()
        assert all(server.latest_checkpoint is None for server in system.servers.values())
