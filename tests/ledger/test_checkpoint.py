"""Tests for auditable log checkpointing (Section 3.3 optimisation)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import ValidationError
from repro.ledger.checkpoint import apply_checkpoint, build_checkpoint, cosign_checkpoint
from repro.ledger.log import TransactionLog, verify_checkpoint
from repro.txn.operations import ReadOp, WriteOp


@pytest.fixture
def system_with_history(small_system, workload_factory):
    workload = workload_factory(small_system, ops_per_txn=2, seed=81)
    result = small_system.run_workload(workload.generate(6))
    assert result.committed == 6
    return small_system


def make_signed_checkpoint(system):
    log = system.server("s0").log
    shard_roots = {sid: system.server(sid).store.merkle_root() for sid in system.server_ids}
    checkpoint = build_checkpoint(log, shard_roots)
    keypairs = {sid: system.server(sid).keypair for sid in system.server_ids}
    return cosign_checkpoint(checkpoint, keypairs)


class TestCheckpointConstruction:
    def test_summary_covers_full_prefix(self, system_with_history):
        checkpoint = make_signed_checkpoint(system_with_history)
        assert checkpoint.height == 5
        assert checkpoint.transactions_covered == 6
        assert set(checkpoint.shard_roots) == set(system_with_history.server_ids)
        assert checkpoint.head_hash == system_with_history.server("s0").log.head_hash

    def test_cosign_verifies_with_all_server_keys(self, system_with_history):
        checkpoint = make_signed_checkpoint(system_with_history)
        public_keys = system_with_history.network.public_key_directory()
        assert verify_checkpoint(checkpoint, public_keys, system_with_history.server_ids)

    def test_unsigned_checkpoint_does_not_verify(self, system_with_history):
        log = system_with_history.server("s0").log
        roots = {sid: b"\x00" * 32 for sid in system_with_history.server_ids}
        unsigned = build_checkpoint(log, roots)
        assert not verify_checkpoint(
            unsigned,
            system_with_history.network.public_key_directory(),
            system_with_history.server_ids,
        )

    def test_empty_log_cannot_be_checkpointed(self, small_system):
        with pytest.raises(ValidationError):
            build_checkpoint(TransactionLog(), {})

    def test_digest_binds_roots(self, system_with_history):
        checkpoint = make_signed_checkpoint(system_with_history)
        altered = type(checkpoint)(
            height=checkpoint.height,
            head_hash=checkpoint.head_hash,
            shard_roots={sid: b"\x00" * 32 for sid in checkpoint.shard_roots},
            latest_commit_ts=checkpoint.latest_commit_ts,
            transactions_covered=checkpoint.transactions_covered,
            cosign=checkpoint.cosign,
        )
        assert not verify_checkpoint(
            altered,
            system_with_history.network.public_key_directory(),
            system_with_history.server_ids,
        )


class TestCheckpointApplication:
    def test_prefix_dropped_and_chain_still_verifies(self, system_with_history):
        system = system_with_history
        checkpoint = make_signed_checkpoint(system)
        # Commit two more transactions after the checkpoint was taken.
        item = system.shard_map.items_of("s1")[1]
        assert system.run_transaction([ReadOp(item), WriteOp(item, 1)]).committed
        assert system.run_transaction([ReadOp(item), WriteOp(item, 2)]).committed

        log = system.server("s1").log
        removed = apply_checkpoint(log, checkpoint)
        assert [block.height for block in removed] == list(range(6))
        assert len(log) == 2
        public_keys = system.network.public_key_directory()
        assert log.verify(public_keys, system.server_ids, checkpoint=checkpoint).valid

    def test_unsigned_checkpoint_rejected(self, system_with_history):
        system = system_with_history
        log = system.server("s0").log
        roots = {sid: system.server(sid).store.merkle_root() for sid in system.server_ids}
        unsigned = build_checkpoint(log, roots)
        with pytest.raises(ValidationError):
            apply_checkpoint(log, unsigned)

    def test_checkpoint_from_foreign_history_rejected(self, system_with_history, small_config):
        from repro.core.fides import FidesSystem
        from repro.net.latency import ConstantLatency

        other = FidesSystem(replace(small_config, seed=99), latency=ConstantLatency(0.0002))
        item = other.shard_map.all_items()[0]
        other.run_transaction([WriteOp(item, 1)])
        foreign_checkpoint = make_signed_checkpoint(other)
        with pytest.raises(ValidationError):
            apply_checkpoint(system_with_history.server("s0").log, foreign_checkpoint)

    def test_tampered_suffix_detected_against_checkpoint(self, system_with_history):
        system = system_with_history
        checkpoint = make_signed_checkpoint(system)
        item = system.shard_map.items_of("s1")[1]
        assert system.run_transaction([ReadOp(item), WriteOp(item, 1)]).committed
        assert system.run_transaction([ReadOp(item), WriteOp(item, 2)]).committed
        log = system.server("s2").log
        apply_checkpoint(log, checkpoint)
        public_keys = system.network.public_key_directory()
        assert log.verify(public_keys, system.server_ids, checkpoint=checkpoint).valid
        # Dropping the first retained block breaks the chain onto the checkpoint.
        log.drop_prefix(1)
        assert not log.verify(public_keys, system.server_ids, checkpoint=checkpoint).valid
        # So does dropping the rest: the base is still past the boundary.
        log.drop_prefix(10)
        assert not log.verify(public_keys, system.server_ids, checkpoint=checkpoint).valid
        # An empty suffix at the boundary, by contrast, is perfectly valid.
        empty = TransactionLog(base_height=checkpoint.height + 1, base_hash=checkpoint.head_hash)
        assert empty.verify(public_keys, system.server_ids, checkpoint=checkpoint).valid


class TestGroupBlockSuffix:
    def test_suffix_with_doctored_group_signer_set_rejected(self, system_with_history):
        """A group block signed by fewer servers than its recorded group must
        fail checkpoint-based verification, exactly as it fails full log
        verification (the chaining-vs-cosign split's defense)."""
        from dataclasses import replace as dc_replace

        from repro.crypto.cosi import cosign
        from repro.ledger.block import Block

        system = system_with_history
        checkpoint = make_signed_checkpoint(system)
        item = system.shard_map.items_of("s1")[1]
        assert system.run_transaction([ReadOp(item), WriteOp(item, 1)]).committed
        log = system.server("s2").log
        apply_checkpoint(log, checkpoint)
        public_keys = system.network.public_key_directory()
        assert log.verify(public_keys, system.server_ids, checkpoint=checkpoint).valid

        # Forge a "group" version of the retained block, claiming the full
        # server set but co-signed by s0 alone over the group body digest.
        honest = log[0]
        forged = Block(
            height=honest.height,
            transactions=honest.transactions,
            roots=honest.roots,
            decision=honest.decision,
            previous_hash=honest.previous_hash,
            group=tuple(system.server_ids),
        )
        lone = {"s0": system.server("s0").keypair}
        forged = forged.with_cosign(cosign(forged.group_body_digest(), lone))
        forged = dc_replace(forged, previous_hash=checkpoint.head_hash)
        log.tamper_replace(0, forged)
        assert not log.verify(public_keys, system.server_ids, checkpoint=checkpoint).valid


class TestDropPrefix:
    def test_drop_prefix_bounds(self, system_with_history):
        log = system_with_history.server("s0").log.copy()
        assert log.drop_prefix(0) == []
        assert len(log.drop_prefix(100)) == 6
        with pytest.raises(ValidationError):
            log.drop_prefix(-1)

    def test_drop_prefix_preserves_global_heights_and_head(self, system_with_history):
        log = system_with_history.server("s0").log.copy()
        head_before = log.head_hash
        height_before = log.height
        log.drop_prefix(3)
        assert log.base_height == 3
        assert log.height == height_before
        assert log.head_hash == head_before
        assert log.block_at_height(2) is None
        assert log.block_at_height(3).height == 3


class TestLiveSystemKeepsOperatingAfterCheckpoint:
    """Regression (scaled deployment support): installing a checkpoint must
    not disturb the commit protocol -- heights stay global, chaining intact,
    repeated checkpoints compose, and the auditor accepts the truncated
    logs."""

    def test_commits_continue_and_repeat_checkpoints_compose(
        self, system_with_history, workload_factory
    ):
        system = system_with_history
        first = system.create_checkpoint()
        assert all(
            server.log.base_height == first.height + 1
            for server in system.servers.values()
        )
        workload = workload_factory(system, seed=67)
        assert system.run_workload(workload.generate(4)).committed == 4
        # Second checkpoint over the already-truncated log: transaction
        # accounting accumulates across the boundary.
        second = system.create_checkpoint()
        assert second.height == first.height + 4
        assert second.transactions_covered == first.transactions_covered + 4
        assert system.run_workload(workload.generate(2)).committed == 2
        report = system.audit()
        assert report.ok, report.summary()

    def test_auditor_accepts_all_truncated_logs_and_still_detects_tampering(
        self, system_with_history, workload_factory
    ):
        from repro.audit.violations import ViolationType

        system = system_with_history
        system.create_checkpoint()
        workload = workload_factory(system, seed=68)
        assert system.run_workload(workload.generate(3)).committed == 3
        assert system.audit().ok
        # Tail-truncating a checkpointed copy is still caught (Lemma 7 does
        # not weaken across the checkpoint boundary).
        system.server("s2").log.truncate(1)
        report = system.audit()
        assert not report.ok
        assert report.violations_of(ViolationType.LOG_INCOMPLETE)
        assert report.culprit_servers() == ("s2",)

    def test_checkpoint_covering_group_blocks_survives_auditor_verification(
        self, make_scaled_system, workload_factory
    ):
        """The satellite regression: a checkpoint whose boundary block is a
        dynamic-group block (group co-sign over the chain-free group body
        digest) must verify end to end after truncation."""
        system = make_scaled_system(num_servers=4, txns_per_block=2)
        workload = workload_factory(system, ops_per_txn=2, window=2, seed=41)
        assert system.run_workload(workload.generate(8)).committed == 8
        checkpoint = system.create_checkpoint()
        boundary = checkpoint.height
        assert system.run_workload(workload.generate(4)).committed == 4
        log = system.server("s1").log
        assert log.base_height == boundary + 1
        # Every retained block is a group block; the suffix still verifies
        # against the checkpoint (co-sign over group body digest + signer
        # set == recorded group).
        assert all(block.group is not None for block in log)
        public_keys = system.network.public_key_directory()
        assert log.copy().verify(public_keys, system.server_ids, checkpoint=checkpoint).valid
        report = system.audit()
        assert report.ok, report.summary()

    def test_stale_checkpoint_application_is_a_noop(self, system_with_history):
        system = system_with_history
        first = system.create_checkpoint()
        # Re-applying the same (or an older) checkpoint drops nothing.
        assert apply_checkpoint(system.server("s0").log, first) == []
