"""Tests for the tamper-proof transaction log (Lemmas 6 and 7)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.auditor import Auditor
from repro.audit.report import AuditReport
from repro.common.errors import AuditError, ValidationError
from repro.common.timestamps import Timestamp
from repro.crypto.cosi import cosign
from repro.crypto.keys import keypair_for
from repro.ledger.block import BlockDecision, make_partial_block
from repro.ledger.log import TransactionLog
from repro.net.network import Network
from repro.sim.context import SimContext
from repro.txn.transaction import Transaction, WriteSetEntry

SERVER_IDS = ["s0", "s1", "s2"]
KEYPAIRS = {sid: keypair_for(sid, seed=42) for sid in SERVER_IDS}
PUBLIC_KEYS = {sid: kp.public for sid, kp in KEYPAIRS.items()}


def make_txn(index: int) -> Transaction:
    return Transaction(
        txn_id=f"t{index}",
        client_id="c0",
        commit_ts=Timestamp(index + 1, "c0"),
        read_set=[],
        write_set=[WriteSetEntry(f"item-{index}", index)],
    )


def cosign_block(block):
    return block.with_cosign(cosign(block.body_digest(), KEYPAIRS))


def build_log(length: int = 4) -> TransactionLog:
    log = TransactionLog()
    for index in range(length):
        block = make_partial_block(log.height, [make_txn(index)], log.head_hash)
        block = block.with_decision(BlockDecision.COMMIT, {"s0": bytes([index]) * 32})
        log.append(cosign_block(block))
    return log


class TestHonestLog:
    def test_append_and_iterate(self):
        log = build_log(3)
        assert len(log) == 3
        assert [block.height for block in log] == [0, 1, 2]

    def test_verify_accepts_honest_log(self):
        result = build_log(4).verify(PUBLIC_KEYS, SERVER_IDS)
        assert result.valid
        assert result.valid_prefix_length == 4

    def test_head_hash_chains(self):
        log = build_log(2)
        assert log[1].previous_hash == log[0].block_hash()

    def test_append_rejects_wrong_height(self):
        log = build_log(2)
        stray = make_partial_block(5, [make_txn(9)], log.head_hash)
        stray = cosign_block(stray.with_decision(BlockDecision.COMMIT, {}))
        with pytest.raises(ValidationError):
            log.append(stray)

    def test_append_rejects_broken_hash_pointer(self):
        log = build_log(2)
        stray = make_partial_block(2, [make_txn(9)], b"\x00" * 32)
        stray = cosign_block(stray.with_decision(BlockDecision.COMMIT, {}))
        with pytest.raises(ValidationError):
            log.append(stray)

    def test_append_rejects_unsigned_block(self):
        log = build_log(1)
        unsigned = make_partial_block(1, [make_txn(9)], log.head_hash).with_decision(
            BlockDecision.COMMIT, {}
        )
        with pytest.raises(ValidationError):
            log.append(unsigned)

    def test_copy_is_independent(self):
        log = build_log(3)
        copy = log.copy()
        copy.truncate(1)
        assert len(log) == 3 and len(copy) == 1

    def test_prefix_relation(self):
        log = build_log(4)
        shorter = log.copy()
        shorter.truncate(2)
        assert shorter.is_prefix_of(log)
        assert not log.is_prefix_of(shorter)


class TestTamperedLogs:
    def test_modified_block_detected(self):
        log = build_log(4)
        forged = make_partial_block(1, [make_txn(99)], log[0].block_hash())
        forged = forged.with_decision(BlockDecision.COMMIT, {"s0": b"\x09" * 32})
        forged = forged.with_cosign(log[1].cosign)  # reuse the old signature
        log.tamper_replace(1, forged)
        result = log.verify(PUBLIC_KEYS, SERVER_IDS)
        assert not result.valid
        assert result.first_invalid_height == 1
        assert "signature" in result.reason

    def test_reordered_blocks_detected(self):
        log = build_log(4)
        second, third = log[1], log[2]
        log.tamper_replace(1, third)
        log.tamper_replace(2, second)
        result = log.verify(PUBLIC_KEYS, SERVER_IDS)
        assert not result.valid
        assert result.first_invalid_height == 1

    def test_truncated_log_still_verifies_but_is_shorter(self):
        # Lemma 7: a truncated log is internally consistent; only comparing
        # against the other copies reveals the missing tail.
        log = build_log(4)
        log.truncate(2)
        result = log.verify(PUBLIC_KEYS, SERVER_IDS)
        assert result.valid
        assert result.length == 2

    def test_truncate_negative_rejected(self):
        with pytest.raises(ValidationError):
            build_log(2).truncate(-1)


def select_correct_log(logs):
    """Pick the reference copy the one way the code does: ``Auditor.check_logs``.

    Returns ``(server_id, log, per_server_results)``.
    """
    network = Network(SimContext())
    for sid, keypair in KEYPAIRS.items():
        network.register_observer(sid, keypair)
    report = AuditReport()
    reference = Auditor(network, SERVER_IDS, shard_map=None).check_logs(logs, report)
    return report.reference_log_server, reference, report.log_results


class TestSelectCorrectLog:
    def test_longest_valid_copy_wins(self):
        full = build_log(5)
        short = full.copy()
        short.truncate(3)
        tampered = full.copy()
        tampered.tamper_replace(0, full[1])
        tampered.tamper_replace(1, full[0])
        logs = {"s0": short, "s1": full, "s2": tampered}
        chosen_server, chosen_log, results = select_correct_log(logs)
        assert chosen_server == "s1"
        assert len(chosen_log) == 5
        assert not results["s2"].valid and results["s0"].valid

    def test_no_valid_copy_raises(self):
        log = build_log(2)
        first, second = log[0], log[1]
        log.tamper_replace(0, second)
        log.tamper_replace(1, first)
        with pytest.raises(AuditError):
            select_correct_log({"s0": log})

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=4))
    def test_any_honest_prefix_is_selected_over_shorter_ones(self, keep):
        full = build_log(4)
        short = full.copy()
        short.truncate(keep)
        chosen_server, chosen_log, _ = select_correct_log({"s0": short, "s1": full})
        assert chosen_server == "s1"
        assert len(chosen_log) == 4
