"""Lemma 1 / Scenario 1: incorrect read values are detected and attributed."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.audit.report import AuditReport
from repro.audit.violations import ViolationType
from repro.core.sequencing import sharded_sequencer
from repro.ledger.log import TransactionLog
from repro.server.faults import FaultPlan
from repro.storage.shard import INITIAL_VALUE
from repro.txn.operations import ReadOp, WriteOp

#: ``(lie, how a server tells it about a never-written item's read entry,
#: given the log's earlier write, what a log from genesis reports)``.
FIRST_READ_LIES = [
    ("the honest first read", lambda entry, write: entry, []),
    (
        "a wrong value",
        lambda entry, write: replace(entry, value=12345),
        [ViolationType.INCORRECT_READ],
    ),
    (
        "another write's stamp",
        lambda entry, write: replace(entry, wts=write.commit_ts),
        [ViolationType.ISOLATION_VIOLATION],
    ),
    (
        "a wrong value at another write's stamp",
        lambda entry, write: replace(entry, value=12345, wts=write.commit_ts),
        [ViolationType.INCORRECT_READ, ViolationType.ISOLATION_VIOLATION],
    ),
]


class TestIncorrectReadDetection:
    def _commit_then_lie(self, system):
        """Commit a known value, then make its server lie about it to the next reader."""
        item = system.shard_map.items_of("s1")[0]
        assert system.run_transaction([ReadOp(item), WriteOp(item, 1000)]).committed
        system.inject_fault(
            "s1", [FaultPlan("read-corruption", "s1", params={"item": item, "value": 0})]
        )
        # The next transaction reads the stale value 0 (with fresh timestamps,
        # as in the paper's Figure 10 example) and still commits.
        outcome = system.run_transaction([ReadOp(item), WriteOp(item, 900)], client_index=1)
        assert outcome.committed
        return item

    def test_auditor_detects_incorrect_read(self, small_system):
        item = self._commit_then_lie(small_system)
        report = small_system.audit()
        assert not report.ok
        violations = report.violations_of(ViolationType.INCORRECT_READ)
        assert violations, report.summary()
        violation = violations[0]
        assert violation.item_id == item
        assert violation.culprits == ("s1",)
        # The precise point in history: the block holding the lying read.
        assert violation.block_height == 1

    # Each lie compares equal to the written value and is another value on
    # the wire; ``0.0 == -0.0`` is why two floats are compared by encoding.
    @pytest.mark.parametrize("written, lie", [(0.0, -0.0), (1, True), (1, 1.0)])
    def test_a_lie_equal_only_by_comparison_is_detected(self, small_system, written, lie):
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, written)]).committed
        small_system.inject_fault(
            "s1", [FaultPlan("read-corruption", "s1", params={"item": item, "value": lie})]
        )
        assert small_system.run_transaction([ReadOp(item)], client_index=1).committed
        [violation] = small_system.audit().violations
        assert violation.kind is ViolationType.INCORRECT_READ
        assert (violation.item_id, violation.culprits, violation.block_height) == (item, ("s1",), 1)

    def test_a_lie_about_a_never_written_item_is_detected(self, small_system):
        """The first read of an item is checked against its initial value."""
        assert small_system.run_transaction(
            [WriteOp(small_system.shard_map.items_of("s2")[0], 7)]
        ).committed
        item = small_system.shard_map.items_of("s1")[0]
        small_system.inject_fault(
            "s1", [FaultPlan("read-corruption", "s1", params={"item": item, "value": 12345})]
        )
        assert small_system.run_transaction([ReadOp(item)], client_index=1).committed
        report = small_system.audit()
        [violation] = report.violations
        assert violation.kind is ViolationType.INCORRECT_READ
        assert violation.item_id == item
        assert violation.culprits == ("s1",)
        assert violation.block_height == 1

    def test_honest_servers_are_not_blamed(self, small_system):
        self._commit_then_lie(small_system)
        report = small_system.audit()
        assert "s0" not in report.culprit_servers()
        assert "s2" not in report.culprit_servers()

    def test_bank_example_from_the_paper(self, small_system):
        """Figure 10: two $100 withdrawals, the second sees a stale balance."""
        account_x = small_system.shard_map.items_of("s1")[0]
        account_y = small_system.shard_map.items_of("s2")[0]
        # Fund the accounts.
        small_system.run_transaction([WriteOp(account_x, 1000), WriteOp(account_y, 500)])
        # T1 withdraws $100 from both accounts.
        assert small_system.run_transaction(
            [ReadOp(account_x), ReadOp(account_y), WriteOp(account_x, 900), WriteOp(account_y, 400)]
        ).committed
        # The server storing x now replays the pre-withdrawal balance.
        small_system.inject_fault(
            "s1", [FaultPlan("read-corruption", "s1", params={"item": account_x, "value": 1000})]
        )
        # T2 withdraws another $100 using the stale balance.
        assert small_system.run_transaction(
            [ReadOp(account_x), WriteOp(account_x, 900)], client_index=1
        ).committed
        report = small_system.audit()
        incorrect_reads = report.violations_of(ViolationType.INCORRECT_READ)
        assert any(v.item_id == account_x and "s1" in v.culprits for v in incorrect_reads)

    # ``False == 0.0 == 0``, the initial value: the lie must be caught by
    # what the value is, not by what it compares equal to.
    @pytest.mark.parametrize("lie", [12345, False, 0.0])
    def test_a_lie_about_a_never_written_item_is_detected_under_sharded_ordering(
        self, make_scaled_system, lie
    ):
        system = make_scaled_system(txns_per_block=1, sequencer=sharded_sequencer(2))
        item = system.shard_map.items_of("s1")[0]
        system.inject_fault(
            "s1", [FaultPlan("read-corruption", "s1", params={"item": item, "value": lie})]
        )
        assert system.run_transaction([ReadOp(item)]).committed
        [violation] = system.audit().violations
        assert violation.kind is ViolationType.INCORRECT_READ
        assert (violation.item_id, violation.culprits, violation.block_height) == (item, ("s1",), 0)
        assert f"the initial value was {INITIAL_VALUE!r}" in violation.description

    def test_every_item_starts_at_the_initial_value(self, small_system):
        for sid in small_system.config.server_ids:
            store = small_system.server(sid).store
            for item in small_system.shard_map.items_of(sid):
                assert store.read(item).value == INITIAL_VALUE


class TestTheFirstReadOfAnItem:
    """Lemma 1 on a read of an item that no logged write has touched yet: a
    log from genesis holds it to the initial value at the genesis stamp; a
    checkpoint-truncated log cannot, so the read goes unchecked."""

    @pytest.fixture
    def honest(self, small_system):
        """``(block 0 writing an item of s2, block 1 reading a fresh item of s1)``."""
        written = small_system.shard_map.items_of("s2")[0]
        fresh = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(written, 7)]).committed
        assert small_system.run_transaction([ReadOp(fresh)], client_index=1).committed
        return small_system.server("s0").log.blocks

    @staticmethod
    def told(blocks, lie):
        """Block 1 with its one read entry replaced by ``lie``'s."""
        [write] = blocks[0].transactions
        [txn] = blocks[1].transactions
        [entry] = txn.read_set
        doctored = replace(txn, read_set=(lie(entry, write),))
        return replace(blocks[1], transactions=(doctored,))

    @pytest.mark.parametrize(
        "lie,expected",
        [row[1:] for row in FIRST_READ_LIES],
        ids=[row[0] for row in FIRST_READ_LIES],
    )
    def test_a_log_from_genesis(self, small_system, honest, lie, expected):
        report = AuditReport()
        small_system.auditor().check_transactions(
            TransactionLog([honest[0], self.told(honest, lie)]), report
        )
        assert [v.kind for v in report.violations] == expected
        item = small_system.shard_map.items_of("s1")[0]
        for violation in report.violations:
            assert (violation.item_id, violation.culprits, violation.block_height) == (
                item,
                ("s1",),
                1,
            )
            assert "the initial value" in violation.description

    @pytest.mark.parametrize(
        "lie", [row[1] for row in FIRST_READ_LIES], ids=[row[0] for row in FIRST_READ_LIES]
    )
    def test_a_checkpoint_truncated_log(self, small_system, honest, lie):
        report = AuditReport()
        truncated = TransactionLog(
            [self.told(honest, lie)], base_height=1, base_hash=honest[0].block_hash()
        )
        small_system.auditor().check_transactions(truncated, report)
        assert report.ok and report.transactions_audited == 1
