"""Lemma 1 / Scenario 1: incorrect read values are detected and attributed."""

from __future__ import annotations


from repro.audit.violations import ViolationType
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp


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
