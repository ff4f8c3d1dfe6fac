"""Lemma 6: tampered or reordered log copies are detected and attributed."""

from __future__ import annotations

from dataclasses import replace


from repro.audit.violations import ViolationType
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp


class TestLogTamperingDetection:
    def test_value_tampering_detected(self, small_system, run_history):
        run_history(small_system)
        log = small_system.server("s1").log
        block = log[2]
        txn = block.transactions[0]
        forged_entry = replace(txn.write_set[0], new_value="__forged__")
        forged_txn = replace(txn, write_set=(forged_entry,))
        log.tamper_replace(2, replace(block, transactions=(forged_txn,)))

        report = small_system.audit()
        assert not report.ok
        tampered = report.violations_of(ViolationType.LOG_TAMPERED)
        assert tampered
        assert tampered[0].culprits == ("s1",)
        assert tampered[0].block_height == 2
        # The reference log still comes from a correct server.
        assert report.reference_log_server in ("s0", "s2")
        assert report.reference_log_length == 5

    def test_reordering_detected(self, small_system, run_history):
        run_history(small_system)
        log = small_system.server("s2").log
        second, fourth = log[1], log[3]
        log.tamper_replace(1, fourth)
        log.tamper_replace(3, second)
        report = small_system.audit()
        assert not report.ok
        assert any(
            v.kind is ViolationType.LOG_TAMPERED and "s2" in v.culprits
            for v in report.violations
        )

    def test_fault_policy_tampering_detected(self, small_system, run_history):
        run_history(small_system, count=3, seed=52)
        small_system.inject_fault("s1", [FaultPlan("log-tamper", "s1", params={"height": 1})])
        # The fault rewrites history right after the next block is appended.
        item = small_system.shard_map.items_of("s0")[0]
        assert small_system.run_transaction([ReadOp(item), WriteOp(item, 5)]).committed
        report = small_system.audit()
        assert not report.ok
        assert "s1" in report.culprit_servers()

    def test_all_but_one_server_tampered_still_detected(self, small_system, run_history):
        """n-1 faulty servers: the single correct copy is found and the rest exposed."""
        run_history(small_system, count=4, seed=53)
        log = small_system.server("s1").log
        first, second = log[0], log[1]
        log.tamper_replace(0, second)
        log.tamper_replace(1, first)
        small_system.server("s2").log.truncate(1)
        report = small_system.audit()
        assert report.reference_log_server == "s0"
        assert report.reference_log_length == 4
        assert "s1" in report.culprit_servers()
        assert "s2" in report.culprit_servers()
        assert "s0" not in report.culprit_servers()
