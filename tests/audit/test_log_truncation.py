"""Lemma 7: logs with missing tails are detected and attributed."""

from __future__ import annotations


from repro.audit.violations import ViolationType
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp


class TestLogTruncationDetection:
    def test_truncated_copy_detected(self, small_system, run_history):
        run_history(small_system, count=5, seed=61)
        small_system.server("s2").log.truncate(2)
        report = small_system.audit()
        assert not report.ok
        incomplete = report.violations_of(ViolationType.LOG_INCOMPLETE)
        assert incomplete
        assert incomplete[0].culprits == ("s2",)
        # The violation records where the tail went missing.
        assert incomplete[0].block_height == 2
        assert report.reference_log_length == 5

    def test_truncation_via_fault_policy(self, small_system, run_history):
        run_history(small_system, count=3, seed=62)
        small_system.inject_fault("s1", [FaultPlan("log-truncate", "s1", params={"keep": 1})])
        item = small_system.shard_map.items_of("s0")[0]
        assert small_system.run_transaction([ReadOp(item), WriteOp(item, 1)]).committed
        report = small_system.audit()
        assert not report.ok
        assert any(
            v.kind is ViolationType.LOG_INCOMPLETE and "s1" in v.culprits
            for v in report.violations
        )

    def test_reference_log_survives_majority_truncation(self, small_system, run_history):
        run_history(small_system, count=4, seed=63)
        small_system.server("s0").log.truncate(1)
        small_system.server("s1").log.truncate(2)
        report = small_system.audit()
        assert report.reference_log_server == "s2"
        assert report.reference_log_length == 4
        assert set(report.culprit_servers()) == {"s0", "s1"}
