"""Lemma 3: serializability (isolation) violations are detected and attributed."""

from __future__ import annotations


from repro.audit.violations import ViolationType
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp


class TestIsolationViolationDetection:
    def _commit_stale_transaction(self, system):
        """A malicious server skips validation, letting a stale transaction commit."""
        item = system.shard_map.items_of("s1")[0]
        # Seed the item with a committed value.
        assert system.run_transaction([ReadOp(item), WriteOp(item, 10)]).committed

        # Client 1 reads the item now...
        client = system.client(1)
        session = client.begin()
        client.read(session, item)

        # ...then client 0 commits a newer write, making client 1's read stale.
        assert system.run_transaction([ReadOp(item), WriteOp(item, 20)]).committed

        # The server storing the item stops validating, so the stale
        # transaction commits instead of aborting.
        system.inject_fault("s1", [FaultPlan("skip-validation", "s1")])
        client.write(session, item, 30)
        outcome = client.commit(session)
        assert outcome.committed
        return item

    def test_auditor_detects_isolation_violation(self, small_system):
        item = self._commit_stale_transaction(small_system)
        report = small_system.audit()
        assert not report.ok
        violations = report.violations_of(ViolationType.ISOLATION_VIOLATION)
        assert violations, report.summary()
        assert any(v.item_id == item for v in violations)
        assert any("s1" in v.culprits for v in violations)

    def test_violation_is_located_in_history(self, small_system):
        self._commit_stale_transaction(small_system)
        report = small_system.audit()
        height = report.first_violation_height()
        assert height is not None
        # Blocks 0 and 1 are the honest commits; the stale commit is block 2.
        assert height == 2

    def test_honest_execution_has_no_isolation_violations(self, small_system, workload_factory):
        workload = workload_factory(small_system, ops_per_txn=2, seed=41)
        small_system.run_workload(workload.generate(6))
        report = small_system.audit()
        assert report.violations_of(ViolationType.ISOLATION_VIOLATION) == []
