"""Lemma 2 / Scenario 3: datastore corruption is detected via MHT authentication."""

from __future__ import annotations

import pytest

from repro.audit.violations import ViolationType
from repro.net.message import MessageType
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp


def committed_item_on(system, server_id):
    """Return an (item, block_height) pair for a write committed on ``server_id``."""
    for block in reversed(system.server(server_id).log.blocks):
        if not block.is_commit:
            continue
        for txn in block.transactions:
            for entry in txn.write_set:
                if system.shard_map.server_for(entry.item_id) == server_id:
                    return entry.item_id, block.height
    raise AssertionError(f"no committed write found on {server_id}")


class TestDatastoreCorruptionDetection:
    def test_direct_corruption_detected_and_attributed(self, small_system, workload_factory):
        workload = workload_factory(small_system, ops_per_txn=2, seed=31)
        small_system.run_workload(workload.generate(5))
        item, height = committed_item_on(small_system, "s1")
        small_system.server("s1").store.corrupt(item, 424242)
        report = small_system.audit()
        assert not report.ok
        violations = report.violations_of(ViolationType.DATASTORE_CORRUPTION)
        assert violations
        assert all(v.culprits == ("s1",) for v in violations)
        assert any(v.item_id == item for v in violations)

    def test_fault_policy_corruption_detected(self, small_system):
        item = small_system.shard_map.items_of("s2")[0]
        small_system.inject_fault(
            "s2", [FaultPlan("post-commit-corruption", "s2", params={"items": {item: -999}})]
        )
        assert small_system.run_transaction([ReadOp(item), WriteOp(item, 7)]).committed
        report = small_system.audit()
        assert not report.ok
        assert "s2" in report.culprit_servers()

    def test_exhaustive_audit_pinpoints_corruption_version(self, small_system):
        """Multi-versioned policy: the precise corrupted version is identified."""
        item = small_system.shard_map.items_of("s1")[0]
        small_system.run_transaction([ReadOp(item), WriteOp(item, 1)])
        small_system.run_transaction([ReadOp(item), WriteOp(item, 2)])
        small_system.run_transaction([ReadOp(item), WriteOp(item, 3)])
        # Corrupt the *latest* stored version; earlier versions stay intact.
        small_system.server("s1").store.corrupt(item, 666)
        report = small_system.auditor().run_audit(datastore_mode="all")
        corrupted_height = min(
            v.block_height
            for v in report.violations_of(ViolationType.DATASTORE_CORRUPTION)
            if v.culprits == ("s1",)
        )
        assert corrupted_height == 2  # the block whose version no longer authenticates

    def test_other_servers_stay_clean(self, small_system, workload_factory):
        workload = workload_factory(small_system, ops_per_txn=2, seed=32)
        small_system.run_workload(workload.generate(5))
        item, _ = committed_item_on(small_system, "s1")
        small_system.server("s1").store.corrupt(item, 31337)
        report = small_system.audit()
        assert report.culprit_servers() == ("s1",)


class TestLyingInclusionReply:
    """A verification-object reply is believed only as far as it decodes: one
    that is not an ``Inclusion`` is that server's datastore corruption.  It
    used to raise ``AttributeError`` out of the audit."""

    @pytest.mark.parametrize(
        "damage",
        [
            lambda reply: {**reply, "vo": "not a proof"},
            lambda reply: {key: value for key, value in reply.items() if key != "value"},
        ],
        ids=["vo-not-a-proof", "no-value"],
    )
    def test_a_malformed_inclusion_reply_is_corruption_of_that_server(
        self, small_system, workload_factory, lie, damage
    ):
        workload = workload_factory(small_system, ops_per_txn=2, seed=33)
        small_system.run_workload(workload.generate(5))
        last = small_system.server("s0").log.blocks[-1].transactions[-1].write_set[-1]
        liar = small_system.shard_map.server_for(last.item_id)
        lie(small_system, liar, MessageType.AUDIT_VO_REQUEST, damage)
        report = small_system.audit()
        violations = report.violations_of(ViolationType.DATASTORE_CORRUPTION)
        assert violations and report.violations == violations
        assert {v.culprits for v in violations} == {(liar,)}
        assert last.item_id in {v.item_id for v in violations}


class TestEqualValuesThatEncodeApart:
    """A historical tree re-hashes every leaf whose value encodes differently.

    ``False == 0``, so a datastore that picked the changed leaves by ``==``
    left a later ``False`` in the tree of an earlier block, and the
    exhaustive audit blamed an honest server for it.
    """

    def test_writing_false_over_zero_blames_no_one(self, small_system):
        first, second = small_system.shard_map.items_of("s0")[:2]
        assert small_system.run_transaction([ReadOp(first), WriteOp(first, 5)]).committed
        assert small_system.run_transaction([ReadOp(second), WriteOp(second, False)]).committed
        assert small_system.auditor().run_audit(datastore_mode="latest").ok
        report = small_system.auditor().run_audit(datastore_mode="all")
        assert report.ok, [v.description for v in report.violations]
