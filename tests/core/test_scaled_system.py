"""The scaled multi-coordinator deployment (Section 4.6, Figure 9).

Covers the acceptance story end to end: locality-partitioned workloads commit
through distinct dynamic-group coordinators, the ordering service merges the
per-group blocks into one dependency-respecting global log replicated on
every server, and the auditor verifies both the global hash chain and each
block's group co-sign -- which the chaining-vs-cosign identity split makes
possible (the ordering service re-chains blocks without invalidating the
group's collective signature).
"""

from __future__ import annotations

import random

import pytest

from repro.core.grouping import ServerGroup
from repro.core.sequencing import OrderingService
from repro.crypto.cosi import cosi_verify
from repro.ledger.block import Block, BlockDecision
from repro.net.forms import Refusal
from repro.obs import Observability
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import PartitionedWorkload, TransactionSpec


def partitioned_specs(system, count: int, locality: float = 1.0, seed: int = 3):
    """Locality-partitioned workload over per-two-server item pools.

    The conflict-free window spans the whole run so every transaction can
    commit deterministically (items are never reused across transactions).
    """
    server_ids = list(system.config.server_ids)
    partitions = []
    for start in range(0, len(server_ids), 2):
        items = []
        for server_id in server_ids[start : start + 2]:
            items.extend(system.shard_map.items_of(server_id))
        partitions.append(items)
    workload = PartitionedWorkload(
        partitions=partitions,
        ops_per_txn=2,
        locality=locality,
        conflict_free_window=count,
        seed=seed,
    )
    return workload.generate(count)


def pair_spec(index, item_a, item_b, base=100):
    return TransactionSpec(
        txn_index=index,
        operations=(
            ReadOp(item_a),
            WriteOp(item_a, base + index),
            ReadOp(item_b),
            WriteOp(item_b, base + index + 50),
        ),
    )


class TestScaledDeployment:
    def test_commits_through_multiple_group_coordinators(self, make_scaled_system):
        system = make_scaled_system(num_servers=4)
        result = system.run_workload(partitioned_specs(system, 12), num_clients=2)
        assert result.committed == 12
        # Locality-partitioned traffic terminates in >= 2 distinct groups,
        # each led by its own coordinator.
        assert len(system.active_group_coordinators) >= 2
        assert len(system.groups_used()) >= 2

    def test_every_server_holds_the_same_global_log(self, make_scaled_system):
        system = make_scaled_system(num_servers=4)
        system.run_workload(partitioned_specs(system, 12), num_clients=2)
        chains = {
            server_id: tuple(block.block_hash() for block in server.log)
            for server_id, server in system.servers.items()
        }
        assert len(set(chains.values())) == 1
        assert all(len(server.log) > 0 for server in system.servers.values())
        assert system.ordering.verify_dependency_order()

    def test_log_copies_verify_chain_and_group_cosigns(self, make_scaled_system):
        system = make_scaled_system(num_servers=4)
        system.run_workload(partitioned_specs(system, 8), num_clients=2)
        public_keys = system.network.public_key_directory()
        for server in system.servers.values():
            verdict = server.log.verify(public_keys, system.server_ids)
            assert verdict.valid
        # Every block's co-sign verifies against the *group body digest*
        # even though the ordering service rewrote height/previous_hash.
        for ordered in system.ordering.ordered_blocks:
            block = ordered.block
            assert block.group is not None
            assert set(block.cosign.signer_ids) == set(block.group)
            assert cosi_verify(block.cosign, block.group_body_digest(), public_keys)
            assert block.height == ordered.global_height

    def test_audit_of_honest_scaled_run_is_clean(self, make_scaled_system):
        system = make_scaled_system(num_servers=4)
        result = system.run_workload(partitioned_specs(system, 10, locality=0.7), num_clients=2)
        assert result.committed > 0
        report = system.audit()
        assert report.ok

    def test_per_version_corruption_probe_clean_on_honest_scaled_run(self, make_scaled_system):
        """Cross-group traffic interleaves commit timestamps relative to log
        order; the exhaustive per-version probe must not false-positive on
        intermediate group blocks (it audits each shard at its latest root)."""
        system = make_scaled_system(num_servers=4)
        system.run_workload(partitioned_specs(system, 10, locality=0.7), num_clients=2)
        report = system.auditor().run_audit(datastore_mode="all")
        assert report.ok

    def test_outcomes_report_the_global_block_height(self, make_scaled_system):
        system = make_scaled_system(num_servers=4, txns_per_block=1)
        item_a = system.shard_map.items_of("s0")[0]
        item_b = system.shard_map.items_of("s2")[0]
        first = system.run_transaction([WriteOp(item_a, 1)])
        second = system.run_transaction([WriteOp(item_b, 2)])
        # Heights are the ordering service's global ones, not the group
        # coordinators' placeholders (both rounds were each group's first).
        assert first.block_height == 0
        assert second.block_height == 1
        heights = [block.height for block in system.server("s0").log]
        assert heights == [0, 1]

    def test_cross_group_transaction_widens_its_group(self, make_scaled_system):
        system = make_scaled_system(num_servers=4, txns_per_block=1)
        first_partition = system.shard_map.items_of("s0")[0]
        second_partition = system.shard_map.items_of("s3")[0]
        outcome = system.run_transaction(
            [ReadOp(first_partition), WriteOp(second_partition, 5)]
        )
        assert outcome.committed
        assert ("s0", "s3") in system.groups_used()

    def test_applied_values_visible_on_owning_servers(self, make_scaled_system):
        system = make_scaled_system(num_servers=4, txns_per_block=1)
        item_a = system.shard_map.items_of("s1")[0]
        item_b = system.shard_map.items_of("s2")[0]
        assert system.run_transaction([WriteOp(item_a, 7), WriteOp(item_b, 8)]).committed
        assert system.server("s1").store.read(item_a).value == 7
        assert system.server("s2").store.read(item_b).value == 8

    def test_no_execution_or_round_state_leaks(self, make_scaled_system):
        system = make_scaled_system(num_servers=4)
        system.run_workload(partitioned_specs(system, 12, locality=0.8), num_clients=3)
        for server in system.servers.values():
            assert server.execution._active == {}
            assert server.commitment.pending_round_count() == 0

    def test_second_run_workload_reports_only_its_own_blocks(self, make_scaled_system):
        system = make_scaled_system(num_servers=4)
        first = system.run_workload(partitioned_specs(system, 6, seed=3), num_clients=2)
        second = system.run_workload(partitioned_specs(system, 6, seed=9), num_clients=2)
        total_results = sum(
            len(coordinator.results) for coordinator in system.coordinators.values()
        )
        assert len(first.block_results) + len(second.block_results) == total_results
        assert second.committed == 6


class TestScaledWithReorderWindow:
    @pytest.mark.parametrize("window", [0, 1, 3])
    def test_streams_identical_and_dependency_ordered(self, make_scaled_system, window):
        system = make_scaled_system(num_servers=6, reorder_window=window)
        result = system.run_workload(
            partitioned_specs(system, 18, locality=0.75, seed=5), num_clients=3
        )
        # Aborts are legitimate (a reordered window can make reads stale),
        # but every outcome must be terminal and the logs must agree.
        assert result.committed + result.aborted + result.failed == 18
        assert result.committed > 0
        chains = {
            server_id: tuple(block.block_hash() for block in server.log)
            for server_id, server in system.servers.items()
        }
        assert len(set(chains.values())) == 1
        assert system.ordering.verify_dependency_order()
        assert system.audit().ok


class TestGroupCosignTamperDetection:
    def test_doctored_group_membership_fails_log_verification(self, make_scaled_system):
        system = make_scaled_system(num_servers=4, txns_per_block=1)
        item = system.shard_map.items_of("s0")[0]
        partner = system.shard_map.items_of("s1")[0]
        assert system.run_transaction([WriteOp(item, 1), WriteOp(partner, 2)]).committed
        victim = system.server("s2")
        block = victim.log[0]
        # Claim a smaller group than the servers that actually co-signed.
        doctored = Block(
            height=block.height,
            transactions=block.transactions,
            roots=block.roots,
            decision=block.decision,
            previous_hash=block.previous_hash,
            cosign=block.cosign,
            group=("s0",),
        )
        victim.log.tamper_replace(0, doctored)
        verdict = victim.log.verify(system.network.public_key_directory(), system.server_ids)
        assert not verdict.valid
        assert "signer set" in verdict.reason or "signature" in verdict.reason

    def test_auditor_flags_group_that_omits_involved_server(self, make_scaled_system):
        from repro.audit.report import AuditReport
        from repro.audit.violations import ViolationType

        system = make_scaled_system(num_servers=4, txns_per_block=1)
        item = system.shard_map.items_of("s0")[0]
        partner = system.shard_map.items_of("s1")[0]
        assert system.run_transaction([WriteOp(item, 1), WriteOp(partner, 2)]).committed
        block = system.server("s0").log[0]
        shrunk = Block(
            height=block.height,
            transactions=block.transactions,
            roots={"s0": block.roots["s0"]},
            decision=block.decision,
            previous_hash=block.previous_hash,
            cosign=block.cosign,
            group=("s0",),
        )
        report = AuditReport()
        system.auditor()._check_block_structure(shrunk, report)
        kinds = {violation.kind for violation in report.violations}
        assert ViolationType.MALFORMED_BLOCK in kinds


class TestFlushConflicting:
    @staticmethod
    def _publish(service, txn_id, items_by_server, counter):
        from repro.common.timestamps import Timestamp
        from repro.ledger.block import make_partial_block
        from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

        zero = Timestamp.zero()
        members = sorted(items_by_server)
        items = [item for sid in members for item in items_by_server[sid]]
        txn = Transaction(
            txn_id=txn_id,
            client_id="c0",
            commit_ts=Timestamp(counter, "c0"),
            read_set=[ReadSetEntry(item, 0, zero, zero) for item in items],
            write_set=[WriteSetEntry(item, counter) for item in items],
        )
        block = make_partial_block(0, [txn], b"\x00" * 32).with_decision(
            BlockDecision.COMMIT, {sid: b"\x01" * 32 for sid in members}
        )
        group = ServerGroup(members=frozenset(members), coordinator=min(members))
        service.publish(block, group)
        return group

    def test_disjoint_blocks_keep_their_reordering_freedom(self):
        service = OrderingService(Observability(), reorder_window=5)
        self._publish(service, "t-disjoint", {"s2": ["x2"], "s3": ["x3"]}, 1)
        overlapping = self._publish(service, "t-overlap", {"s0": ["x0"], "s1": ["x1"]}, 2)
        service.flush_conflicting(overlapping)
        # Only the overlapping block landed; the disjoint one stays pending.
        landed = [ob.block.transactions[0].txn_id for ob in service.ordered_blocks]
        assert landed == ["t-overlap"]
        service.flush()
        assert service.stream_length == 2

    def test_upstream_dependency_lands_with_the_conflicting_block(self):
        service = OrderingService(Observability(), reorder_window=5)
        # t-up writes x1 on s1; t-mid reads/writes x1 too (depends on t-up)
        # and also spans s0, so it overlaps the new group {s0}.
        self._publish(service, "t-up", {"s1": ["x1"]}, 1)
        self._publish(service, "t-mid", {"s0": ["x0"], "s1": ["x1"]}, 2)
        probe = ServerGroup(members=frozenset(["s0"]), coordinator="s0")
        service.flush_conflicting(probe)
        landed = [ob.block.transactions[0].txn_id for ob in service.ordered_blocks]
        assert landed == ["t-up", "t-mid"]
        assert service.verify_dependency_order()


class TestDecisionPathGroupDefense:
    def test_decision_broadcast_rejects_subset_signed_group_block(self, make_scaled_system):
        """A forged group block co-signed by a lone server must be rejected on
        *every* delivery path: cosi_verify checks only the signers the
        signature lists, so the signer-set-equals-group check is the sole
        defense -- it must hold for DECISION messages too, not just the
        ordered stream."""
        from repro.crypto.cosi import cosign
        from repro.ledger.block import make_group_partial_block
        from repro.common.timestamps import Timestamp
        from repro.txn.transaction import Transaction, WriteSetEntry

        system = make_scaled_system(num_servers=4, txns_per_block=1)
        item = system.shard_map.items_of("s1")[0]
        txn = Transaction(
            txn_id="t-forged",
            client_id="c9",
            commit_ts=Timestamp(1, "c9"),
            read_set=[],
            write_set=[WriteSetEntry(item, 99)],
        )
        forged = make_group_partial_block([txn], group_members=system.server_ids)
        forged = forged.with_decision(
            BlockDecision.COMMIT, {sid: b"\x01" * 32 for sid in system.server_ids}
        )
        lone = {"s0": system.server("s0").keypair}
        forged = forged.with_cosign(cosign(forged.group_body_digest(), lone))

        victim = system.server("s1")
        public_keys = system.network.public_key_directory()
        # DECISION and ORDERED_BLOCK both end in this one terminal path.
        response = victim.commitment.handle_decision(forged, public_keys, system.server_ids)
        assert isinstance(response, Refusal)
        assert "signer set" in response.reason
        assert len(victim.log) == 0
        assert victim.store.read(item).value == 0

    def test_abandoned_group_round_state_eventually_expires(self, make_scaled_system):
        """A group coordinator that dies between GET_VOTE and any terminal
        message leaves ('group', ...) round state on its cohorts; the
        defensive TTL expiry must reclaim it (the height-based rule cannot --
        group heights are placeholders)."""
        from repro.ledger.block import make_group_partial_block
        from repro.common.timestamps import Timestamp
        from repro.txn.transaction import Transaction, WriteSetEntry

        system = make_scaled_system(num_servers=4, txns_per_block=1)
        victim = system.server("s1")
        item = system.shard_map.items_of("s1")[0]
        txn = Transaction(
            txn_id="t-abandoned",
            client_id="c9",
            commit_ts=Timestamp(1, "c9"),
            read_set=[],
            write_set=[WriteSetEntry(item, 5)],
        )
        orphan = make_group_partial_block([txn], group_members=("s0", "s1"))
        victim.commitment.handle_get_vote(orphan)
        assert victim.commitment.pending_round_count() == 1
        # The coordinator goes silent; later traffic must reclaim the state.
        ttl = type(victim.commitment).ROUND_STATE_TTL
        other_item = system.shard_map.items_of("s1")[1]
        for index in range(ttl + 1):
            assert system.run_transaction(
                [ReadOp(other_item), WriteOp(other_item, index)]
            ).committed
        assert victim.commitment.pending_round_count() == 0

    def test_honest_run_records_no_delivery_failures(self, make_scaled_system):
        system = make_scaled_system(num_servers=4)
        result = system.run_workload(partitioned_specs(system, 8), num_clients=2)
        assert system.delivery_failures == []
        assert all(not r.refusals for r in result.block_results)

    def test_handoff_table_is_empty_after_a_long_honest_run(self, make_scaled_system):
        # One hand-off record per published round, dropped once the block is
        # delivered and the round's result stamped: nothing accumulates, even
        # with blocks floating in the reorder window along the way.
        system = make_scaled_system(items_per_shard=200, txns_per_block=1, reorder_window=2)
        result = system.run_workload(partitioned_specs(system, 300), num_clients=2)
        assert system.ordering.stream_length == 300
        assert system.delivery.handoffs == {}
        heights = sorted(
            outcome.block_height for r in result.block_results for outcome in r.outcomes
        )
        assert heights == list(range(300))
        assert all(o.decided_at is not None for r in result.block_results for o in r.outcomes)


class TestOrderingServiceProperty:
    """Property-style sweep: random interleavings of overlapping/disjoint
    groups never violate dependency order, for any reorder window."""

    @staticmethod
    def _random_publish_run(rng: random.Random, window: int):
        from repro.common.timestamps import Timestamp
        from repro.ledger.block import make_partial_block
        from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

        servers = [f"s{i}" for i in range(6)]
        items_by_server = {sid: [f"{sid}-item-{j}" for j in range(3)] for sid in servers}
        service = OrderingService(Observability(), reorder_window=window)
        zero = Timestamp.zero()
        for counter in range(rng.randint(4, 10)):
            members = rng.sample(servers, rng.randint(1, 3))
            items = [rng.choice(items_by_server[sid]) for sid in members]
            txn = Transaction(
                txn_id=f"t{counter}",
                client_id="c0",
                commit_ts=Timestamp(counter + 1, "c0"),
                read_set=[ReadSetEntry(item, 0, zero, zero) for item in items],
                write_set=[WriteSetEntry(item, counter) for item in items],
            )
            block = make_partial_block(0, [txn], b"\x00" * 32).with_decision(
                BlockDecision.COMMIT, {sid: b"\x01" * 32 for sid in members}
            )
            group = ServerGroup(members=frozenset(members), coordinator=min(members))
            service.publish(block, group)
        service.flush()
        return service

    @pytest.mark.parametrize("window", [0, 1, 2, 5])
    def test_random_interleavings_respect_dependencies(self, window):
        rng = random.Random(1000 + window)
        for _ in range(12):
            service = self._random_publish_run(rng, window)
            assert service.verify_dependency_order()
            heights = [ordered.global_height for ordered in service.ordered_blocks]
            assert heights == list(range(len(heights)))
            previous = None
            for ordered in service.ordered_blocks:
                if previous is not None:
                    assert ordered.block.previous_hash == previous.block_hash()
                previous = ordered.block
