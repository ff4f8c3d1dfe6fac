"""Tests for the multi-client concurrent workload engine.

The paper's evaluation (Section 6) drives every experiment with many
concurrent clients; ``FidesSystem.run_workload(num_clients=...)`` round-robins
transaction specs across distinct client sessions, each with its own Lamport
clock and its own queued-outcome resolution.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.workload.ycsb import YcsbWorkload


def conflict_free_specs(workload_factory, system, count: int, seed: int = 2):
    """Conflict-free specs via the shared workload_factory fixture."""
    return workload_factory(system, ops_per_txn=2, window=4, seed=seed).generate(count)


class TestMultiClientWorkload:
    def test_rejects_zero_clients(self, make_system, workload_factory):
        system = make_system()
        with pytest.raises(ConfigurationError):
            system.run_workload([], num_clients=0)

    def test_multi_client_commits_match_single_client(self, make_system, workload_factory):
        single = make_system()
        multi = make_system()
        specs = conflict_free_specs(workload_factory, single, 12)
        baseline = single.run_workload(specs)
        result = multi.run_workload(conflict_free_specs(workload_factory, multi, 12), num_clients=4)
        assert result.committed == baseline.committed == 12
        assert result.aborted == baseline.aborted == 0

    def test_transactions_round_robin_across_sessions(self, make_system, workload_factory):
        system = make_system()
        result = system.run_workload(conflict_free_specs(workload_factory, system, 8), num_clients=4)
        issuing_clients = {outcome.txn_id.split("-txn-")[0] for outcome in result.outcomes}
        assert issuing_clients == {"c0", "c1", "c2", "c3"}
        assert result.committed_by_client == {"c0": 2, "c1": 2, "c2": 2, "c3": 2}

    def test_per_client_timestamps_are_independent(self, make_system, workload_factory):
        system = make_system()
        system.run_workload(conflict_free_specs(workload_factory, system, 8), num_clients=4)
        # Round-robin over 4 clients: each issued 2 transactions, so each
        # client clock advanced independently rather than once per request.
        for index in range(4):
            assert system.client(index).clock.current().counter <= 4

    def test_more_clients_than_block_slots_still_commits_everything(self, make_system, workload_factory):
        # With more clients than block slots a client's clock can fall behind
        # the committed frontier; the engine retries stale-failed commits
        # with a refreshed clock instead of dropping them.
        system = make_system()  # txns_per_block=4
        result = system.run_workload(conflict_free_specs(workload_factory, system, 16), num_clients=8)
        assert result.committed == 16
        assert result.failed == 0

    def test_multi_client_run_is_deterministic(self, make_system, workload_factory):
        first = make_system()
        second = make_system()
        result_a = first.run_workload(conflict_free_specs(workload_factory, first, 12), num_clients=3)
        result_b = second.run_workload(conflict_free_specs(workload_factory, second, 12), num_clients=3)
        ids_a = [outcome.txn_id for outcome in result_a.outcomes]
        ids_b = [outcome.txn_id for outcome in result_b.outcomes]
        assert ids_a == ids_b
        blocks_a = [block.block_hash() for block in first.server("s0").log]
        blocks_b = [block.block_hash() for block in second.server("s0").log]
        assert blocks_a == blocks_b
        assert len(blocks_a) == 3

    def test_logs_identical_across_servers_under_multi_client(self, make_system, workload_factory):
        system = make_system()
        result = system.run_workload(conflict_free_specs(workload_factory, system, 12), num_clients=4)
        assert result.committed == 12
        hashes = {
            server_id: tuple(block.block_hash() for block in server.log)
            for server_id, server in system.servers.items()
        }
        assert len(set(hashes.values())) == 1

    def test_execution_state_released_after_blocks_commit(self, make_system, workload_factory):
        system = make_system()
        system.run_workload(conflict_free_specs(workload_factory, system, 12), num_clients=4)
        for server in system.servers.values():
            assert server.execution._active == {}

    def test_conflict_heavy_run_resolves_every_outcome(self, make_system, workload_factory):
        # Without a conflict-free window, batches split, blocks abort, and
        # commit timestamps go stale mid-run; every spec must still resolve
        # to exactly one terminal outcome and no execution state may leak
        # (stale-failed transactions never enter a block, so the engine
        # releases their buffered state itself).
        system = make_system()
        workload = YcsbWorkload(
            item_ids=system.shard_map.all_items()[:6], ops_per_txn=2, seed=3
        )
        result = system.run_workload(workload.generate(20), num_clients=4)
        assert len(result.outcomes) == 20
        assert result.committed + result.aborted + result.failed == 20
        for server in system.servers.values():
            assert server.execution._active == {}

    def test_empty_spec_list_drains_preexisting_pending(self, make_system, workload_factory):
        # Regression: a transaction queued outside run_workload must still be
        # flushed by a subsequent run_workload([]) call.
        from repro.txn.operations import WriteOp

        system = make_system()
        item = system.shard_map.all_items()[0]
        outcome = system.run_transaction([WriteOp(item, 7)])
        assert outcome.pending
        assert system.coordinator.pending_count == 1
        system.run_workload([])
        assert system.coordinator.pending_count == 0
        assert system.server("s0").log.height == 1

    def test_audit_clean_after_multi_client_run(self, make_system, workload_factory):
        system = make_system()
        system.run_workload(conflict_free_specs(workload_factory, system, 8), num_clients=4)
        report = system.audit()
        assert report.ok


class TestWorkloadAccounting:
    def test_second_run_workload_does_not_double_count_blocks(
        self, make_system, workload_factory
    ):
        """Regression: ``result.block_results`` used to copy the coordinator's
        *cumulative* history, so a second ``run_workload`` double-counted the
        first run's blocks in throughput/latency metrics."""
        system = make_system()
        first = system.run_workload(conflict_free_specs(workload_factory, system, 8, seed=2))
        second = system.run_workload(conflict_free_specs(workload_factory, system, 8, seed=5))
        assert len(first.block_results) == 2  # 8 txns / 4 per block
        assert len(second.block_results) == 2
        assert len(system.coordinator.results) == 4
        # The second run's metrics must cover only its own transactions.
        assert sum(r.timing.num_txns for r in second.block_results) == 8


class TestNeverFlushedRelease:
    def test_never_flushed_transactions_release_execution_state(
        self, make_system, workload_factory
    ):
        """Regression: the "never flushed" terminal path recorded a failure
        but, unlike the stale path, never released the transaction's buffered
        execution state on the servers."""
        system = make_system()
        real_flush = system.coordinator.flush

        def dropping_flush():
            # A (crashing or malicious) coordinator that silently discards
            # one queued transaction: it never enters a block, so no decision
            # broadcast will ever release its buffered execution state.
            if system.coordinator._pending:
                system.coordinator._pending.pop(0)
            return real_flush()

        system.coordinator.flush = dropping_flush
        specs = conflict_free_specs(workload_factory, system, 3)
        result = system.run_workload(specs)
        never_flushed = [o for o in result.outcomes if o.reason == "never flushed"]
        assert never_flushed
        assert len(result.outcomes) == 3
        for server in system.servers.values():
            assert server.execution._active == {}
