"""Integration tests for pipelined round execution on the event timeline."""

from __future__ import annotations

from repro.bench.experiments import run_sweep
from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.sequencing import single_sequencer
from repro.net.latency import lan_latency
from repro.sim import FixedCompute
from repro.txn.operations import WriteOp
from repro.workload.ycsb import TransactionSpec


def pipeline_point(deployment: str, depth: int, num_requests: int):
    """One point of the ``pipeline`` sweep: (depth-``depth`` result, its row)."""
    [result], [row] = run_sweep(
        "pipeline",
        depths=(depth,),
        deployments=(deployment,),
        batch_sizes=(4,),
        num_requests=num_requests,
    )
    return result, row


class TestPipelinedExperiment:
    def test_depth_one_speedup_is_exactly_one(self):
        _, row = pipeline_point("classic", 1, 16)
        assert row["speedup"] == 1.0
        assert row["throughput (txns/s)"] == row["sequential tps"]

    def test_depth_two_beats_sequential_classic(self):
        result, row = pipeline_point("classic", 2, 24)
        assert result.committed_txns == 24
        assert row["speedup"] > 1.05
        assert row["audit clean"]

    def test_depth_two_beats_sequential_scaled(self):
        result, row = pipeline_point("scaled", 2, 24)
        assert result.committed_txns == 24
        assert result.group_coordinators >= 2
        assert row["speedup"] > 1.05
        assert row["audit clean"]

    def test_results_are_deterministic(self):
        a, a_row = pipeline_point("classic", 2, 16)
        b, b_row = pipeline_point("classic", 2, 16)
        assert a.throughput_tps == b.throughput_tps
        assert a_row == b_row


class TestPipelinedSemantics:
    def build(self, depth: int) -> FidesSystem:
        config = SystemConfig(
            num_servers=3,
            items_per_shard=60,
            txns_per_block=2,
            ops_per_txn=2,
            multi_versioned=False,
            message_signing="hash",
            pipeline_depth=depth,
            seed=11,
        )
        return FidesSystem(
            config=config,
            latency=lan_latency(seed=11),
            compute_model=FixedCompute(0.001),
        )

    def conflict_free_specs(self, system: FidesSystem, count: int):
        items = system.shard_map.all_items()
        return [
            TransactionSpec(txn_index=i, operations=(WriteOp(items[i], i),))
            for i in range(count)
        ]

    def conflicting_specs(self, system: FidesSystem, count: int):
        item = system.shard_map.all_items()[0]
        return [
            TransactionSpec(txn_index=i, operations=(WriteOp(item, i),))
            for i in range(count)
        ]

    def test_pipelined_run_commits_identically_to_sequential(self):
        sequential, pipelined = self.build(1), self.build(3)
        specs = self.conflict_free_specs(sequential, 8)
        seq_out = sequential.run_workload(specs)
        pip_out = pipelined.run_workload(self.conflict_free_specs(pipelined, 8))
        assert seq_out.committed == pip_out.committed == 8
        assert sequential.log_heights() == pipelined.log_heights()
        for a, b in zip(seq_out.block_results, pip_out.block_results):
            assert a.block.block_hash() == b.block.block_hash()
        assert pipelined.sim.makespan < sequential.sim.makespan
        assert pipelined.audit().ok

    def test_conflicting_blocks_do_not_pipeline(self):
        # Every consecutive block writes the same item, so the conflict rule
        # must serialize them: depth buys nothing.
        sequential, pipelined = self.build(1), self.build(3)
        seq_out = sequential.run_workload(self.conflicting_specs(sequential, 6))
        pip_out = pipelined.run_workload(self.conflicting_specs(pipelined, 6))
        assert seq_out.committed == pip_out.committed
        assert pipelined.sim.makespan == sequential.sim.makespan

    def test_reorder_window_still_gates_conflicting_group_rounds(self):
        """A pending conflicting block gates the next round even when the
        ordering service holds blocks in a reorder window: the conflict
        implies overlapping groups, so ``flush_conflicting`` lands it before
        the dependent round begins, and the delivery frontier then applies."""
        from repro.core.scaled import ScaledFidesSystem
        from repro.net.latency import lan_latency

        config = SystemConfig(
            num_servers=3,
            items_per_shard=20,
            txns_per_block=1,
            ops_per_txn=2,
            multi_versioned=False,
            message_signing="hash",
            pipeline_depth=4,
            seed=13,
        )
        system = ScaledFidesSystem(
            config,
            latency=lan_latency(seed=13),
            sequencer=single_sequencer(1),
            compute_model=FixedCompute(0.001),
        )
        shared = system.shard_map.items_of("s1")[0]
        specs = [
            # Group {s0, s1} (coordinator s0) writes the shared s1 item...
            TransactionSpec(
                txn_index=0,
                operations=(WriteOp(system.shard_map.items_of("s0")[0], 1), WriteOp(shared, 2)),
            ),
            # ...and group {s1, s2} (coordinator s1) writes it right after.
            TransactionSpec(
                txn_index=1,
                operations=(WriteOp(shared, 3), WriteOp(system.shard_map.items_of("s2")[0], 4)),
            ),
        ]
        outcome = system.run_workload(specs)
        assert outcome.committed == 2
        tasks = system.sim.scheduler.all_tasks()
        first, second = tasks["s0"][0], tasks["s1"][0]
        # The dependent round starts no earlier than the conflicting block's
        # ordered delivery (task end = delivery end in the scaled flow).
        assert first.done_at is not None
        assert second.started_at >= first.done_at
        assert system.audit().ok

    def test_decided_at_reaches_client_outcomes(self):
        system = self.build(2)
        outcome = system.run_workload(self.conflict_free_specs(system, 4))
        decided = [o.decided_at for o in outcome.outcomes if o.committed]
        assert decided and all(t is not None and t > 0 for t in decided)
        # Decision stamps are block-end times on the shared timeline, so they
        # never exceed the run's makespan.
        assert max(decided) <= system.sim.makespan
