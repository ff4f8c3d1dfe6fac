"""Tests for the benchmark harness (tiny experiment sizes)."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, run
from repro.core.fides import PROTOCOL_2PC, PROTOCOL_TFCOMMIT


def tiny_config(**overrides):
    base = dict(
        label="tiny",
        protocol=PROTOCOL_TFCOMMIT,
        num_servers=3,
        items_per_shard=60,
        txns_per_block=2,
        ops_per_txn=2,
        num_requests=4,
        message_signing="hash",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentRunner:
    def test_all_requests_commit(self):
        result = run(tiny_config())
        assert result.committed_txns == 4
        assert result.aborted_txns == 0
        assert result.blocks == 2

    def test_metrics_are_positive_and_consistent(self):
        result = run(tiny_config())
        assert result.throughput_tps > 0
        assert result.block_latency_ms > 0
        assert result.txn_latency_ms <= result.block_latency_ms
        assert result.total_time_s == pytest.approx(
            result.blocks * result.block_latency_ms / 1000.0, rel=0.05
        )

    def test_as_row_has_report_columns(self):
        row = run(tiny_config()).as_row()
        for column in ("protocol", "servers", "throughput (txns/s)", "txn latency (ms)"):
            assert column in row

    def test_2pc_runs_too(self):
        result = run(tiny_config(protocol=PROTOCOL_2PC, label="tiny-2pc"))
        assert result.committed_txns == 4
        assert result.mht_update_ms == 0.0

    def test_tfcommit_slower_than_2pc_at_batch_one(self):
        tfc = run(tiny_config(txns_per_block=1))
        twopc = run(tiny_config(protocol=PROTOCOL_2PC, txns_per_block=1))
        assert tfc.txn_latency_ms > twopc.txn_latency_ms
        assert twopc.throughput_tps > tfc.throughput_tps

    def test_phase5_work_lands_in_finalize_phase(self):
        result = run(tiny_config())
        assert "finalize" in result.phase_ms
        assert result.phase_ms["finalize"] > 0

    def test_multi_client_commits_match_single_client(self):
        # Acceptance criterion: num_clients >= 4 commits the same transaction
        # count as the single-client baseline under a conflict-free workload.
        baseline = run(tiny_config(num_requests=8))
        multi = run(tiny_config(num_requests=8, num_clients=4))
        assert multi.committed_txns == baseline.committed_txns == 8
        assert multi.aborted_txns == 0
        assert multi.blocks == baseline.blocks

    def test_as_row_reports_client_count(self):
        row = run(tiny_config(num_clients=2, num_requests=4)).as_row()
        assert row["clients"] == 2

    def test_system_config_derivation(self):
        config = tiny_config(num_servers=4, items_per_shard=7)
        system_config = config.system_config()
        assert system_config.num_servers == 4
        assert system_config.items_per_shard == 7
