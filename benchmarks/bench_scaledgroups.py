"""Scaled multi-coordinator deployment sweep (Section 4.6, Figure 9).

Drives locality-partitioned workloads through dynamic per-group TFCommit
rounds merged by the ordering service, against the classic single-coordinator
deployment on the same workload.  The scaling claim under test: with
partitioned traffic, small dynamic groups terminate transactions concurrently,
so the scaled deployment's throughput beats the single coordinator's and the
gap widens with the server count.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.experiments import run_sweep


def bench_scaledgroups_sweep(benchmark):
    """Sweep servers x locality x batch size for the scaled deployment."""
    results, rows = run_once(
        benchmark,
        run_sweep,
        "scaledgroups",
        server_counts=(4, 6),
        localities=(1.0,),
        batch_sizes=(2,),
        num_requests=24,
        return_results=True,
    )
    assert len(rows) == 2
    for result, row in zip(results, rows):
        # Deterministic shape: fully partitioned traffic commits everything
        # and spreads over several coordinators.
        assert result.committed_txns == 24
        assert result.group_coordinators >= 2
        assert result.throughput_tps > 0
        assert row["baseline tps"] > 0
    # Wall-clock-noisy shape, asserted loosely: interleaved group rounds
    # should beat the single coordinator clearly on at least one point
    # (typically ~2x at 4 servers, ~3x at 6).
    assert max(row["speedup"] for row in rows) > 1.2
