"""Multi-client workload engine sweep (Section 6's concurrent-client setup).

Every figure in the paper is measured under many concurrent clients; the
single-client driver the harness used before this sweep existed is neither
the paper's setup nor a credible scaling story.  This benchmark runs the same
conflict-free workload through 1, 2, 4, and 8 round-robin client sessions and
checks the invariant the harness relies on: under a conflict-free workload
the committed-transaction count is independent of how many clients issue it.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.experiments import run_sweep


def bench_multiclient_scaling(benchmark):
    """Sweep 1-8 concurrent clients over one conflict-free workload."""
    results, rows = run_once(
        benchmark,
        run_sweep,
        "multiclient",
        client_counts=(1, 2, 4, 8),
        num_requests=32,
        items_per_shard=400,
        txns_per_block=4,
        return_results=True,
    )
    assert len(rows) == 4
    committed = [result.committed_txns for result in results]
    # Conflict-free workload: every client count commits every request.
    assert committed == [32] * 4
    for result in results:
        assert result.throughput_tps > 0
        assert result.blocks == 8
