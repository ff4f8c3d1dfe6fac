"""Figure 13: varying the number of transactions per block (5 servers).

Paper result: batching 80+ transactions per block cuts the per-transaction
commit latency ~2.6x and raises throughput ~2.5x relative to 2 per block,
because one TFCommit round (3 communication rounds + one collective
signature) is amortised over the whole batch.
Expected shape here: per-transaction latency falls monotonically (allowing
noise) and throughput rises by at least 2x from batch=2 to batch=80.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.experiments import run_sweep


def bench_figure13_sweep(benchmark):
    """Regenerate the Figure 13 series (reduced size) and check its shape."""
    results, rows = run_once(
        benchmark,
        run_sweep,
        "figure13",
        batch_sizes=(2, 20, 80),
        num_requests=160,
        items_per_shard=1000,
        return_results=True,
    )
    by_batch = {r.config.txns_per_block: r for r in results}
    small, medium, large = by_batch[2], by_batch[20], by_batch[80]
    assert small.committed_txns > 0 and large.committed_txns > 0
    # Larger batches amortise the block cost over more transactions.
    assert large.txn_latency_ms < small.txn_latency_ms
    assert medium.txn_latency_ms < small.txn_latency_ms
    assert large.throughput_tps > 2.0 * small.throughput_tps
    assert large.txn_latency_ms < small.txn_latency_ms / 2.0
