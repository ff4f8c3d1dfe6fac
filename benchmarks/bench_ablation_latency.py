"""Ablation: LAN vs WAN network latency (design-choice study from DESIGN.md).

The paper deploys all servers inside one AWS region (sub-millisecond RTTs),
which makes TFCommit compute-bound in our pure-Python setting.  This ablation
re-runs the same workload under a cross-region (WAN) latency model: the
protocol becomes network-bound, the absolute latencies grow by an order of
magnitude, and the relative overhead of TFCommit's cryptography shrinks --
evidence that the paper's single-region numbers are the *worst case* for the
crypto overhead story.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.experiments import run_sweep


def bench_ablation_latency_regime(benchmark):
    results, rows = run_once(
        benchmark, run_sweep, "ablation-latency", num_requests=40, return_results=True
    )
    by_label = {r.config.label: r for r in results}
    lan = by_label["ablation-latency-lan"]
    wan = by_label["ablation-latency-wan"]
    assert lan.committed_txns == wan.committed_txns > 0
    # WAN rounds dominate: block latency grows by well over 5x...
    assert wan.block_latency_ms > 5.0 * lan.block_latency_ms
    # ...and is dominated by network time rather than compute.
    assert wan.network_ms_per_block > wan.compute_ms_per_block
