"""Ablation: per-message signing scheme (design-choice study from DESIGN.md).

Every Fides message is signed by its sender.  The library supports real
Schnorr signatures (default for tests/examples) and a keyed-hash MAC used to
keep large benchmark sweeps tractable in pure Python.  This ablation measures
the end-to-end cost of that substitution: the wall-clock time of a sweep with
real Schnorr envelopes is considerably higher, while the *simulated* commit
latency model (which counts measured cohort compute) shifts only moderately
-- supporting the claim in DESIGN.md that the substitution does not distort
the figures' shapes.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.bench.experiments import run_sweep


def bench_ablation_signing_scheme(benchmark):
    started = time.perf_counter()
    results, rows = run_once(
        benchmark, run_sweep, "ablation-signing", num_requests=20, return_results=True
    )
    elapsed = time.perf_counter() - started
    by_label = {r.config.label: r for r in results}
    hash_run = by_label["ablation-signing-hash"]
    schnorr_run = by_label["ablation-signing-schnorr"]
    assert hash_run.committed_txns == schnorr_run.committed_txns > 0
    # Both schemes commit the same workload; the simulated latency stays in
    # the same ballpark (within ~3x) even though wall-clock cost differs a lot.
    assert schnorr_run.txn_latency_ms < 3.0 * hash_run.txn_latency_ms + 5.0
    assert elapsed > 0
