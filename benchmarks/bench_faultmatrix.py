"""Fault-campaign detection matrix (the paper's Lemmas 1-7 as a sweep).

The paper's evaluation measures throughput; its *contribution* is detection.
This benchmark runs the declarative fault matrix -- every fault kind from
``repro.faultsim`` under the always-firing trigger -- against the
multi-client workload engine, and asserts the paper's guarantee end to end:
every deterministic scenario is detected (by the auditor or by the TFCommit
round itself) with correct culprit attribution, and honest servers are never
blamed.  It also times the sweep, which is dominated by the audit itself, so
regressions in audit cost show up here.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.experiments import run_sweep


def bench_faultmatrix_smoke(benchmark):
    """Always-trigger grid: every fault detected, right culprit, audit timed."""
    results, rows = run_once(
        benchmark,
        run_sweep,
        "faultmatrix",
        num_requests=6,
        smoke=True,
        return_results=True,
    )
    assert len(rows) == 19
    for result in results:
        assert result.detected, f"{result.scenario} went undetected"
        assert result.culprit_correct, f"{result.scenario} blamed {result.culprits}"
        # Honest servers are never implicated.
        assert set(result.culprits) <= set(result.expected_culprits)
        assert result.blocks_until_detection is not None
        if result.detected_by == "audit":
            assert result.audit_time_s > 0
            assert result.honest_audit_time_s > 0
