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
from repro.faultsim import build_fault_matrix


def bench_faultmatrix_smoke(benchmark):
    """Always-trigger grid: every fault detected, right culprit, audit timed."""
    reports, rows = run_once(
        benchmark,
        run_sweep,
        "faultmatrix",
        num_requests=6,
        smoke=True,
        return_results=True,
    )
    assert len(rows) == 19
    expected = {
        scenario.name: scenario.expected_culprits
        for scenario in build_fault_matrix(["s0", "s1", "s2"], (("always", {}),))
    }
    for report, row in zip(reports, rows):
        name = row["scenario"]
        assert row["detected"], f"{name} went undetected"
        assert row["culprit ok"], f"{name} blamed {row['culprits']}"
        # Honest servers are never implicated.
        culprits = () if row["culprits"] == "-" else row["culprits"].split(",")
        assert set(culprits) <= set(expected[name])
        assert row["blocks-to-detect"] != "-"
        if row["detected by"] == "audit":
            assert report.audit_wall_time_s > 0
            assert row["audit overhead (x)"] > 0
