"""Coordinator-failover sweep: view-change latency and post-failover liveness.

Each point crashes the coordinator mid-round (stranding the in-flight round
on the surviving cohorts), lets the outage deepen -- in the scaled
deployment disjoint groups keep committing, growing the frontier gap the
successor must certify -- and then times the view change: VIEW_CHANGE
solicitation, frontier-certificate verification, NEW_VIEW, and the
re-proposal of every stalled round.  The assertions pin the protocol's
recovery story: the stranded round is re-proposed exactly once and the
cluster commits again under the elected successor.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.experiments import run_sweep


def bench_failover_smoke(benchmark):
    """One depth per deployment: view change completes, cluster commits again."""
    results, rows = run_once(
        benchmark,
        run_sweep,
        "failover",
        smoke=True,
        return_results=True,
    )
    assert rows, "the failover sweep produced no rows"
    for outcome, row in zip(results, rows):
        assert row["successor"] != "s0", "the deposed coordinator was re-elected"
        assert row["new view"] >= 1
        assert row["reproposed rounds"] >= 1, "the stranded round was not re-proposed"
        assert row["certificates"] >= 2, "quorum of frontier certificates missing"
        assert row["post committed"] > 0, "no commits under the successor"
        assert not outcome.rejected_certificates


def bench_failover_outage_depth_grows_the_certified_frontier(benchmark):
    """Scaled deployment: a longer outage means a higher certified frontier."""
    results, rows = run_once(
        benchmark,
        run_sweep,
        "failover",
        deployments=("scaled",),
        stall_requests=(4, 8),
        return_results=True,
    )
    by_stall = {row["stall requests"]: row for row in rows}
    assert set(by_stall) == {4, 8}
    # Disjoint groups kept committing during the outage, so the successor's
    # certified frontier is strictly deeper for the longer outage.
    assert by_stall[8]["committed during outage"] > by_stall[4]["committed during outage"]
    assert by_stall[8]["frontier height"] > by_stall[4]["frontier height"]
