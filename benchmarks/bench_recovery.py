"""Crash-recovery sweep: restore + verified catch-up latency, WAL overhead.

Section 3.3's checkpointing optimisation only pays off if a restarting
server can resume from one; this benchmark measures exactly that.  Each
point crashes one server of a scaled deployment, lets the surviving dynamic
groups keep committing (the catch-up gap), and times the full recovery
pipeline -- state-store restore, peer catch-up with hash-chain / co-sign /
root-replay verification, and network rejoin -- across state-store kinds
(in-memory vs append-only file WAL) and with/without an installed
checkpoint.
"""

from __future__ import annotations

from conftest import run_once

from repro.bench.experiments import run_sweep


def bench_recovery_smoke(benchmark):
    """One point per axis: recovery completes, catch-up verified, WAL bounded."""
    results, rows = run_once(
        benchmark,
        run_sweep,
        "recovery",
        smoke=True,
        return_results=True,
    )
    assert rows, "the recovery sweep produced no rows"
    for recovery_result, row in zip(results, rows):
        assert recovery_result.caught_up
        assert not recovery_result.rejected, (
            f"honest peers were rejected: {recovery_result.rejected}"
        )
        assert recovery_result.wall_time_s > 0
        assert row["fetched blocks"] > 0, "the crash left no gap to catch up"


def bench_recovery_checkpoint_bounds_restore(benchmark):
    """With a checkpoint installed, restore replays nothing before it."""
    results, rows = run_once(
        benchmark,
        run_sweep,
        "recovery",
        gap_requests=(8,),
        checkpoint_intervals=(0, 1),
        store_kinds=("memory",),
        return_results=True,
    )
    by_ckpt = {row["checkpointed"]: (result, row) for result, row in zip(results, rows)}
    assert set(by_ckpt) == {False, True}
    unchecked_result, unchecked_row = by_ckpt[False]
    checked_result, checked_row = by_ckpt[True]
    # The checkpoint snapshot subsumes the warm-up blocks: nothing to replay.
    assert checked_result.restored_blocks == 0
    assert unchecked_result.restored_blocks > 0
    # ... and the compacted state store is strictly smaller.
    assert checked_row["state store (KiB)"] < unchecked_row["state store (KiB)"]
