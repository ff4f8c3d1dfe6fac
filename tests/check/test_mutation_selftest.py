"""Mutation self-test: the checker rediscovers fixed historical bugs.

PR 3 fixed two real bugs and PR 7 a third; :mod:`repro.check.mutations`
re-introduces each behind a flag.  The acceptance bar for the checker is that with either flag
on it finds an invariant violation (with a minimized, replayable
counterexample), and with both off a budgeted sweep over the crash and
Byzantine branches stays invariant-clean across at least 1,000 distinct
states -- evidence the invariants have teeth *and* the implementation holds.
"""

from __future__ import annotations

import pytest

from repro.check.explorer import Explorer
from repro.check.mutations import MUTATIONS, mutated, mutation_enabled
from repro.check.replay import trace_from_counterexample
from repro.check.scenarios import SCENARIOS
from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.server.faults import FaultPlan
from repro.txn.operations import WriteOp

from trace_replay import replay


def _explore_with(mutation: str, max_runs: int):
    with mutated(mutation):
        return Explorer(SCENARIOS["classic-crash"], max_runs=max_runs).explore()


@pytest.mark.parametrize(
    "mutation, invariant, picks, runs, states",
    [
        ("pr3-round-failed-leak", "round-state-released", [0] * 15 + [1], 21, 305),
        ("pr3-double-count-blocks", "workload-accounting", [], 1, 25),
    ],
)
def test_mutation_is_rediscovered_with_replayable_counterexample(
    mutation, invariant, picks, runs, states
):
    result = _explore_with(mutation, max_runs=60)
    assert result.counterexamples, f"{mutation}: checker failed to find the bug"
    cex = result.counterexamples[0]
    assert cex.minimized
    assert invariant in cex.invariants
    # Found after the same search, at the same minimal schedule, every time.
    assert (cex.picks, result.runs, result.distinct_states) == (picks, runs, states)

    # The minimized counterexample replays: the violation reproduces with
    # the mutation on, and the identical schedule is clean with it off.
    trace = trace_from_counterexample(cex, mutations=(mutation,))
    _, violations = replay(trace)
    assert invariant in {violation.invariant for violation in violations}
    _, fixed = replay(trace, with_mutations=False)
    assert fixed == []


def test_round_failed_leak_needs_a_crash_branch():
    """The leak only manifests when a round actually fails: the default
    (no-crash) schedule is clean, so rediscovery genuinely exercises the
    crash choice points rather than falling out of run #1."""
    with mutated("pr3-round-failed-leak"):
        result = Explorer(SCENARIOS["classic-crash"], max_runs=1).explore()
    assert result.clean


def test_clean_sweep_crosses_a_thousand_distinct_states():
    assert not any(map(mutation_enabled, MUTATIONS))
    total_states = 0
    for name in ("classic-crash", "classic-byzantine"):
        result = Explorer(SCENARIOS[name], max_runs=60).explore()
        assert result.clean, (
            f"{name}: unexpected violation(s) "
            f"{[cex.invariants for cex in result.counterexamples]}"
        )
        total_states += result.distinct_states
    assert total_states >= 1000, f"only {total_states} distinct states covered"


def _prepare_with_a_cohort_dying_mid_vote():
    system = FidesSystem(
        SystemConfig(num_servers=3, items_per_shard=8, txns_per_block=1, seed=7), protocol="2pc"
    )
    system.inject_fault("s2", [FaultPlan("crash", "s2", {"kind": "phase", "phases": ["vote"]})])
    system.run_transaction([WriteOp(system.shard_map.items_of("s1")[0], 9)])
    assert system.crashed_servers() == ["s2"]
    return system.coordinator.results[-1]


def test_the_2pc_tally_mutation_is_rediscovered_by_a_cohort_crashed_mid_prepare():
    """``pr7-2pc-vote-keyerror``: 2PC tallies without failing the round on
    refusals.  The tally can no longer ``KeyError`` -- ``timed_exchange``
    hands it votes only -- so the bug as it can still be made is the worse
    one: the round decides on the votes of whoever happened to answer."""
    assert _prepare_with_a_cohort_dying_mid_vote().status == "failed"
    with mutated("pr7-2pc-vote-keyerror"):
        decided_without_s2 = _prepare_with_a_cohort_dying_mid_vote()
    assert decided_without_s2.status == "committed"
