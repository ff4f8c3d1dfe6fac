"""Explorer mechanics: branching, dedup, budgets, and shrinking.

A synthetic scenario with a hand-authored choice tree makes the search
behaviour exactly predictable; one test at the end runs a real (tiny)
deployment scenario to keep the two halves glued together.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.check.choices import ChoiceSource, choose, driven_by
from repro.check.explorer import Counterexample, Explorer, run_fingerprint
from repro.check.invariants import RunRecord
from repro.check.scenarios import SCENARIOS


def _stub_record(fingerprint: str, pending_rounds: int = 0) -> RunRecord:
    """A RunRecord over stubs, shaped like what run_fingerprint/invariants read."""
    server = SimpleNamespace(
        crashed=False,
        log=SimpleNamespace(height=1, head_hash=fingerprint.encode("utf-8")),
        store=SimpleNamespace(merkle_root=lambda: b"root"),
        commitment=SimpleNamespace(
            pending_round_count=lambda: pending_rounds,
            protocol_state=lambda: ([], []),
        ),
    )
    return RunRecord(system=SimpleNamespace(servers={"s0": server}))


def _toy(name: str, run) -> SimpleNamespace:
    """A scenario-shaped stand-in with no deployment: ``run`` makes the choices."""
    return SimpleNamespace(
        name=name, features=frozenset(), invariants=["round-state-released"], run=run
    )


def _buggy_run() -> RunRecord:
    """Three binary choices; exactly the pick sequence [1, 0, 1] is buggy."""
    picks = [choose(f"toy/{i}", 2, 0) for i in range(3)]
    return _stub_record(
        fingerprint="".join(map(str, picks)),
        pending_rounds=1 if picks == [1, 0, 1] else 0,
    )


def _collapsing_run() -> RunRecord:
    """One 3-way choice whose alternatives all reach the same final state."""
    choose("toy/only", 3, 0)
    return _stub_record(fingerprint="same-everywhere")


TOY_BUGGY = _toy("toy-buggy", _buggy_run)
TOY_COLLAPSING = _toy("toy-collapsing", _collapsing_run)


class TestSearch:
    def test_bfs_finds_and_minimizes_the_buggy_schedule(self):
        result = Explorer(TOY_BUGGY, max_runs=50).explore()
        assert not result.clean
        [cex] = result.counterexamples
        assert cex.minimized
        assert cex.picks == [1, 0, 1]
        assert cex.invariants == ["round-state-released"]

    def test_dfs_also_finds_it(self):
        result = Explorer(TOY_BUGGY, max_runs=50, strategy="dfs").explore()
        assert not result.clean

    def test_exhaustive_exploration_of_a_clean_tree_terminates(self):
        def clean_run():
            picks = [choose(f"toy/{i}", 2, 0) for i in range(3)]
            return _stub_record("".join(map(str, picks)))

        result = Explorer(_toy("toy-clean", clean_run), max_runs=100).explore()
        assert result.clean
        assert not result.budget_exhausted
        # All 2^3 behaviours reached: 8 terminal fingerprints plus the
        # distinct tree nodes along the way.
        assert result.runs == 8
        assert result.distinct_states >= 8

    def test_terminal_dedup_stops_expansion(self):
        result = Explorer(TOY_COLLAPSING, max_runs=100).explore()
        # Default run + two alternatives; collapsing terminals are not
        # re-expanded, so the search stops at exactly 3 runs.
        assert result.runs == 3
        # 3 distinct tree nodes + 1 shared terminal state.
        assert result.distinct_states == 4

    def test_run_budget_is_respected(self):
        result = Explorer(TOY_BUGGY, max_runs=2, minimize=False).explore()
        assert result.runs == 2
        assert result.budget_exhausted

    def test_state_budget_is_respected(self):
        result = Explorer(TOY_BUGGY, max_runs=100, max_states=3).explore()
        assert result.budget_exhausted
        assert result.distinct_states >= 3

    def test_max_depth_limits_deviation_sites(self):
        # Deviations allowed only at choice index 0: the buggy [1, 0, 1]
        # needs a deviation at index 2, so a depth-1 search stays clean.
        result = Explorer(TOY_BUGGY, max_runs=100, max_depth=1).explore()
        assert result.clean
        assert result.runs == 2  # default run + the one index-0 alternative


    @pytest.mark.parametrize(
        "budget",
        [
            dict(max_runs=0),
            dict(max_runs=-3),
            dict(max_states=0),
            dict(max_depth=-1),
            dict(strategy="random"),
        ],
        ids=lambda budget: "-".join(f"{key}={value}" for key, value in budget.items()),
    )
    def test_a_budget_that_admits_no_run_is_refused(self, budget):
        # An exploration that runs nothing would report itself clean.
        with pytest.raises(ValueError):
            Explorer(TOY_BUGGY, **budget)

    def test_depth_zero_runs_only_the_default_schedule(self):
        result = Explorer(TOY_BUGGY, max_runs=100, max_depth=0).explore()
        assert (result.runs, result.clean) == (1, True)


class TestMinimization:
    def test_non_minimal_counterexample_shrinks(self):
        explorer = Explorer(TOY_BUGGY, max_runs=10)
        fat = Counterexample(
            scenario="toy-buggy",
            picks=[1, 0, 1],  # already minimal: every pick is load-bearing
            violations=explorer._violations(_stub_record("101", pending_rounds=1)),
        )
        shrunk = explorer.minimize(fat)
        assert shrunk.minimized
        assert shrunk.picks == [1, 0, 1]

    def test_trailing_defaults_are_dropped(self):
        def tail_buggy_run():
            picks = [choose(f"toy/{i}", 2, 0) for i in range(4)]
            return _stub_record(
                "".join(map(str, picks)),
                pending_rounds=1 if picks[0] == 1 else 0,
            )

        result = Explorer(_toy("toy-tail", tail_buggy_run), max_runs=50).explore()
        [cex] = result.counterexamples
        assert cex.picks == [1]


class TestFingerprints:
    def test_fingerprint_distinguishes_states(self):
        assert run_fingerprint(_stub_record("a")) != run_fingerprint(_stub_record("b"))
        assert run_fingerprint(_stub_record("a")) == run_fingerprint(_stub_record("a"))

    def test_every_protocol_state_field_is_fingerprinted(self):
        root, rounds, told = _stub_record("a"), _stub_record("a"), _stub_record("a")
        root.system.servers["s0"].store.merkle_root = lambda: b"other"
        cohort = rounds.system.servers["s0"].commitment
        cohort.protocol_state = lambda: ([], [("k", "commit", True)])
        outcome = SimpleNamespace(
            txn_id="t", status="committed", block_height=0, reason="", cosign_verified=True
        )
        told.slices.append(SimpleNamespace(outcomes=[outcome]))
        fingerprints = {run_fingerprint(r) for r in (_stub_record("a"), root, rounds, told)}
        assert len(fingerprints) == 4

    def test_crashed_servers_fingerprint_without_a_log(self):
        record = _stub_record("x")
        record.system.servers["s0"].crashed = True
        record.system.servers["s0"].log = None  # must not be touched
        assert run_fingerprint(record)


class TestRealScenario:
    def test_tiny_byzantine_budget_is_clean(self):
        result = Explorer(SCENARIOS["classic-byzantine"], max_runs=4).explore()
        assert result.clean
        assert result.runs == 4
        assert result.distinct_states > 4

    def test_sharded_ordering_default_run_merges_two_epochs(self):
        scenario = SCENARIOS["sharded-ordering"]
        with driven_by(ChoiceSource(features=scenario.features)) as source:
            record = scenario.run()
        assert len(record.system.ordering.epoch_anchors) == 2
        assert record.system.ordering.verify_shard_chains()
        merges = [p for p in source.trace if p.label == "ordserv/epoch-merge"]
        # Both cross-shard transactions find two live lanes to interleave.
        assert len(merges) >= 2
        assert all(point.options >= 2 for point in merges)

    def test_sharded_ordering_exploration_is_clean_past_1000_states(self):
        # The PR's acceptance budget: cross-shard lane interleavings (plus
        # delivery order) stay invariant-clean across >= 1000 distinct states.
        result = Explorer(SCENARIOS["sharded-ordering"], max_runs=120).explore()
        assert result.clean
        assert result.distinct_states >= 1000
        assert result.choice_points > 0
