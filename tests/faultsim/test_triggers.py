"""Unit tests for fault triggers, plans, and the policy that executes them."""

from __future__ import annotations

import pytest

from repro.check.choices import ChoiceSource, driven_by
from repro.common.errors import ConfigurationError
from repro.faultsim import build_fault_matrix
from repro.server.faults import FaultPlan, FaultPolicy
from repro.server.triggers import (
    AllTrigger,
    AtHeightTrigger,
    ChoiceBudget,
    ChoiceTrigger,
    FaultContext,
    PhaseTrigger,
    ProbabilisticTrigger,
    Trigger,
    trigger_from_spec,
)


def ctx(phase="vote", height=3):
    return FaultContext(phase=phase, block_height=height)


class TestTriggers:
    def test_always_fires(self):
        assert Trigger().fires(ctx())

    def test_at_height_from(self):
        trigger = AtHeightTrigger(height=2)
        assert not trigger.fires(ctx(height=1))
        assert trigger.fires(ctx(height=2))
        assert trigger.fires(ctx(height=7))
        assert not trigger.fires(ctx(height=None))

    def test_phase_trigger(self):
        trigger = PhaseTrigger(phases=("decision",))
        assert trigger.fires(ctx(phase="decision"))
        assert not trigger.fires(ctx(phase="vote"))

    def test_probabilistic_is_seeded_and_latching(self):
        draws_a = [ProbabilisticTrigger(probability=0.5, seed=9).fires(ctx()) for _ in range(5)]
        draws_b = [ProbabilisticTrigger(probability=0.5, seed=9).fires(ctx()) for _ in range(5)]
        assert draws_a == draws_b
        latching = ProbabilisticTrigger(probability=0.5, seed=9)
        fired = [latching.fires(ctx()) for _ in range(20)]
        if any(fired):
            assert all(fired[fired.index(True):])

    def test_a_probability_of_zero_never_fires_and_one_fires_at_once(self):
        never = ProbabilisticTrigger(probability=0.0, seed=9)
        assert not any(never.fires(ctx()) for _ in range(50))
        assert ProbabilisticTrigger(probability=1.0, seed=9).fires(ctx())

    def test_probability_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticTrigger(probability=1.5)

    def test_spec_round_trip(self):
        assert isinstance(trigger_from_spec(None), Trigger)
        assert isinstance(trigger_from_spec({}), Trigger)
        trigger = trigger_from_spec({"kind": "at-height", "height": 4})
        assert isinstance(trigger, AtHeightTrigger) and trigger.height == 4
        trigger = trigger_from_spec({"kind": "phase", "phases": ["vote", "decision"]})
        assert trigger.phases == ("vote", "decision")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            trigger_from_spec({"kind": "full-moon"})
        with pytest.raises(ConfigurationError):
            trigger_from_spec({"kind": "at-height", "altitude": 3})

    def test_an_all_with_no_parts_is_rejected(self):
        # all(()) is True: with no parts the conjunction would always fire.
        with pytest.raises(ConfigurationError):
            trigger_from_spec({"kind": "all"})
        with pytest.raises(ConfigurationError):
            trigger_from_spec({"kind": "all", "of": []})

    def test_a_phase_trigger_with_no_phases_is_rejected(self):
        # ... and with no phases a phase trigger would never fire.
        with pytest.raises(ConfigurationError):
            trigger_from_spec({"kind": "phase"})
        with pytest.raises(ConfigurationError):
            trigger_from_spec({"kind": "phase", "phases": []})


class TestAllTrigger:
    def test_fires_only_when_every_part_fires(self):
        trigger = trigger_from_spec(
            {
                "kind": "all",
                "of": [{"kind": "phase", "phases": ["vote"]}, {"kind": "at-height", "height": 2}],
            }
        )
        assert isinstance(trigger, AllTrigger)
        assert [type(part) for part in trigger.of] == [PhaseTrigger, AtHeightTrigger]
        assert trigger.fires(ctx(phase="vote", height=2))
        assert not trigger.fires(ctx(phase="vote", height=1))
        assert not trigger.fires(ctx(phase="decision", height=2))

    def test_a_part_is_only_consulted_if_the_earlier_ones_fired(self):
        trigger = AllTrigger(of=(PhaseTrigger(phases=("vote",)), ChoiceTrigger(site="x")))
        with driven_by(ChoiceSource(prefix=[1], features={"faults"})) as source:
            assert not trigger.fires(ctx(phase="decision"))  # the choice is not asked
            assert trigger.fires(ctx(phase="vote"))
        assert [point.label for point in source.trace] == ["x/vote@3"]


class TestChoiceTrigger:
    def test_inert_outside_the_checker(self):
        budget = ChoiceBudget(1)
        trigger = trigger_from_spec({"kind": "choice", "site": "fault/crash/s1", "budget": budget})
        assert isinstance(trigger, ChoiceTrigger)
        assert not any(trigger.fires(ctx()) for _ in range(3))
        assert budget.remaining == 1

    def test_every_consultation_is_a_labelled_binary_choice(self):
        trigger = ChoiceTrigger(site="fault/crash/s1")
        source = ChoiceSource(prefix=[0, 1], features={"faults"})
        with driven_by(source):
            fired = [trigger.fires(ctx(phase="vote", height=h)) for h in (0, 1, 2)]
        assert fired == [False, True, False]
        # The third consultation asked nothing: the budget was spent.
        assert [(point.label, point.options) for point in source.trace] == [
            ("fault/crash/s1/vote@0", 2),
            ("fault/crash/s1/vote@1", 2),
        ]

    def test_plans_sharing_a_budget_fire_once_between_them(self):
        budget = ChoiceBudget(1)
        first = ChoiceTrigger(site="a", budget=budget)
        second = ChoiceTrigger(site="b", budget=budget)
        with driven_by(ChoiceSource(prefix=[1, 1], features={"faults"})) as source:
            assert first.fires(ctx())
            assert not second.fires(ctx())
        assert len(source.trace) == 1


class TestFaultPlans:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(fault="bribe-the-auditor", target="s1")

    def test_a_bad_trigger_spec_fails_where_the_plan_is_built(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(fault="crash", target="s1", trigger={"kind": "phase"})

    def test_a_bad_part_of_an_all_spec_fails_where_the_plan_is_built(self):
        spec = {"kind": "all", "of": [{"kind": "at-height", "height": 1}, {"kind": "phase"}]}
        with pytest.raises(ConfigurationError):
            FaultPlan(fault="crash", target="s1", trigger=spec)

    def test_an_unknown_trigger_kind_fails_where_the_plan_is_built(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(fault="crash", target="s1", trigger={"kind": "full-moon"})

    def test_matrix_needs_three_servers(self):
        with pytest.raises(ConfigurationError):
            build_fault_matrix(["s0", "s1"])

    def test_matrix_enumerates_kind_x_trigger_grid(self):
        matrix = build_fault_matrix(["s0", "s1", "s2"])
        assert len(matrix) == 19 * 3
        assert len({scenario.name for scenario in matrix}) == len(matrix)


class TestFaultPolicy:
    def test_observe_phase_stamps_the_policys_clock(self):
        from repro.sim import VirtualClock

        policy = FaultPolicy()
        policy.observe_phase("vote", 0)
        assert policy.context.sim_time is None
        clock = VirtualClock()
        policy = FaultPolicy(clock=clock)
        clock.set(3.25)
        policy.observe_phase("vote", 0)
        assert policy.context.sim_time == 3.25

    def test_an_injection_is_stamped_at_its_phase_observation(self):
        from repro.obs import Observability
        from repro.sim import VirtualClock

        clock, obs = VirtualClock(), Observability(tracing=True)
        policy = FaultPolicy([FaultPlan(fault="read-corruption", target="s1")], clock, obs)
        clock.set(3.25)
        policy.observe_phase("execute", 2)
        clock.set(4.5)  # the hook runs after the clock has moved on
        policy.corrupt_read_value("x", 1)
        policy.corrupt_read_value("x", 1)  # only the first injection is reported
        (instant,) = [s for s in obs.tracer.spans if s.category == "fault-inject"]
        assert (instant.name, instant.resource) == ("inject:read-corruption", "s1")
        assert instant.start == 3.25
        assert instant.attrs == {"block_height": 2}
        assert obs.metrics.counter_value("faults.injected") == 1.0

    def test_each_policy_materialises_its_own_trigger(self):
        spec = {"kind": "probability", "probability": 0.3}
        plan = FaultPlan(fault="read-corruption", target="s1", trigger=spec)
        first, second = FaultPolicy([plan]), FaultPolicy([plan])
        for policy in (first, second):
            policy.observe_phase("execute", 0)
        draws = [first.corrupt_read_value("x", 1) != 1 for _ in range(12)]
        assert any(draws) and not all(draws)  # the seed latches on part way
        assert [second.corrupt_read_value("x", 1) != 1 for _ in range(12)] == draws

    def test_hooks_stay_honest_until_trigger_fires(self):
        plan = FaultPlan(
            fault="read-corruption", target="s1", trigger={"kind": "at-height", "height": 5}
        )
        policy = FaultPolicy([plan])
        policy.observe_phase("execute", 1)
        assert policy.corrupt_read_value("x", 42) == 42
        assert not policy.fired()
        policy.observe_phase("execute", 5)
        assert policy.corrupt_read_value("x", 42) != 42
        assert policy.fired_heights["read-corruption"] == 5

    def test_item_restriction(self):
        plan = FaultPlan(fault="read-corruption", target="s1", params={"item": "x"})
        policy = FaultPolicy([plan])
        policy.observe_phase("execute", 0)
        assert policy.corrupt_read_value("y", 1) == 1
        assert policy.corrupt_read_value("x", 1) != 1

    def test_composed_plans_on_one_server(self):
        policy = FaultPolicy(
            [
                FaultPlan(fault="skip-validation", target="s1"),
                FaultPlan(fault="collude", target="s1"),
            ]
        )
        policy.observe_phase("vote", 0)
        assert policy.skip_validation()
        assert policy.collude_on_challenge()
        assert policy.name == "skip-validation+collude"

    def test_drop_write_filters_applied_writes(self):
        plan = FaultPlan(fault="drop-write", target="s1", params={"item": "x"})
        policy = FaultPolicy([plan])
        policy.observe_phase("decision", 0)
        assert policy.filter_applied_writes({"x": 1, "y": 2}) == {"y": 2}

    def test_log_integrity_flag_flips_after_tamper(self):
        from repro.ledger.log import TransactionLog

        policy = FaultPolicy(
            [FaultPlan(fault="log-truncate", target="s1", params={"keep": 0})]
        )
        assert policy.maintains_log_integrity()
        policy.observe_phase("decision", 0)
        policy.tamper_log(TransactionLog())
        # An empty log cannot be truncated below zero blocks: nothing fired.
        assert policy.maintains_log_integrity()
