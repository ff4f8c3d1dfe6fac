"""Unit tests for fault triggers, plans, and the policy that executes them."""

from __future__ import annotations

import pytest

from repro.check.choices import ChoiceSource, driven_by
from repro.common.errors import ConfigurationError
from repro.faultsim import build_fault_matrix
from repro.server.faults import FaultPlan, FaultPolicy
from repro.server.triggers import (
    AfterCallsTrigger,
    AllTrigger,
    AtHeightTrigger,
    AtTimeTrigger,
    ChoiceBudget,
    ChoiceTrigger,
    FaultContext,
    PhaseTrigger,
    ProbabilisticTrigger,
    Trigger,
    TxnPredicateTrigger,
    trigger_from_spec,
)


def ctx(phase="vote", height=3, txns=("t1",)):
    return FaultContext(phase=phase, block_height=height, txn_ids=txns)


class TestTriggers:
    def test_always_fires(self):
        assert Trigger().fires(ctx())

    def test_at_height_from(self):
        trigger = AtHeightTrigger(height=2)
        assert not trigger.fires(ctx(height=1))
        assert trigger.fires(ctx(height=2))
        assert trigger.fires(ctx(height=7))
        assert not trigger.fires(ctx(height=None))

    def test_at_height_exact(self):
        trigger = AtHeightTrigger(height=2, exact=True)
        assert trigger.fires(ctx(height=2))
        assert not trigger.fires(ctx(height=3))

    def test_phase_trigger(self):
        trigger = PhaseTrigger(phases=("decision",))
        assert trigger.fires(ctx(phase="decision"))
        assert not trigger.fires(ctx(phase="vote"))

    def test_txn_trigger_by_item(self):
        trigger = TxnPredicateTrigger(item_ids=("x",))
        assert trigger.fires(ctx(), item_id="x")
        assert not trigger.fires(ctx(), item_id="y")

    def test_txn_trigger_by_prefix(self):
        trigger = TxnPredicateTrigger(txn_prefix="c1-")
        assert trigger.fires(ctx(txns=("c1-txn-3",)))
        assert not trigger.fires(ctx(txns=("c0-txn-3",)))
        assert trigger.fires(ctx(txns=()), txn_id="c1-txn-9")

    def test_probabilistic_is_seeded_and_latching(self):
        draws_a = [ProbabilisticTrigger(probability=0.5, seed=9).fires(ctx()) for _ in range(5)]
        draws_b = [ProbabilisticTrigger(probability=0.5, seed=9).fires(ctx()) for _ in range(5)]
        assert draws_a == draws_b
        latching = ProbabilisticTrigger(probability=0.5, seed=9, latch=True)
        fired = [latching.fires(ctx()) for _ in range(20)]
        if any(fired):
            assert all(fired[fired.index(True):])

    def test_probability_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticTrigger(probability=1.5)

    def test_after_calls(self):
        trigger = AfterCallsTrigger(skip=2)
        assert [trigger.fires(ctx()) for _ in range(4)] == [False, False, True, True]

    def test_spec_round_trip(self):
        assert isinstance(trigger_from_spec(None), Trigger)
        assert isinstance(trigger_from_spec({}), Trigger)
        trigger = trigger_from_spec({"kind": "at-height", "height": 4, "exact": True})
        assert isinstance(trigger, AtHeightTrigger) and trigger.height == 4
        trigger = trigger_from_spec({"kind": "phase", "phases": ["vote", "decision"]})
        assert trigger.phases == ("vote", "decision")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            trigger_from_spec({"kind": "full-moon"})
        with pytest.raises(ConfigurationError):
            trigger_from_spec({"kind": "at-height", "altitude": 3})


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
        counter = AfterCallsTrigger(skip=1)
        trigger = AllTrigger(of=(PhaseTrigger(phases=("vote",)), counter))
        assert not trigger.fires(ctx(phase="decision"))  # counter not consulted
        assert not trigger.fires(ctx(phase="vote"))  # counter's first call
        assert trigger.fires(ctx(phase="vote"))


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


class TestAtTimeTrigger:
    def test_fires_from_the_virtual_time_onwards(self):
        trigger = AtTimeTrigger(time=1.5)
        early = FaultContext(phase="vote", sim_time=1.0)
        late = FaultContext(phase="vote", sim_time=2.0)
        assert not trigger.fires(early)
        assert trigger.fires(late)

    def test_never_fires_without_a_simulation_context(self):
        trigger = AtTimeTrigger(time=0.0)
        assert not trigger.fires(FaultContext(phase="vote", sim_time=None))

    def test_spec_round_trip(self):
        trigger = trigger_from_spec({"kind": "at-time", "time": 0.25})
        assert isinstance(trigger, AtTimeTrigger)
        assert trigger.time == 0.25

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

    def test_time_triggered_fault_fires_on_the_event_timeline(self):
        """An at-time planned fault detonates mid-run at its virtual time."""
        from repro.common.config import SystemConfig
        from repro.core.fides import FidesSystem
        from repro.net.latency import ConstantLatency
        from repro.sim import FixedCompute
        from repro.workload.ycsb import YcsbWorkload

        def build(trigger_time):
            config = SystemConfig(
                num_servers=3,
                items_per_shard=40,
                txns_per_block=1,
                ops_per_txn=2,
                multi_versioned=True,
                message_signing="hash",
                seed=9,
            )
            system = FidesSystem(
                config=config,
                latency=ConstantLatency(0.001),
                compute_model=FixedCompute(0.001),
            )
            plan = FaultPlan(
                fault="skip-validation",
                target="s1",
                trigger={"kind": "at-time", "time": trigger_time},
            )
            system.inject_fault("s1", [plan])
            workload = YcsbWorkload(
                item_ids=system.shard_map.all_items(), ops_per_txn=2, seed=9
            )
            system.run_workload(workload.generate(6))
            return system

        # Past the horizon: the fault never fires during the run.
        never = build(trigger_time=10_000.0)
        assert never.servers["s1"].faults.context.sim_time is not None
        # From virtual time zero: fires on the very first observed phase.
        always = build(trigger_time=0.0)
        assert always.servers["s1"].faults.skip_validation()
        assert not never.servers["s1"].faults.skip_validation()


class TestFaultPlans:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(fault="bribe-the-auditor", target="s1")

    def test_matrix_needs_three_servers(self):
        with pytest.raises(ConfigurationError):
            build_fault_matrix(["s0", "s1"])

    def test_matrix_enumerates_kind_x_trigger_grid(self):
        matrix = build_fault_matrix(["s0", "s1", "s2"])
        assert len(matrix) == 19 * 3
        assert len({scenario.name for scenario in matrix}) == len(matrix)


class TestFaultPolicy:
    def test_hooks_stay_honest_until_trigger_fires(self):
        plan = FaultPlan(
            fault="read-corruption", target="s1", trigger={"kind": "at-height", "height": 5}
        )
        policy = FaultPolicy([plan])
        policy.observe_phase("execute", 1, ("t1",))
        assert policy.corrupt_read_value("x", 42) == 42
        assert not policy.fired()
        policy.observe_phase("execute", 5, ("t2",))
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
