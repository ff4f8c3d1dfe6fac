"""Checkable deployments: small real systems with enumerable fault branches.

A scenario builds a *fresh* tiny deployment out of the real system classes
(no mocks), runs a short workload under the active :class:`ChoiceSource`,
and returns the :class:`~repro.check.invariants.RunRecord` the invariant
library evaluates.  All nondeterminism flows through :mod:`repro.check.choices`:

- delivery/processing order (the ``net-order`` feature, wired into
  :func:`repro.core.rounds.timed_exchange` and ``Network.broadcast``);
- fault injection: ordinary :class:`~repro.server.faults.FaultPlan` rows
  under the ``choice`` trigger (:func:`explored`), sharing one
  :class:`~repro.server.triggers.ChoiceBudget` so a run takes at most one
  fault -- a crash at any vote/decision phase observation of any server
  (:func:`explored_crash`), or a coordinator that drops or fakes a victim's
  root or equivocates (:func:`explored_byzantine_coordinator`);
- ordering-service release order (``ordserv-pick`` feature inside
  ``OrderingService._pick_next``).

Configurations are deliberately tiny (3 servers, 4 items per shard, hash
"signing", fixed compute) so a full run costs tens of milliseconds and the
explorer can afford hundreds of them.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

from repro.check.invariants import RunRecord
from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer, single_sequencer
from repro.server.faults import FaultPlan
from repro.server.triggers import ChoiceBudget
from repro.sim.context import FixedCompute
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import TransactionSpec


def tiny_config(num_servers: int = 3, seed: int = 2020) -> SystemConfig:
    """The checker's standard deployment: small, fast, hash-'signed'."""
    return SystemConfig(
        num_servers=num_servers,
        items_per_shard=4,
        txns_per_block=1,
        ops_per_txn=2,
        message_signing="hash",
        seed=seed,
    )


def explored(fault: str, target: str, budget: ChoiceBudget, phases=(), **params) -> FaultPlan:
    """``fault`` on ``target`` as a branch of the explored tree.

    Every consultation of the plan's hook (in ``phases`` only, if given) is
    a binary fire / don't-fire choice while ``budget`` lasts -- any kind in
    :data:`~repro.server.faults.FAULT_KINDS` is explorable this way.  The
    choice site is labelled ``fault/<kind>/<target>[/<param>...]``.
    """
    site = "/".join(["fault", fault, target, *(str(value) for value in params.values())])
    trigger: dict = {"kind": "choice", "site": site, "budget": budget}
    if phases:
        trigger = {"kind": "all", "of": [{"kind": "phase", "phases": phases}, trigger]}
    return FaultPlan(fault, target, trigger, params)


def explored_crash(server_id: str, budget: ChoiceBudget) -> List[FaultPlan]:
    """Every vote/decision phase observation of ``server_id`` is a crash branch."""
    return [explored("crash", server_id, budget, phases=("vote", "decision"))]


def explored_byzantine_coordinator(
    coordinator: str, victims: List[str], budget: ChoiceBudget
) -> List[FaultPlan]:
    """Per round the coordinator may drop or fake a victim's root, or
    equivocate commit/abort (Figure 8): each a binary branch where its hook
    is consulted."""
    return [
        explored(fault, coordinator, budget, victim=victim)
        for fault in ("drop-root", "fake-root")
        for victim in victims
    ] + [explored("equivocate", coordinator, budget)]


class Scenario:
    """One checkable deployment; subclasses implement :meth:`run`."""

    #: Registry key; overridden per subclass.
    name = ""
    #: Choice-site families this scenario explores.
    features: FrozenSet[str] = frozenset()
    #: Invariants to evaluate (``None`` means the whole catalogue).
    invariants: Optional[List[str]] = None

    def run(self) -> RunRecord:
        raise NotImplementedError


def _spec(index: int, write_item: str, read_item: str) -> TransactionSpec:
    return TransactionSpec(index, (WriteOp(write_item, index + 100), ReadOp(read_item)))


class ClassicCrashScenario(Scenario):
    """3-server classic TFCommit, 2 workload runs, 1 enumerable crash.

    A crash can fire at any cohort's vote or decision phase; crashed servers
    recover between and after the workload runs, so the run also exercises
    verified peer catch-up.  When the crashed server is the *coordinator*,
    surviving cohorts deliberately keep their armed round state (no
    ROUND_FAILED arrives -- the sender is dead), so the scenario must run the
    view change after recovery: failover is the only legitimate way that
    state is ever released.  The two separate ``run_workload`` calls make the
    workload-accounting invariant meaningful (it is what catches the PR 3
    double-count mutation on the all-defaults path).
    """

    name = "classic-crash"
    features = frozenset({"faults", "net-order"})

    def run(self) -> RunRecord:
        system = FidesSystem(config=tiny_config(), compute_model=FixedCompute(0.001))
        budget = ChoiceBudget(1)
        for server_id in system.servers:
            system.inject_fault(server_id, explored_crash(server_id, budget))
        items: Dict[str, List[str]] = {
            server_id: sorted(system.shard_map.items_of(server_id))
            for server_id in system.config.server_ids
        }
        s0, s1, s2 = system.config.server_ids
        slices: List[object] = []
        crashes: List[str] = []

        def recover_and_maybe_fail_over() -> None:
            coordinator_down = system.coordinator_id in system.crashed_servers()
            crashes.extend(system.crashed_servers())
            for server_id in system.crashed_servers():
                system.recover_server(server_id)
            if coordinator_down:
                system.fail_over()

        slices.append(system.run_workload([_spec(0, items[s0][0], items[s1][0])]))
        recover_and_maybe_fail_over()
        slices.append(system.run_workload([_spec(1, items[s1][1], items[s2][0])]))
        recover_and_maybe_fail_over()
        return RunRecord(system=system, slices=slices, notes={"crashes": crashes})


class ViewChangeScenario(Scenario):
    """Coordinator failover under every enumerable coordinator fault.

    The initial coordinator either crashes (at any of its vote/decision
    observations -- including *after* deciding a block locally, the branch
    :func:`~repro.core.viewchange.already_committed` guards) or turns
    Byzantine (drop/fake root, equivocation); either way the scenario then
    runs the view change explicitly and drives a second workload slice under
    the elected successor.  The ``view-change`` feature additionally branches
    on the successor's re-proposal order.  The headline invariant is
    ``decided-once``: no schedule may let an original proposal and its
    re-proposal both decide.
    """

    name = "view-change"
    features = frozenset({"faults", "net-order", "view-change"})

    def run(self) -> RunRecord:
        system = FidesSystem(config=tiny_config(), compute_model=FixedCompute(0.001))
        s0, s1, s2 = system.config.server_ids
        # One fault per run, whichever the explorer takes first.
        budget = ChoiceBudget(1)
        system.inject_fault(
            s0,
            explored_crash(s0, budget) + explored_byzantine_coordinator(s0, [s1, s2], budget),
        )
        items = {
            server_id: sorted(system.shard_map.items_of(server_id))
            for server_id in system.config.server_ids
        }
        slices: List[object] = [
            system.run_workload(
                [
                    _spec(0, items[s0][0], items[s1][0]),
                    _spec(1, items[s1][1], items[s2][0]),
                ]
            )
        ]
        # Re-proposal needs the full cluster co-signing again, so a crashed
        # coordinator is recovered *before* it is deposed.
        for server_id in system.crashed_servers():
            system.recover_server(server_id)
        outcome = system.fail_over()
        slices.append(system.run_workload([_spec(2, items[s2][1], items[s0][1])]))
        # A crash choice that waited past the failover fires with s0 as a
        # plain cohort; recover it so the invariants quantify over all logs.
        for server_id in system.crashed_servers():
            system.recover_server(server_id)
        fired = set(system.servers[s0].faults.fired_heights)
        return RunRecord(
            system=system,
            slices=slices,
            byzantine=frozenset({s0}) if fired - {"crash"} else frozenset(),
            notes={
                "fault": sorted(fired),
                "successor": outcome.successor,
                "new_view": outcome.new_view,
                "reproposed": len(outcome.stalled_rounds),
            },
        )


class ClassicByzantineScenario(Scenario):
    """3-server classic TFCommit with an enumerable Byzantine coordinator.

    Every coordinator action (root drop, fake root, equivocation) must make
    the round fail without any honest-server invariant breaking -- the
    paper's claim that malicious coordinators cost liveness, never safety.
    """

    name = "classic-byzantine"
    features = frozenset({"faults", "net-order"})

    def run(self) -> RunRecord:
        system = FidesSystem(config=tiny_config(), compute_model=FixedCompute(0.001))
        s0, s1, s2 = system.config.server_ids
        system.inject_fault(s0, explored_byzantine_coordinator(s0, [s1, s2], ChoiceBudget(1)))
        items = {
            server_id: sorted(system.shard_map.items_of(server_id))
            for server_id in system.config.server_ids
        }
        slices = [
            system.run_workload(
                [
                    _spec(0, items[s1][0], items[s2][0]),
                    _spec(1, items[s2][1], items[s0][0]),
                ]
            )
        ]
        byzantine = frozenset({s0}) if system.servers[s0].faults.fired() else frozenset()
        return RunRecord(system=system, slices=slices, byzantine=byzantine)


class ScaledReorderScenario(Scenario):
    """3-group scaled deployment driving the ordering service's freedom.

    Three disjoint-group transactions overflow a reorder window of 2, so
    the service's release pick is a live branch; a fourth cross-group
    transaction exercises ``flush_conflicting`` and the dependency rules
    under every explored release order.
    """

    name = "scaled-reorder"
    features = frozenset({"ordserv-pick", "net-order"})

    def run(self) -> RunRecord:
        system = ScaledFidesSystem(
            config=tiny_config(),
            sequencer=single_sequencer(2),
            compute_model=FixedCompute(0.001),
        )
        s0, s1, s2 = system.config.server_ids
        items = {
            server_id: sorted(system.shard_map.items_of(server_id))
            for server_id in system.config.server_ids
        }
        slices = [
            system.run_workload(
                [
                    _spec(0, items[s0][0], items[s0][1]),
                    _spec(1, items[s1][0], items[s1][1]),
                    _spec(2, items[s2][0], items[s2][1]),
                    # Cross-group: reads s0's shard, writes s1's.
                    TransactionSpec(3, (WriteOp(items[s1][2], 7), ReadOp(items[s0][2]))),
                ]
            )
        ]
        return RunRecord(system=system, slices=slices)


class ShardedOrderingScenario(Scenario):
    """4-server scaled deployment over a 2-shard sequencer (DESIGN.md §5).

    Servers split into two ordering shards ({s0, s1} and {s2, s3}); two
    lane-local transactions per shard keep both lanes non-empty whenever a
    cross-shard transaction arrives, so every epoch merge is a live
    ``shard-merge`` lane-pick branch.  Two cross-shard transactions produce
    two sealed epoch anchors per run, and the trailing ``run_workload``
    flush drains whatever still floats.  The invariant catalogue (agreement,
    hash-chain, frontier monotonicity, no-commit-lost, ...) must hold under
    every explored lane interleaving -- the dependency-safety argument in
    :mod:`repro.core.sequencing`'s docstring, checked rather than trusted.
    """

    name = "sharded-ordering"
    features = frozenset({"shard-merge", "net-order"})

    def run(self) -> RunRecord:
        system = ScaledFidesSystem(
            config=tiny_config(num_servers=4),
            compute_model=FixedCompute(0.001),
            sequencer=sharded_sequencer(2, epoch_max_blocks=8),
        )
        s0, s1, s2, s3 = system.config.server_ids
        items = {
            server_id: sorted(system.shard_map.items_of(server_id))
            for server_id in system.config.server_ids
        }
        slices = [
            system.run_workload(
                [
                    # Lane 0 and lane 1 each buffer a local block...
                    _spec(0, items[s0][0], items[s0][1]),
                    _spec(1, items[s2][0], items[s2][1]),
                    # ...so this cross-shard block merges two live lanes.
                    _spec(2, items[s1][0], items[s3][0]),
                    # Refill both lanes and merge again: a second epoch.
                    _spec(3, items[s1][1], items[s1][2]),
                    _spec(4, items[s3][1], items[s3][2]),
                    _spec(5, items[s0][2], items[s2][2]),
                ]
            )
        ]
        return RunRecord(
            system=system,
            slices=slices,
            notes={
                "epochs": len(system.ordering.epoch_anchors),
                "shard_chains_ok": system.ordering.verify_shard_chains(),
            },
        )


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    scenario_cls.name: scenario_cls
    for scenario_cls in (
        ClassicCrashScenario,
        ClassicByzantineScenario,
        ViewChangeScenario,
        ScaledReorderScenario,
        ShardedOrderingScenario,
    )
}


def make_scenario(name: str) -> Scenario:
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}") from None
    return factory()
