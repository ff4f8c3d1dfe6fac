"""Checkable deployments: small real systems with enumerable fault branches.

A scenario builds a *fresh* tiny deployment out of the real system classes
(no mocks), runs a short workload under the active :class:`ChoiceSource`,
and returns the :class:`~repro.check.invariants.RunRecord` the invariant
library evaluates.  All nondeterminism flows through :mod:`repro.check.choices`:

- delivery/processing order (``net-order`` / ``loop-order`` features, wired
  into :func:`repro.core.rounds.timed_broadcast`, ``Network.broadcast``,
  and the event loop's same-time tie-break);
- crash injection (:class:`ChoiceCrashPolicy`: every vote/decision phase
  observation of every server is a binary crash branch, one crash per run);
- Byzantine coordinator actions (:class:`ChoiceByzantinePolicy`: per round
  the coordinator picks honest / drop a victim's root / fake a victim's
  root / equivocate, and the victim itself is a choice);
- ordering-service release order (``ordserv-pick`` feature inside
  ``OrderingService._pick_next``).

Configurations are deliberately tiny (3 servers, 4 items per shard, hash
"signing", fixed compute) so a full run costs tens of milliseconds and the
explorer can afford hundreds of them.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

from repro.check.choices import choose
from repro.check.invariants import RunRecord
from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer, single_sequencer
from repro.server.faults import FaultPolicy
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


class _CrashBudget:
    """Shared between per-server crash policies: at most one crash per run."""

    def __init__(self, crashes: int = 1) -> None:
        self.remaining = crashes


class ChoiceCrashPolicy(FaultPolicy):
    """Every vote/decision phase observation is a binary crash branch."""

    name = "choice-crash"

    def __init__(self, server_id: str, budget: _CrashBudget) -> None:
        self._server_id = server_id
        self._budget = budget
        self._fired = False

    def crash_now(self) -> bool:
        if self._fired or self._budget.remaining <= 0:
            return False
        ctx = self.context
        if ctx.phase not in ("vote", "decision"):
            return False
        pick = choose(
            f"fault/crash/{self._server_id}/{ctx.phase}@{ctx.block_height}",
            2,
            0,
            feature="faults",
        )
        if pick == 1:
            self._fired = True
            self._budget.remaining -= 1
            return True
        return False


class ChoiceByzantinePolicy(FaultPolicy):
    """Coordinator-side Byzantine actions as an enumerable per-round choice.

    At each round's ``coordinate`` observation the policy picks one of:
    honest, drop a victim's root from the block, record a fake root for a
    victim (Scenario 2), or equivocate commit/abort (Figure 8).  A victim,
    where applicable, is itself a choice among the other cohorts.  One
    non-honest action per run keeps the branch factor bounded.
    """

    name = "choice-byzantine"

    ACTION_HONEST, ACTION_DROP_ROOT, ACTION_FAKE_ROOT, ACTION_EQUIVOCATE = range(4)

    def __init__(self, victims: List[str]) -> None:
        self._victims = list(victims)
        self._latched = False
        self._action = self.ACTION_HONEST
        self._victim: Optional[str] = None
        #: True once any non-honest action ran (the scenario then counts
        #: this server as Byzantine for the invariant quantifications).
        self.acted = False

    def observe_phase(self, phase, block_height=None, txn_ids=()) -> None:
        super().observe_phase(phase, block_height, txn_ids)
        if phase != "coordinate":
            return
        if self._latched:
            self._action = self.ACTION_HONEST
            return
        self._action = choose("fault/byzantine-action", 4, 0, feature="faults")
        if self._action in (self.ACTION_DROP_ROOT, self.ACTION_FAKE_ROOT) and self._victims:
            pick = choose("fault/byzantine-victim", len(self._victims), 0, feature="faults")
            self._victim = self._victims[pick]
        if self._action != self.ACTION_HONEST:
            self._latched = True
            self.acted = True

    def fake_root_for(self, server_id, root):
        if server_id != self._victim or root is None:
            return root
        if self._action == self.ACTION_DROP_ROOT:
            return None
        if self._action == self.ACTION_FAKE_ROOT:
            return b"\x00" * 32
        return root

    def equivocate(self) -> bool:
        return self._action == self.ACTION_EQUIVOCATE


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
        budget = _CrashBudget(crashes=1)
        for server_id, server in system.servers.items():
            server.set_faults(ChoiceCrashPolicy(server_id, budget))
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
        system.sim.drain()
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

    MODE_CRASH, MODE_BYZANTINE = range(2)

    def run(self) -> RunRecord:
        system = FidesSystem(config=tiny_config(), compute_model=FixedCompute(0.001))
        s0, s1, s2 = system.config.server_ids
        mode = choose("view-change/coordinator-fault", 2, 0, feature="faults")
        byzantine_policy: Optional[ChoiceByzantinePolicy] = None
        if mode == self.MODE_CRASH:
            system.servers[s0].set_faults(ChoiceCrashPolicy(s0, _CrashBudget(crashes=1)))
        else:
            byzantine_policy = ChoiceByzantinePolicy(victims=[s1, s2])
            system.servers[s0].set_faults(byzantine_policy)
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
        system.sim.drain()
        byzantine = (
            frozenset({s0})
            if byzantine_policy is not None and byzantine_policy.acted
            else frozenset()
        )
        return RunRecord(
            system=system,
            slices=slices,
            byzantine=byzantine,
            notes={
                "mode": "crash" if mode == self.MODE_CRASH else "byzantine",
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
        policy = ChoiceByzantinePolicy(victims=[s1, s2])
        system.servers[s0].set_faults(policy)
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
        system.sim.drain()
        byzantine = frozenset({s0}) if policy.acted else frozenset()
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
        system.sim.drain()
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
        system.sim.drain()
        return RunRecord(
            system=system,
            slices=slices,
            notes={
                "epochs": len(system.ordering.epoch_anchors),
                "shard_chains_ok": system.ordering.verify_shard_chains(),
            },
        )


class InterleavingScenario(Scenario):
    """Classic deployment exploring same-time event-loop interleavings.

    No faults: this scenario turns on the ``loop-order`` tie-break (and the
    broadcast order), checking that *scheduling* freedom alone can never
    break an invariant -- and supplying the bulk of the distinct-state count
    for the smoke budget.
    """

    name = "classic-interleaving"
    features = frozenset({"loop-order", "net-order"})

    def run(self) -> RunRecord:
        system = FidesSystem(config=tiny_config(), compute_model=FixedCompute(0.001))
        s0, s1, s2 = system.config.server_ids
        items = {
            server_id: sorted(system.shard_map.items_of(server_id))
            for server_id in system.config.server_ids
        }
        slices = [
            system.run_workload(
                [
                    _spec(0, items[s0][0], items[s1][0]),
                    _spec(1, items[s2][0], items[s0][1]),
                ]
            )
        ]
        system.sim.drain()
        return RunRecord(system=system, slices=slices)


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    scenario_cls.name: scenario_cls
    for scenario_cls in (
        ClassicCrashScenario,
        ClassicByzantineScenario,
        ViewChangeScenario,
        ScaledReorderScenario,
        ShardedOrderingScenario,
        InterleavingScenario,
    )
}


def make_scenario(name: str) -> Scenario:
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}") from None
    return factory()
