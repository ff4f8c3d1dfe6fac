"""Checkable deployments: small real systems with enumerable fault branches.

A scenario is a row of :data:`SCENARIOS`: a name, the choice-site families
it explores, an :class:`~repro.bench.harness.ExperimentConfig`, and a script.
:meth:`ScenarioRow.run` builds a *fresh* deployment with
:func:`repro.bench.harness.build` -- the real system classes, no mocks --
and hands it with its item table to the script, which drives a short
workload under the active :class:`ChoiceSource` and returns the
:class:`~repro.check.invariants.RunRecord` the invariant library evaluates.
All nondeterminism flows through :mod:`repro.check.choices`:

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

Configurations are deliberately tiny (:data:`TINY`: 3 servers, 4 items per
shard, hash "signing", fixed compute) so a full run costs tens of
milliseconds and the explorer can afford hundreds of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.bench import harness
from repro.check.invariants import RunRecord
from repro.server.faults import FaultPlan
from repro.server.triggers import ChoiceBudget
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import TransactionSpec

#: What a script gets besides the system: server id -> its sorted items.
Items = Dict[str, List[str]]

#: The checker's standard deployment: small, fast, hash-"signed".
TINY = harness.ExperimentConfig(
    label="check",
    num_servers=3,
    items_per_shard=4,
    txns_per_block=1,
    ops_per_txn=2,
    multi_versioned=True,
    fixed_compute_ms=1.0,
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


@dataclass(frozen=True)
class ScenarioRow:
    """One row of :data:`SCENARIOS`: a checkable deployment and its script."""

    name: str
    #: Choice-site families this scenario explores.
    features: FrozenSet[str]
    #: ``(system, items) -> RunRecord``: drives the fresh deployment.
    script: Callable[[object, Items], RunRecord]
    config: harness.ExperimentConfig = TINY
    #: Invariants to evaluate (``None`` means the whole catalogue).
    invariants: Optional[List[str]] = None

    def run(self) -> RunRecord:
        """One run on a fresh deployment, under the active choice source."""
        system, _ = harness.build(self.config)
        items = {
            server_id: sorted(system.shard_map.items_of(server_id))
            for server_id in system.config.server_ids
        }
        return self.script(system, items)


def _spec(index: int, write_item: str, read_item: str) -> TransactionSpec:
    return TransactionSpec(index, (WriteOp(write_item, index + 100), ReadOp(read_item)))


def classic_crash(system, items: Items) -> RunRecord:
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
    budget = ChoiceBudget(1)
    for server_id in system.servers:
        system.inject_fault(server_id, explored_crash(server_id, budget))
    s0, s1, s2 = items
    slices: List[object] = []

    def recover_and_maybe_fail_over() -> None:
        coordinator_down = system.coordinator_id in system.crashed_servers()
        for server_id in system.crashed_servers():
            system.recover_server(server_id)
        if coordinator_down:
            system.fail_over()

    slices.append(system.run_workload([_spec(0, items[s0][0], items[s1][0])]))
    recover_and_maybe_fail_over()
    slices.append(system.run_workload([_spec(1, items[s1][1], items[s2][0])]))
    recover_and_maybe_fail_over()
    return RunRecord(system=system, slices=slices)


def view_change(system, items: Items) -> RunRecord:
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
    s0, s1, s2 = items
    # One fault per run, whichever the explorer takes first.
    budget = ChoiceBudget(1)
    system.inject_fault(
        s0,
        explored_crash(s0, budget) + explored_byzantine_coordinator(s0, [s1, s2], budget),
    )
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
    system.fail_over()
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
    )


def classic_byzantine(system, items: Items) -> RunRecord:
    """3-server classic TFCommit with an enumerable Byzantine coordinator.

    Every coordinator action (root drop, fake root, equivocation) must make
    the round fail without any honest-server invariant breaking -- the
    paper's claim that malicious coordinators cost liveness, never safety.
    """
    s0, s1, s2 = items
    system.inject_fault(s0, explored_byzantine_coordinator(s0, [s1, s2], ChoiceBudget(1)))
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


def scaled_reorder(system, items: Items) -> RunRecord:
    """3-group scaled deployment driving the ordering service's freedom.

    Three disjoint-group transactions overflow a reorder window of 2, so
    the service's release pick is a live branch; a fourth cross-group
    transaction exercises ``flush_conflicting`` and the dependency rules
    under every explored release order.
    """
    s0, s1, s2 = items
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


def sharded_ordering(system, items: Items) -> RunRecord:
    """4-server scaled deployment over a 2-shard sequencer (DESIGN.md §5).

    Servers split into two ordering shards ({s0, s1} and {s2, s3}); two
    lane-local transactions per shard keep both lanes non-empty whenever a
    cross-shard transaction arrives, so every epoch merge is a live
    ``shard-merge`` lane-pick branch.  Two cross-shard transactions produce
    two sealed epoch anchors per run, and the trailing ``run_workload``
    flush drains whatever still floats.  The invariant catalogue (agreement,
    hash-chain, frontier monotonicity, no-commit-lost, ordering-consistent,
    ...) must hold under every explored lane interleaving -- the
    dependency-safety argument in :mod:`repro.core.sequencing`'s docstring,
    checked rather than trusted.
    """
    s0, s1, s2, s3 = items
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
    return RunRecord(system=system, slices=slices)


SCENARIOS: Dict[str, ScenarioRow] = {
    row.name: row
    for row in (
        ScenarioRow("classic-crash", frozenset({"faults", "net-order"}), classic_crash),
        ScenarioRow("classic-byzantine", frozenset({"faults", "net-order"}), classic_byzantine),
        ScenarioRow(
            "view-change", frozenset({"faults", "net-order", "view-change"}), view_change
        ),
        ScenarioRow(
            "scaled-reorder",
            frozenset({"ordserv-pick", "net-order"}),
            scaled_reorder,
            replace(TINY, deployment="scaled", reorder_window=2),
        ),
        ScenarioRow(
            "sharded-ordering",
            frozenset({"shard-merge", "net-order"}),
            sharded_ordering,
            replace(
                TINY,
                num_servers=4,
                deployment="scaled",
                ordering_shards=2,
                epoch_max_blocks=8,
            ),
        ),
    )
}
