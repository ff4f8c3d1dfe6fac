"""Prefix-branching exploration of the choice tree, with dedup and shrink.

The checker is stateless in the CHESS style: a *state* is never snapshotted.
Instead each explored behaviour is identified by the sequence of integer
picks its :class:`~repro.check.choices.ChoiceSource` made.  One run executes
a fresh scenario under a pick *prefix* (defaults past the prefix), records
the full choice trace, and the explorer then enqueues every alternative of
every choice point at or beyond the prefix -- so the search frontier grows
breadth-first over *deviation depth*: first every single deviation from the
default schedule, then every pair, and so on (an iterative deepening over
how far a behaviour strays from the default), bounded by ``max_runs`` /
``max_states`` / ``max_depth``.

Deduplication is by fingerprint: every choice-tree node carries a hash-chain
fingerprint (shared prefixes share nodes), and every completed run a
terminal fingerprint over the protocol state it ended in, not its schedule.
The union of both sets is the "distinct states" count; a prefix whose
terminal fingerprint was already seen is not expanded further.

A run whose invariants fail becomes a :class:`Counterexample`; the explorer
shrinks its pick sequence with a greedy delta-debugging pass (truncate the
prefix, then default-out individual picks, to fixpoint) so the saved trace
is minimal and replayable (:mod:`repro.check.replay`).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.check.choices import ChoiceError, ChoiceSource, driven_by
from repro.check.invariants import RunRecord, Violation, evaluate
from repro.check.scenarios import ScenarioRow


def run_fingerprint(record: RunRecord) -> str:
    """Terminal fingerprint of one run: the protocol state it ended in (per
    server its log head, datastore root, group views and round table; per
    workload slice what each client was told), never the delivery order."""
    state: list = []
    for server_id, server in sorted(record.system.servers.items()):
        if server.crashed:
            state.append((server_id, "crashed"))
            continue
        log, root = server.log, server.store.merkle_root()
        cohort = server.commitment.protocol_state()
        state.append((server_id, log.height, log.head_hash, root, cohort))
    for workload in record.slices:
        state.append(
            [
                (o.txn_id, o.status, o.block_height, o.reason, o.cosign_verified)
                for o in workload.outcomes
            ]
        )
    return hashlib.sha256(repr(state).encode("utf-8")).hexdigest()


@dataclass
class Counterexample:
    """One invariant-violating behaviour, as a replayable pick sequence."""

    scenario: str
    picks: List[int]
    violations: List[Violation]
    minimized: bool = False

    @property
    def invariants(self) -> List[str]:
        return sorted({violation.invariant for violation in self.violations})


@dataclass
class ExplorationResult:
    """What one exploration campaign covered and found."""

    scenario: str
    runs: int = 0
    #: Distinct choice-tree nodes + terminal states visited.
    distinct_states: int = 0
    #: Choice points consulted across all runs (tree size lower bound).
    choice_points: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: True when the budget ran out with the frontier non-empty.
    budget_exhausted: bool = False

    @property
    def clean(self) -> bool:
        return not self.counterexamples


class Explorer:
    """Budgeted BFS/DFS over one scenario's choice tree.

    ``scenario`` is a :class:`~repro.check.scenarios.ScenarioRow` (anything
    with its ``name``, ``features`` and ``run()`` will do).  Every
    counterexample is minimized before it is reported.  A budget that admits
    no run is refused: an exploration that explores nothing must not report
    itself clean.
    """

    def __init__(
        self,
        scenario: ScenarioRow,
        max_runs: int = 200,
        max_states: Optional[int] = None,
        max_depth: Optional[int] = None,
        strategy: str = "bfs",
        stop_at_first_violation: bool = True,
    ) -> None:
        if strategy not in ("bfs", "dfs"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if max_runs < 1:
            raise ValueError(f"max_runs must be >= 1, got {max_runs}")
        if max_states is not None and max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {max_states}")
        if max_depth is not None and max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        self.scenario = scenario
        self.max_runs = max_runs
        self.max_states = max_states
        self.max_depth = max_depth
        self.strategy = strategy
        self.stop_at_first_violation = stop_at_first_violation

    # -- single runs ---------------------------------------------------------------

    def _execute(self, prefix: List[int]) -> Tuple[Optional[ChoiceSource], Optional[RunRecord]]:
        """One fresh scenario run under ``prefix``; (None, None) if stale."""
        source = ChoiceSource(prefix, features=set(self.scenario.features))
        try:
            with driven_by(source):
                record = self.scenario.run()
        except ChoiceError:
            # The prefix no longer matches the tree (an earlier pick changed
            # which later sites exist); the frontier entry is simply dropped.
            return None, None
        return source, record

    def _violations(self, record: RunRecord) -> List[Violation]:
        return evaluate(record)

    # -- the search ----------------------------------------------------------------

    def explore(self) -> ExplorationResult:
        result = ExplorationResult(scenario=self.scenario.name)
        visited: Set[str] = set()
        seen_prefixes: Set[Tuple[int, ...]] = {()}
        frontier: deque = deque([[]])
        while frontier:
            if result.runs >= self.max_runs or (
                self.max_states is not None and len(visited) >= self.max_states
            ):
                result.budget_exhausted = True
                break
            prefix = frontier.popleft() if self.strategy == "bfs" else frontier.pop()
            source, record = self._execute(prefix)
            if source is None:
                continue
            result.runs += 1
            result.choice_points += len(source.trace)
            visited.update(source.node_fingerprints)
            terminal = run_fingerprint(record)
            already_seen = terminal in visited
            visited.add(terminal)
            violations = self._violations(record)
            if violations:
                counterexample = Counterexample(
                    scenario=self.scenario.name,
                    picks=source.picks(),
                    violations=violations,
                )
                result.counterexamples.append(self.minimize(counterexample))
                if self.stop_at_first_violation:
                    break
            if already_seen:
                continue
            picks = source.picks()
            for index in range(len(prefix), len(source.trace)):
                if self.max_depth is not None and index >= self.max_depth:
                    break
                point = source.trace[index]
                for alternative in range(point.options):
                    if alternative == point.picked:
                        continue
                    child = tuple(picks[:index] + [alternative])
                    if child not in seen_prefixes:
                        seen_prefixes.add(child)
                        frontier.append(list(child))
        result.distinct_states = len(visited)
        return result

    # -- counterexample minimization ------------------------------------------------

    def minimize(self, counterexample: Counterexample) -> Counterexample:
        """Greedy delta-debugging shrink of a violating pick sequence.

        Reproduces the violation after every candidate edit (same invariant
        family, not necessarily the identical message): first truncate the
        prefix as far as defaults allow, then default-out each remaining
        non-default pick, then re-truncate -- to fixpoint.  Each probe is a
        full fresh run, so the result is replayable by construction.
        """
        target = set(counterexample.invariants)

        def still_violates(candidate: List[int]) -> Optional[List[Violation]]:
            source, record = self._execute(candidate)
            if source is None:
                return None
            violations = self._violations(record)
            if {violation.invariant for violation in violations} & target:
                return violations
            return None

        picks = list(counterexample.picks)
        violations = counterexample.violations
        changed = True
        while changed:
            changed = False
            # Truncation: the shortest prefix that still reproduces.
            length = len(picks)
            while length > 0:
                probe = picks[:length - 1]
                found = still_violates(probe)
                if found is None:
                    break
                picks, violations, length = probe, found, length - 1
                changed = True
            # Default-out: drop each remaining forced pick individually.
            for index, pick in enumerate(picks):
                if pick == 0:
                    continue
                probe = picks[:index] + [0] + picks[index + 1:]
                found = still_violates(probe)
                if found is not None:
                    picks, violations = probe, found
                    changed = True
            # Trailing defaults equal a shorter prefix.
            while picks and picks[-1] == 0:
                picks = picks[:-1]
                changed = True
        return Counterexample(
            scenario=counterexample.scenario,
            picks=picks,
            violations=violations,
            minimized=True,
        )
