"""The safety-property library the model checker evaluates after each run.

Every invariant is a function ``(RunRecord) -> List[Violation]`` over the
*final* state of one explored run: the paper's safety claims (Section 5)
quantified over honest servers, plus implementation-level properties the
reproduction adds (round-state release, workload accounting, pipelining
conformance).  Invariants never mutate the system; the explorer calls
:func:`evaluate` once per run and treats any non-empty result as a
counterexample.

Byzantine servers are excluded where the paper's claims quantify over
honest participants only; servers still crashed at evaluation time are
excluded from liveness-flavoured checks (a crashed server holds no state to
check) but the scenarios recover every crashed server before evaluating, so
in practice the quantification is total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List

from repro.crypto.cosi import cosi_verify
from repro.sim.scheduler import ORDSERV_RESOURCE

#: Tolerance when comparing virtual-time floats post hoc.
_EPS = 1e-9

#: Phase names that occupy a coordinator's compute serially.
_COMPUTE_PHASES = frozenset({"aggregate", "finalize"})


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant violation found in one explored run."""

    invariant: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.invariant}] {self.message}"


@dataclass
class RunRecord:
    """Everything one explored run exposes to the invariant library."""

    #: The FidesSystem / ScaledFidesSystem after the run (post-recovery).
    system: object
    #: One WorkloadResult per ``run_workload`` call, in call order.
    slices: List[object] = field(default_factory=list)
    #: Servers whose fault policy misbehaved this run (excluded from the
    #: honest-server quantifications).
    byzantine: FrozenSet[str] = frozenset()

    def honest_servers(self) -> Dict[str, object]:
        return {
            server_id: server
            for server_id, server in self.system.servers.items()
            if server_id not in self.byzantine and not server.crashed
        }


InvariantFn = Callable[[RunRecord], List[Violation]]


def _decisions_of(server) -> Dict[str, str]:
    """txn_id -> "committed"/"aborted" as recorded in one server's log."""
    decisions: Dict[str, str] = {}
    for block in server.log:
        status = "committed" if block.is_commit else "aborted"
        for txn in block.transactions:
            decisions[txn.txn_id] = status
    return decisions


def check_agreement(record: RunRecord) -> List[Violation]:
    """No two honest servers decide differently for any transaction."""
    violations: List[Violation] = []
    merged: Dict[str, tuple] = {}
    for server_id, server in sorted(record.honest_servers().items()):
        for txn_id, status in _decisions_of(server).items():
            seen = merged.get(txn_id)
            if seen is None:
                merged[txn_id] = (server_id, status)
            elif seen[1] != status:
                violations.append(
                    Violation(
                        "agreement",
                        f"txn {txn_id}: {seen[0]} logged {seen[1]} but "
                        f"{server_id} logged {status}",
                    )
                )
    return violations


def check_decided_once(record: RunRecord) -> List[Violation]:
    """Every transaction is decided in at most one block per honest log.

    The view-change safety claim ("one decided block per (group, view)") in
    checkable form: a stalled round re-proposed by an elected successor must
    never decide twice -- neither as the original proposal racing the
    re-proposal through delivery, nor as a second decision under the new
    view.  Any double appearance of a txn_id in one log is a violation
    regardless of the two decisions agreeing.
    """
    violations: List[Violation] = []
    for server_id, server in sorted(record.honest_servers().items()):
        first_seen: Dict[str, int] = {}
        for block in server.log:
            for txn in block.transactions:
                earlier = first_seen.get(txn.txn_id)
                if earlier is not None:
                    violations.append(
                        Violation(
                            "decided-once",
                            f"{server_id}: txn {txn.txn_id} decided in block "
                            f"{earlier} and again in block {block.height}",
                        )
                    )
                else:
                    first_seen[txn.txn_id] = block.height
    return violations


def check_hash_chain(record: RunRecord) -> List[Violation]:
    """Every honest server's log verifies end to end (hash chain + co-signs)."""
    violations: List[Violation] = []
    directory = record.system.network.public_key_directory()
    for server_id, server in sorted(record.honest_servers().items()):
        result = server.log.verify(
            directory, record.system.config.server_ids, checkpoint=server.latest_checkpoint
        )
        if not result.valid:
            violations.append(
                Violation(
                    "hash-chain",
                    f"{server_id}: log invalid at height "
                    f"{result.first_invalid_height}: {result.reason}",
                )
            )
    return violations


def check_frontier_monotonic(record: RunRecord) -> List[Violation]:
    """Commit timestamps advance strictly per chain (the staleness rule).

    Every commit block's smallest commit timestamp must lie strictly above
    the largest commit timestamp of every earlier commit block of the same
    group (or of the whole log, classic deployment) -- otherwise a stale
    transaction slipped past the frontier check.
    """
    violations: List[Violation] = []
    for server_id, server in sorted(record.honest_servers().items()):
        frontiers: Dict[object, object] = {}
        for block in server.log:
            if not block.is_commit or not block.transactions:
                continue
            key = block.group if block.group is not None else "__classic__"
            lowest = min(txn.commit_ts for txn in block.transactions)
            frontier = frontiers.get(key)
            if frontier is not None and lowest <= frontier:
                violations.append(
                    Violation(
                        "frontier-monotonic",
                        f"{server_id}: block {block.height} commits ts "
                        f"{lowest.as_tuple()} at or below the committed "
                        f"frontier {frontier.as_tuple()} of chain {key!r}",
                    )
                )
            highest = max(txn.commit_ts for txn in block.transactions)
            if frontier is None or highest > frontier:
                frontiers[key] = highest
    return violations


def check_no_commit_lost(record: RunRecord) -> List[Violation]:
    """Every client-committed transaction survives in every honest log.

    The cross-crash/recovery half of the paper's durability claim: once a
    client saw "committed", the transaction must be in a commit block on
    every honest server -- including servers that crashed and recovered
    since.
    """
    committed: List[str] = []
    for workload in record.slices:
        committed.extend(o.txn_id for o in workload.outcomes if o.committed)
    violations: List[Violation] = []
    for server_id, server in sorted(record.honest_servers().items()):
        decisions = _decisions_of(server)
        for txn_id in committed:
            if decisions.get(txn_id) != "committed":
                violations.append(
                    Violation(
                        "no-commit-lost",
                        f"txn {txn_id} was reported committed to its client "
                        f"but {server_id} logs it as "
                        f"{decisions.get(txn_id, 'absent')}",
                    )
                )
    return violations


def check_cosign_consistency(record: RunRecord) -> List[Violation]:
    """Every logged block is co-signed by exactly the right signer set.

    Classic blocks must carry the full server set; group blocks exactly the
    block's dynamic group.  The collective signature must verify over the
    block's signing digest, and every server with a root in the block must
    be among the signers.
    """
    violations: List[Violation] = []
    directory = record.system.network.public_key_directory()
    full_set = frozenset(record.system.config.server_ids)
    for server_id, server in sorted(record.honest_servers().items()):
        for block in server.log:
            where = f"{server_id}: block {block.height}"
            if block.cosign is None:
                violations.append(
                    Violation("cosign-consistency", f"{where} has no collective signature")
                )
                continue
            signers = frozenset(block.cosign.signer_ids)
            expected = frozenset(block.group) if block.group is not None else full_set
            if signers != expected:
                violations.append(
                    Violation(
                        "cosign-consistency",
                        f"{where} signed by {sorted(signers)}, expected "
                        f"{sorted(expected)}",
                    )
                )
            if not frozenset(block.roots) <= signers:
                violations.append(
                    Violation(
                        "cosign-consistency",
                        f"{where} records roots of non-signers "
                        f"{sorted(frozenset(block.roots) - signers)}",
                    )
                )
            if not cosi_verify(block.cosign, block.signing_digest(), directory):
                violations.append(
                    Violation(
                        "cosign-consistency",
                        f"{where}: collective signature fails verification",
                    )
                )
    return violations


def check_round_state_released(record: RunRecord) -> List[Violation]:
    """After quiescence no server buffers round state (nonce, spec root).

    A round either decides (the decision releases it) or fails (the
    ``ROUND_FAILED`` notification releases it); either way nothing may leak.
    This is the invariant the PR 3 ``ROUND_FAILED`` bug violated.
    """
    violations: List[Violation] = []
    for server_id, server in sorted(record.honest_servers().items()):
        pending = server.commitment.pending_round_count()
        if pending:
            violations.append(
                Violation(
                    "round-state-released",
                    f"{server_id} still buffers {pending} round(s) of "
                    "volatile state after quiescence",
                )
            )
    return violations


def check_workload_accounting(record: RunRecord) -> List[Violation]:
    """Each workload run reports exactly its own blocks and outcomes.

    Two halves: a block result must not appear in two runs' reports
    (the PR 3 double-count bug), and within one run the client-visible
    committed set must equal the block-level committed set.
    """
    violations: List[Violation] = []
    seen: Dict[int, int] = {}
    for index, workload in enumerate(record.slices):
        for block_result in workload.block_results:
            owner = seen.setdefault(id(block_result), index)
            if owner != index:
                violations.append(
                    Violation(
                        "workload-accounting",
                        f"block result ({block_result.status}) reported by "
                        f"workload run {owner} appears again in run {index}",
                    )
                )
        client_committed = {o.txn_id for o in workload.outcomes if o.committed}
        block_committed = {
            outcome.txn_id
            for block_result in workload.block_results
            for outcome in block_result.outcomes
            if outcome.status == "committed"
        }
        if client_committed != block_committed:
            violations.append(
                Violation(
                    "workload-accounting",
                    f"workload run {index}: clients saw commits "
                    f"{sorted(client_committed)} but blocks record "
                    f"{sorted(block_committed)}",
                )
            )
    return violations


def check_pipeline_conformance(record: RunRecord) -> List[Violation]:
    """The scheduled timeline respects the dependency rules (DESIGN.md §7).

    A conservative post-hoc replay over the scheduler's retained task
    windows: phase windows within a task must be sequential, coordinator
    compute phases and terminal deliveries must serialize per resource, and
    at pipeline depth 1 a chained task must start no earlier than its
    predecessor finished.  (Deeper pipelines gate on in-flight state that is
    overwritten as tasks progress, so only the depth-1 rule is replayable
    exactly.)
    """
    sim = getattr(record.system, "sim", None)
    if sim is None:
        return []
    scheduler = sim.scheduler
    violations: List[Violation] = []
    serialized: Dict[tuple, List[tuple]] = {}
    for resource, tasks in sorted(scheduler.all_tasks().items()):
        for task in tasks:
            windows = list(task.phases.items())
            for (phase_a, (_, end_a)), (phase_b, (start_b, _)) in zip(windows, windows[1:]):
                if start_b < end_a - _EPS:
                    violations.append(
                        Violation(
                            "pipeline-conformance",
                            f"{task.label}: phase {phase_b!r} starts at "
                            f"{start_b:.9f} before phase {phase_a!r} ends at "
                            f"{end_a:.9f}",
                        )
                    )
            for phase, window in task.phases.items():
                if phase in _COMPUTE_PHASES:
                    serialized.setdefault((resource, "compute"), []).append(
                        (*window, f"{task.label}/{phase}")
                    )
                elif phase == "decision":
                    serialized.setdefault((resource, "terminal"), []).append(
                        (*window, f"{task.label}/{phase}")
                    )
                elif phase == "order":
                    # The delivery occupied the lane(s) the scheduler
                    # recorded: one shared resource for the single
                    # sequencer, one per involved ordering shard for the
                    # sharded service (a cross-shard delivery serializes
                    # on every lane it names).
                    lanes = task.delivery_resources or (ORDSERV_RESOURCE,)
                    for lane in lanes:
                        serialized.setdefault((lane, "terminal"), []).append(
                            (*window, f"{task.label}/{phase}")
                        )
        if scheduler.pipeline_depth == 1:
            for previous, task in zip(tasks, tasks[1:]):
                if not (task.chained and previous.done_at is not None):
                    continue
                if task.started_at < previous.done_at - _EPS:
                    violations.append(
                        Violation(
                            "pipeline-conformance",
                            f"{task.label} starts at {task.started_at:.9f} "
                            f"inside its predecessor {previous.label} "
                            f"(done {previous.done_at:.9f}) at depth 1",
                        )
                    )
    for (resource, kind), windows in sorted(serialized.items()):
        windows.sort()
        for (_, end_a, label_a), (start_b, _, label_b) in zip(windows, windows[1:]):
            if start_b < end_a - _EPS:
                violations.append(
                    Violation(
                        "pipeline-conformance",
                        f"{kind} activities {label_a} and {label_b} overlap "
                        f"on resource {resource!r}",
                    )
                )
    return violations


def check_ordering_consistent(record: RunRecord) -> List[Violation]:
    """The ordering service's finalised stream passes its own self-checks.

    Every lane's (height, head) must equal the chain recomputed from the
    stream, and no block may precede a block of an overlapping group that it
    depends on.  Evaluated after every explored lane interleaving and
    release pick, so the dependency-safety argument of
    :mod:`repro.core.sequencing` is checked rather than trusted.  Classic
    deployments have no ordering service and are skipped.
    """
    ordering = getattr(record.system, "ordering", None)
    if ordering is None:
        return []
    violations: List[Violation] = []
    if not ordering.verify_shard_chains():
        violations.append(
            Violation(
                "ordering-consistent",
                "a lane's height or head differs from the chain recomputed "
                "from the finalised stream",
            )
        )
    if not ordering.verify_dependency_order():
        violations.append(
            Violation(
                "ordering-consistent",
                "the finalised stream places a block ahead of a block of "
                "an overlapping group that it depends on",
            )
        )
    return violations


#: The catalogue, in evaluation order.
INVARIANTS: Dict[str, InvariantFn] = {
    "agreement": check_agreement,
    "decided-once": check_decided_once,
    "hash-chain": check_hash_chain,
    "frontier-monotonic": check_frontier_monotonic,
    "no-commit-lost": check_no_commit_lost,
    "cosign-consistency": check_cosign_consistency,
    "round-state-released": check_round_state_released,
    "workload-accounting": check_workload_accounting,
    "pipeline-conformance": check_pipeline_conformance,
    "ordering-consistent": check_ordering_consistent,
}


def evaluate(record: RunRecord) -> List[Violation]:
    """Run every invariant of the catalogue and collect the violations."""
    violations: List[Violation] = []
    for checker in INVARIANTS.values():
        violations.extend(checker(record))
    return violations
