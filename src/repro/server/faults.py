"""Fault injection: the malicious behaviours of Sections 3.2 and 5.

A server "that fails maliciously can behave arbitrarily"; Fides does not
prevent these failures, it detects them in an audit.  There is one way to
say "this server misbehaves" -- a :class:`FaultPlan`: *which* fault (a key of
:data:`FAULT_KINDS`), *which* server, *when* (a trigger spec, see
:mod:`repro.server.triggers`) and with what parameters -- and one class that
executes it: :class:`FaultPolicy`, whose hooks the
:class:`~repro.server.execution.ExecutionLayer`, the
:class:`~repro.server.commitment.CommitmentLayer` and the TFCommit
coordinator consult.  Every hook of a policy without plans behaves honestly;
a plan makes exactly the hook :data:`FAULT_KINDS` names for its kind deviate,
whenever its trigger fires.

Plans are plain data, so the same plan is a row of the fault matrix
(:mod:`repro.faultsim`, run by the ``faultmatrix`` sweep's script), a line
in a test, and -- under the ``choice``
trigger -- a branch of the model checker's tree (:mod:`repro.check.scenarios`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import ItemId, ServerId, Value
from repro.crypto.cosi import CollectiveSignature
from repro.crypto.group import CURVE_ORDER, Point, generator_multiply
from repro.ledger.block import BlockDecision
from repro.server.triggers import FaultContext, Trigger, trigger_from_spec

#: Fault kind -> the :class:`FaultPolicy` hook a plan of that kind drives
#: (``None``: not a server-side fault).  The policy builds its dispatch from
#: this table, so a kind deviates at its declared hook and nowhere else.
FAULT_KINDS: Dict[str, Optional[str]] = {
    # -- execution layer ------------------------------------------------------
    "read-corruption": "corrupt_read_value",
    # -- commitment layer -----------------------------------------------------
    "skip-validation": "skip_validation",
    "corrupt-commitment": "corrupt_commitment",
    "corrupt-response": "corrupt_response",
    "corrupt-root": "corrupt_root",
    "collude": "collude_on_challenge",
    # -- datastore ------------------------------------------------------------
    # drop-write acts at apply time: the server votes on (and co-signs) the
    # correct speculative root, then never persists the write.
    "drop-write": "filter_applied_writes",
    "post-commit-corruption": "post_commit_corruption",
    # -- coordinator ----------------------------------------------------------
    "equivocate": "equivocate",
    "fake-root": "fake_root_for",
    "drop-root": "fake_root_for",
    # An equivocating coordinator the cluster *deposes*: detection is the
    # cohorts' challenge refusals, recovery is the view change electing an
    # honest successor that commits where the liar could not.
    "byzantine-coordinator": "equivocate",
    # -- crash / recovery (liveness axis) --------------------------------------
    # A crash is a *liveness* event: it is detected by the TFCommit round
    # failing (the cohort became unreachable) and must never be attributed as
    # a protocol violation by the auditor.
    "crash": "crash_now",
    # A coordinator crash stalls every round it was driving: cohorts keep
    # their armed round state (no ROUND_FAILED can arrive -- the sender is
    # dead) until a view change deposes it and the elected successor
    # re-proposes from the certified commit frontier.
    "coordinator-crash": "crash_now",
    # A malicious peer serving doctored catch-up blocks to a recovering
    # server; detection is the recovering server *rejecting* the response.
    "tamper-catchup": "tamper_state_response",
    # -- log ------------------------------------------------------------------
    "log-tamper": "tamper_log",
    "log-truncate": "tamper_log",
    "fork-decision": "tamper_log",
    "forge-cosign": "tamper_log",
    # -- ordering service ------------------------------------------------------
    # A misbehaving sharded ordering service publishing an epoch anchor that
    # does not match the per-shard chains of the blocks it delivered.  The
    # service has no fault hooks: the fault-matrix script doctors its anchor
    # chain directly after the workload (DESIGN.md section 5).
    "anchor-tamper": None,
}

#: Value added to corrupted integer reads when the plan gives none.
_DEFAULT_CORRUPT_DELTA = 7_777_777


@dataclass(frozen=True)
class FaultPlan:
    """One server's declared misbehaviour: which fault, where, and when."""

    fault: str
    target: str
    trigger: Mapping = field(default_factory=dict)
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.fault not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.fault!r}; known: {sorted(FAULT_KINDS)}"
            )
        object.__setattr__(self, "trigger", dict(self.trigger))
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> Dict[str, object]:
        return {
            "fault": self.fault,
            "target": self.target,
            "trigger": dict(self.trigger),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return cls(
            fault=data["fault"],
            target=data["target"],
            trigger=data.get("trigger", {}),
            params=data.get("params", {}),
        )


def _forge_write_entry(log, params: Mapping) -> bool:
    """Overwrite a logged write value after the fact (Lemma 6)."""
    height = int(params.get("height", 0))
    if len(log) <= height:
        return False
    block = log[height]
    for t_index, txn in enumerate(block.transactions):
        if not txn.write_set:
            continue
        entry = dc_replace(txn.write_set[0], new_value="__forged__")
        transactions = list(block.transactions)
        transactions[t_index] = dc_replace(txn, write_set=(entry,) + tuple(txn.write_set[1:]))
        log.tamper_replace(height, dc_replace(block, transactions=tuple(transactions)))
        return True
    return False


def _fork_decision(log, params: Mapping) -> bool:
    """Flip a committed block's decision, modelling a forked outcome (Lemma 5)."""
    height = params.get("height")
    heights = [height] if height is not None else range(len(log) - 1, -1, -1)
    for h in heights:
        if h < len(log) and log[h].is_commit:
            log.tamper_replace(h, dc_replace(log[h], decision=BlockDecision.ABORT, roots={}))
            return True
    return False


def _forge_cosign(log, params: Mapping) -> bool:
    """Replace a block's collective signature, keeping the content (Lemma 4)."""
    height = params.get("height")
    h = height if height is not None else len(log) - 1
    if h < 0 or h >= len(log) or log[h].cosign is None:
        return False
    cosign = log[h].cosign
    bogus = CollectiveSignature(
        challenge=(cosign.challenge + 1) % CURVE_ORDER,
        response=(cosign.response + 1) % CURVE_ORDER,
        signer_ids=cosign.signer_ids,
    )
    log.tamper_replace(h, log[h].with_cosign(bogus))
    return True


def _truncate(log, params: Mapping) -> bool:
    """Drop the tail of the log, keeping a short valid prefix (Lemma 7)."""
    keep = int(params.get("keep", 1))
    if len(log) <= keep:
        return False
    log.truncate(keep)
    return True


#: The ``tamper_log`` kinds: how each doctors the log (True once it did).
_LOG_TAMPERS = {
    "log-tamper": _forge_write_entry,
    "fork-decision": _fork_decision,
    "forge-cosign": _forge_cosign,
    "log-truncate": _truncate,
}


class FaultPolicy:
    """Executes one server's fault plans; with none, every hook is honest.

    Hooks receive enough context to act and return the (possibly falsified)
    value the server will actually use or send.  Several plans can share one
    policy (a server running multiple misbehaviours, or a colluding cohort).
    ``clock`` stamps phase observations with virtual time (time-based
    triggers fire on it); each plan's first injection is reported to ``obs``
    as a trace instant and a counter.
    """

    def __init__(self, plans: Sequence[FaultPlan] = (), clock=None, obs=None) -> None:
        self.plans: Tuple[FaultPlan, ...] = tuple(plans)
        #: Human-readable fault name recorded by tests and examples.
        self.name = "+".join(plan.fault for plan in self.plans) or "honest"
        #: The phase context last observed.
        self.context = FaultContext()
        #: Fault kind -> block height of the context when it first fired.
        self.fired_heights: Dict[str, Optional[int]] = {}
        self._clock = clock
        self._obs = obs
        self._log_tampered = False
        #: Hook -> the (plan, trigger) pairs that drive it, built once so an
        #: honest server's hooks return without scanning plans.
        self._armed: Dict[str, List[Tuple[FaultPlan, Trigger]]] = {
            hook: [] for hook in FAULT_KINDS.values() if hook is not None
        }
        for plan in self.plans:
            hook = FAULT_KINDS[plan.fault]
            if hook is None:
                raise ConfigurationError(f"{plan.fault!r} is not a server-side fault")
            self._armed[hook].append((plan, trigger_from_spec(plan.trigger)))

    # -- protocol context and bookkeeping ------------------------------------------

    def observe_phase(
        self,
        phase: str,
        block_height: Optional[int] = None,
        txn_ids: Tuple[str, ...] = (),
    ) -> None:
        """Called by the server layers before any hook of that phase runs."""
        ctx = self.context
        ctx.phase = phase
        ctx.block_height = block_height
        ctx.txn_ids = tuple(txn_ids)
        ctx.sim_time = self._clock.now if self._clock is not None else None

    def _fire(self, plan: FaultPlan, trigger: Trigger, item_id: Optional[str] = None) -> bool:
        """Consult ``plan``'s trigger; record the first firing of its kind."""
        if not trigger.fires(self.context, item_id=item_id):
            return False
        self._mark_fired(plan)
        return True

    def _mark_fired(self, plan: FaultPlan) -> None:
        if plan.fault in self.fired_heights:
            return
        self.fired_heights[plan.fault] = self.context.block_height
        if self._obs is not None:
            self._obs.metrics.counter("faults.injected")
            self._obs.tracer.instant(
                f"inject:{plan.fault}",
                "fault-inject",
                plan.target,
                self.context.sim_time or 0.0,
                block_height=self.context.block_height,
            )

    def fired(self, fault: Optional[str] = None) -> bool:
        """Has ``fault`` (any kind, if None) been injected at least once?"""
        if fault is None:
            return bool(self.fired_heights)
        return fault in self.fired_heights

    def first_fired_height(self) -> Optional[int]:
        heights = [h for h in self.fired_heights.values() if h is not None]
        return min(heights) if heights else None

    # -- execution-layer hooks -------------------------------------------------

    def corrupt_read_value(self, item_id: ItemId, value: Value) -> Value:
        """Value returned for a read request (Scenario 1: incorrect reads)."""
        for plan, trigger in self._armed["corrupt_read_value"]:
            if plan.params.get("item") not in (None, item_id):
                continue
            if not self._fire(plan, trigger, item_id=item_id):
                continue
            if "value" in plan.params:
                return plan.params["value"]
            if isinstance(value, int):
                return value + _DEFAULT_CORRUPT_DELTA
            return "__corrupted__"
        return value

    # -- commitment-layer hooks ------------------------------------------------

    def skip_validation(self) -> bool:
        """Return True to vote commit without running OCC validation (Lemma 3)."""
        return any(self._fire(*armed) for armed in self._armed["skip_validation"])

    def corrupt_commitment(self, commitment: Point) -> Point:
        """Schnorr commitment sent in the vote phase (Lemma 4)."""
        for plan, trigger in self._armed["corrupt_commitment"]:
            if self._fire(plan, trigger):
                return generator_multiply(int(plan.params.get("scalar", 54321)) % CURVE_ORDER)
        return commitment

    def corrupt_response(self, response: int) -> int:
        """Schnorr response sent in the response phase (Lemma 4)."""
        for plan, trigger in self._armed["corrupt_response"]:
            if self._fire(plan, trigger):
                return (response + int(plan.params.get("delta", 1))) % CURVE_ORDER
        return response

    def corrupt_root(self, root: bytes) -> bytes:
        """MHT root the cohort reports in its vote."""
        for plan, trigger in self._armed["corrupt_root"]:
            if self._fire(plan, trigger):
                return plan.params.get("root", b"\xfe" * 32)
        return root

    def collude_on_challenge(self) -> bool:
        """Return True to skip the challenge-phase consistency checks.

        A colluding cohort responds to the challenge even when the completed
        block is inconsistent with what it voted (e.g. its root was silently
        dropped by the coordinator), which is how a malformed block can end
        up fully co-signed (Section 4.3.2).
        """
        return any(self._fire(*armed) for armed in self._armed["collude_on_challenge"])

    # -- datastore hooks ---------------------------------------------------------

    def filter_applied_writes(self, writes: Dict[ItemId, Value]) -> Dict[ItemId, Value]:
        """Writes actually applied to the datastore when a block commits.

        Dropping entries here models "incorrect writes": the server voted on
        (and co-signed) the correct speculative root but never persisted the
        write, so its datastore silently diverges from the logged state.
        """
        for plan, trigger in self._armed["filter_applied_writes"]:
            writes = {
                item_id: value
                for item_id, value in writes.items()
                if plan.params.get("item") not in (None, item_id)
                or not self._fire(plan, trigger, item_id=item_id)
            }
        return writes

    def post_commit_corruption(self) -> Dict[ItemId, Value]:
        """Items to silently overwrite in the datastore after a commit (Scenario 3).

        Persistent: re-applied after every commit while the trigger fires, so
        honest writes cannot mask the corruption before the audit.
        """
        corruption: Dict[ItemId, Value] = {}
        for plan, trigger in self._armed["post_commit_corruption"]:
            if not self._fire(plan, trigger):
                continue
            if "items" in plan.params:
                corruption.update(plan.params["items"])
            elif "item" in plan.params:
                corruption[plan.params["item"]] = plan.params.get("value", -424242)
        return corruption

    # -- coordinator hooks -------------------------------------------------------

    def equivocate(self) -> bool:
        """Return True to send different decisions to different cohorts (Lemma 5)."""
        return any(self._fire(*armed) for armed in self._armed["equivocate"])

    def fake_root_for(self, server_id: ServerId, root: Optional[bytes]) -> Optional[bytes]:
        """Root the coordinator records for ``server_id`` in the block (Scenario 2).

        ``fake-root`` records a bogus root for the plan's ``victim``;
        ``drop-root`` leaves the victim's root out of the block (``None``).
        """
        for plan, trigger in self._armed["fake_root_for"]:
            if plan.params.get("victim") == server_id and self._fire(plan, trigger):
                if plan.fault == "drop-root":
                    return None
                return plan.params.get("root", b"\x00" * 32)
        return root

    # -- crash / recovery hooks --------------------------------------------------

    def crash_now(self) -> bool:
        """Return True for the server to crash at the current protocol point.

        Consulted by the commitment layer after each phase observation; a
        firing hook makes the server drop its volatile state mid-round, which
        the round's coordinator sees as the cohort becoming unreachable (a
        *liveness* fault -- never attributed as a protocol violation).
        One-shot per kind: a recovered server must not crash again the moment
        it rejoins, so a crash plan that has fired is permanently spent.
        """
        return any(
            not self.fired(plan.fault) and self._fire(plan, trigger)
            for plan, trigger in self._armed["crash_now"]
        )

    def tamper_state_response(self, blocks: list) -> list:
        """Catch-up blocks this server serves to a recovering peer.

        A malicious peer flips the first write value of the first served
        block (in the reply only: its own log is untouched); the recovering
        server's verification (hash chain, co-sign, root replay) must reject
        the whole response.
        """
        for plan, trigger in self._armed["tamper_state_response"]:
            if not blocks or not self._fire(plan, trigger):
                continue
            transactions = list(blocks[0].transactions)
            for index, txn in enumerate(transactions):
                if txn.write_set:
                    forged = dc_replace(
                        txn.write_set[0], new_value=plan.params.get("value", "__tampered__")
                    )
                    transactions[index] = dc_replace(
                        txn, write_set=(forged, *txn.write_set[1:])
                    )
                    first = dc_replace(blocks[0], transactions=tuple(transactions))
                    return [first, *blocks[1:]]
        return blocks

    # -- log hooks -----------------------------------------------------------------

    def tamper_log(self, log) -> None:
        """Arbitrary post-hoc mutation of the local log copy (Lemmas 4-7).

        A plan counts as fired only once it actually mutated the log: a
        firing trigger with nothing to tamper yet (the target block does not
        exist) retries at the next decision.  The forgeries are one-shot;
        ``log-truncate`` re-truncates on every decision after its first, so
        the audited copy stays a short valid prefix (Lemma 7) rather than a
        broken chain (Lemma 6).
        """
        for plan, trigger in self._armed["tamper_log"]:
            if self.fired(plan.fault):
                due = plan.fault == "log-truncate"
            else:
                due = trigger.fires(self.context)
            if due and _LOG_TAMPERS[plan.fault](log, plan.params):
                self._log_tampered = True
                self._mark_fired(plan)

    def maintains_log_integrity(self) -> bool:
        """False once this policy has doctored the local log.

        A server that truncated or forked its own log no longer enforces the
        hash-pointer check when appending new blocks (an honest append onto a
        doctored log would raise); the commitment layer consults this before
        every append.
        """
        return not self._log_tampered
