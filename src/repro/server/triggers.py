"""Trigger predicates: *when* a planned fault fires.

A :class:`~repro.server.faults.FaultPlan` pairs a fault kind with a trigger
spec.  Triggers are evaluated against the :class:`FaultContext` the server
layers maintain (protocol phase, block height, transactions in flight) plus
whatever per-call detail the hook itself has (the item being read, the
transaction id), so one declarative schema covers every firing mode:

* ``always`` -- fire on every consultation;
* ``at-height`` -- fire at (or from) a given block height;
* ``at-time`` -- fire from a given virtual time;
* ``phase`` -- fire only while the server is in one of the given phases;
* ``txn`` -- fire only for matching transactions / items;
* ``probability`` -- fire with a seeded pseudo-random probability, latching
  on once fired so runs stay deterministic for a given seed;
* ``after-calls`` -- fire from the N-th consultation onwards;
* ``choice`` -- ask the model checker (:func:`repro.check.choices.choose`)
  whether to fire: every consultation is a binary branch of the explored
  tree while the trigger's :class:`ChoiceBudget` lasts.  The default pick
  is "no", so outside the checker the trigger is inert;
* ``all`` -- the conjunction of the specs listed under ``of``.

Triggers are *stateful* (probability latches, call counters, budgets), so
each plan materialises its own instance via :func:`trigger_from_spec`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.check.choices import choose
from repro.common.errors import ConfigurationError


@dataclass
class FaultContext:
    """Where in the protocol a fault hook is being consulted.

    The server layers update this context before consulting any hook, so a
    plan's trigger can decide *when* to misbehave -- by protocol phase, block
    height, or transaction -- without the hooks themselves growing extra
    parameters.
    """

    #: Protocol phase: "execute", "vote", "challenge", "decision", or
    #: "coordinate" (coordinator-side block assembly).
    phase: str = ""
    #: Height of the block being processed; for execution-layer hooks this is
    #: the height the *next* block would carry (the local log height).
    block_height: Optional[int] = None
    #: Transactions in flight for the current hook consultation.
    txn_ids: Tuple[str, ...] = ()
    #: Virtual time of the phase being executed on the simulated event
    #: timeline; time-based triggers fire on this, so fault campaigns compose
    #: with pipelined rounds.
    sim_time: Optional[float] = None


class Trigger:
    """Base trigger: always fires."""

    kind = "always"

    def fires(
        self,
        ctx: FaultContext,
        item_id: Optional[str] = None,
        txn_id: Optional[str] = None,
    ) -> bool:
        return True


@dataclass
class AtHeightTrigger(Trigger):
    """Fire at (``exact=True``) or from (default) a given block height."""

    height: int = 0
    exact: bool = False
    kind = "at-height"

    def fires(self, ctx, item_id=None, txn_id=None) -> bool:
        if ctx.block_height is None:
            return False
        if self.exact:
            return ctx.block_height == self.height
        return ctx.block_height >= self.height


@dataclass
class PhaseTrigger(Trigger):
    """Fire only while the server is in one of the given protocol phases."""

    phases: Tuple[str, ...] = ()
    kind = "phase"

    def fires(self, ctx, item_id=None, txn_id=None) -> bool:
        return ctx.phase in self.phases


@dataclass
class TxnPredicateTrigger(Trigger):
    """Fire only for hook calls concerning matching transactions or items."""

    txn_prefix: str = ""
    item_ids: Tuple[str, ...] = ()
    kind = "txn"

    def fires(self, ctx, item_id=None, txn_id=None) -> bool:
        if self.item_ids and item_id is not None:
            return item_id in self.item_ids
        candidates = (txn_id,) if txn_id is not None else tuple(ctx.txn_ids)
        if self.txn_prefix:
            return any(t is not None and t.startswith(self.txn_prefix) for t in candidates)
        return bool(candidates)


@dataclass
class AtTimeTrigger(Trigger):
    """Fire from a given virtual time on the simulated event timeline.

    ``ctx.sim_time`` is stamped by :meth:`~repro.server.faults.FaultPolicy.observe_phase`
    from the deployment's :class:`~repro.sim.clock.VirtualClock`, so the
    trigger fires based on *when the phase occurs on the timeline*, not on
    Python execution order -- under pipelining the two differ.  Outside a
    simulation context ``sim_time`` is ``None`` and the trigger never fires.
    """

    time: float = 0.0
    kind = "at-time"

    def fires(self, ctx, item_id=None, txn_id=None) -> bool:
        return ctx.sim_time is not None and ctx.sim_time >= self.time


@dataclass
class ProbabilisticTrigger(Trigger):
    """Fire with seeded probability; latches on once fired (deterministic runs)."""

    probability: float = 0.5
    seed: int = 2020
    latch: bool = True
    kind = "probability"
    _rng: random.Random = field(default=None, repr=False)
    _fired: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("trigger probability must be within [0, 1]")
        self._rng = random.Random(self.seed)

    def fires(self, ctx, item_id=None, txn_id=None) -> bool:
        if self.latch and self._fired:
            return True
        if self._rng.random() < self.probability:
            self._fired = True
            return True
        return False


@dataclass
class AfterCallsTrigger(Trigger):
    """Fire from the (``skip`` + 1)-th consultation onwards."""

    skip: int = 0
    kind = "after-calls"
    _calls: int = field(default=0, repr=False)

    def fires(self, ctx, item_id=None, txn_id=None) -> bool:
        self._calls += 1
        return self._calls > self.skip


@dataclass
class ChoiceBudget:
    """How many more times ``choice`` triggers may fire in this run.

    A checker scenario shares one budget between the plans it installs, so
    the explored tree holds "at most ``remaining`` faults per run" rather
    than every combination of them.
    """

    remaining: int = 1


@dataclass
class ChoiceTrigger(Trigger):
    """Fire where the model checker says so: a binary branch per consultation.

    ``site`` prefixes the choice-point label (the phase and block height are
    appended), so a saved trace names the fault it took.
    """

    site: str = "fault"
    budget: ChoiceBudget = field(default_factory=ChoiceBudget)
    kind = "choice"

    def fires(self, ctx, item_id=None, txn_id=None) -> bool:
        if self.budget.remaining <= 0:
            return False
        label = f"{self.site}/{ctx.phase}@{ctx.block_height}"
        if choose(label, 2, 0, feature="faults") == 0:
            return False
        self.budget.remaining -= 1
        return True


@dataclass
class AllTrigger(Trigger):
    """Fire when every part fires.

    Parts are consulted in order and consultation stops at the first that
    does not fire, so a stateful part (a call counter, a checker choice)
    placed last only sees the consultations the earlier parts let through.
    """

    of: Tuple[Trigger, ...] = ()
    kind = "all"

    def fires(self, ctx, item_id=None, txn_id=None) -> bool:
        return all(part.fires(ctx, item_id=item_id, txn_id=txn_id) for part in self.of)


_TRIGGER_KINDS = {
    "always": Trigger,
    "at-height": AtHeightTrigger,
    "at-time": AtTimeTrigger,
    "phase": PhaseTrigger,
    "txn": TxnPredicateTrigger,
    "probability": ProbabilisticTrigger,
    "after-calls": AfterCallsTrigger,
    "choice": ChoiceTrigger,
    "all": AllTrigger,
}


def trigger_from_spec(spec: Optional[Mapping]) -> Trigger:
    """Materialise a fresh (stateful) trigger from a declarative spec dict.

    ``None`` or ``{}`` means "always".  Tuple-typed fields accept lists so
    specs round-trip through JSON.
    """
    if not spec:
        return Trigger()
    if isinstance(spec, Trigger):
        return spec
    kind = spec.get("kind", "always")
    cls = _TRIGGER_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown trigger kind {kind!r}; known: {sorted(_TRIGGER_KINDS)}"
        )
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    for tuple_field in ("phases", "item_ids"):
        if tuple_field in kwargs:
            kwargs[tuple_field] = tuple(kwargs[tuple_field])
    if "of" in kwargs:
        kwargs["of"] = tuple(trigger_from_spec(part) for part in kwargs["of"])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad trigger spec {spec!r}: {exc}") from None
