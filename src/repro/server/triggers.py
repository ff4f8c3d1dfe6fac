"""Trigger predicates: *when* a planned fault fires.

A :class:`~repro.server.faults.FaultPlan` pairs a fault kind with a trigger
spec.  Triggers are evaluated against the :class:`FaultContext` the server
layers maintain (protocol phase and block height), so one declarative schema
covers every firing mode:

* ``always`` -- fire on every consultation;
* ``at-height`` -- fire from a given block height on;
* ``phase`` -- fire only while the server is in one of the given phases;
* ``probability`` -- fire with a seeded pseudo-random probability, latching
  on once fired so runs stay deterministic for a given seed;
* ``choice`` -- ask the model checker (:func:`repro.check.choices.choose`)
  whether to fire: every consultation is a binary branch of the explored
  tree while the trigger's :class:`ChoiceBudget` lasts.  The default pick
  is "no", so outside the checker the trigger is inert;
* ``all`` -- the conjunction of the specs listed under ``of``.

Triggers are *stateful* (probability latches, budgets), so each plan
materialises its own instance via :func:`trigger_from_spec`.
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
    plan's trigger can decide *when* to misbehave -- by protocol phase or
    block height -- without the hooks themselves growing extra parameters.
    """

    #: Protocol phase: "execute", "vote", "challenge", "decision", or
    #: "coordinate" (coordinator-side block assembly).
    phase: str = ""
    #: Height of the block being processed; for execution-layer hooks this is
    #: the height the *next* block would carry (the local log height).
    block_height: Optional[int] = None
    #: Virtual time of the phase observation on the simulated event timeline.
    #: It only stamps a plan's injection instant in the trace: some hooks
    #: fire after the clock has moved past their phase's observation.
    sim_time: Optional[float] = None


class Trigger:
    """Base trigger: always fires."""

    kind = "always"

    def fires(self, ctx: FaultContext) -> bool:
        return True


@dataclass
class AtHeightTrigger(Trigger):
    """Fire from a given block height on."""

    height: int = 0
    kind = "at-height"

    def fires(self, ctx) -> bool:
        return ctx.block_height is not None and ctx.block_height >= self.height


@dataclass
class PhaseTrigger(Trigger):
    """Fire only while the server is in one of the given protocol phases."""

    phases: Tuple[str, ...] = ()
    kind = "phase"

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError("a phase trigger with no phases would never fire")

    def fires(self, ctx) -> bool:
        return ctx.phase in self.phases


@dataclass
class ProbabilisticTrigger(Trigger):
    """Fire with seeded probability; latches on once fired (deterministic runs)."""

    probability: float = 0.5
    seed: int = 2020
    kind = "probability"
    _rng: random.Random = field(default=None, repr=False)
    _fired: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("trigger probability must be within [0, 1]")
        self._rng = random.Random(self.seed)

    def fires(self, ctx) -> bool:
        if not self._fired:
            self._fired = self._rng.random() < self.probability
        return self._fired


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

    def fires(self, ctx) -> bool:
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
    does not fire, so a stateful part (a checker choice) placed last only
    sees the consultations the earlier parts let through.
    """

    of: Tuple[Trigger, ...] = ()
    kind = "all"

    def __post_init__(self) -> None:
        if not self.of:
            raise ConfigurationError("an all trigger with no parts would always fire")

    def fires(self, ctx) -> bool:
        return all(part.fires(ctx) for part in self.of)


_TRIGGER_KINDS = {
    "always": Trigger,
    "at-height": AtHeightTrigger,
    "phase": PhaseTrigger,
    "probability": ProbabilisticTrigger,
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
    kind = spec.get("kind", "always")
    cls = _TRIGGER_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown trigger kind {kind!r}; known: {sorted(_TRIGGER_KINDS)}"
        )
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    if "phases" in kwargs:
        kwargs["phases"] = tuple(kwargs["phases"])
    if "of" in kwargs:
        kwargs["of"] = tuple(trigger_from_spec(part) for part in kwargs["of"])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad trigger spec {spec!r}: {exc}") from None
