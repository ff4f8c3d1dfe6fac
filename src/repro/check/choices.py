"""Enumerable nondeterminism: the ChoicePoint API.

The reproduction's runs are deterministic by construction -- protocol code
executes synchronously in one order and every random draw is seeded.  That
determinism is what makes the implementation *checkable*: if every place
where a real deployment could behave differently (which cohort a phase or a
broadcast reaches first, when a crash fires, what a Byzantine
coordinator does, which buffered block the ordering service releases) asks an
explicit question instead of baking in one answer, then the set of reachable
behaviours becomes an enumerable tree of integer choices.

This module is that question-asking API.  It deliberately imports nothing
from the rest of ``repro`` so that any layer -- ``sim``, ``net``, ``core`` --
can consult it without creating an import cycle.

Protocol code calls :func:`choose` (or :func:`choose_order`) at each
nondeterministic site.  In production no :class:`ChoiceSource` is installed
and every call returns its default with near-zero overhead, reproducing the
historical single-schedule behaviour bit-for-bit.  Under the model checker
(:mod:`repro.check.explorer`) a source is installed via :func:`driven_by`:
it replays a *prefix* of forced picks, falls back to defaults past the
prefix, and records the full :class:`ChoicePoint` trace so the explorer can
branch on every alternative it saw.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, TypeVar

T = TypeVar("T")

_ROOT_FINGERPRINT = hashlib.sha256(b"repro.check/choice-tree-root").hexdigest()


class ChoiceError(Exception):
    """A choice prefix no longer matches the decision sites of the run."""


@dataclass(frozen=True, slots=True)
class ChoicePoint:
    """One decision taken during a driven run."""

    #: Position in the run's choice sequence (0-based).
    index: int
    #: Stable human-readable description of the decision site.
    label: str
    #: Number of alternatives available (always >= 2 when recorded).
    options: int
    #: The alternative actually taken this run.
    picked: int


class ChoiceSource:
    """Replays a pick prefix, defaults past it, and records the trace.

    ``features`` restricts which families of choice sites are live (``None``
    means all): sites gate themselves with a feature tag so a scenario can,
    say, explore crash injection without also permuting every broadcast's
    delivery order.
    """

    def __init__(
        self,
        prefix: Sequence[int] = (),
        features: Optional[Set[str]] = None,
    ) -> None:
        self.prefix: List[int] = list(prefix)
        self.features = None if features is None else set(features)
        #: Every decision taken, in order.
        self.trace: List[ChoicePoint] = []
        #: Hash-chain fingerprint of each tree node visited (one per choice);
        #: the explorer counts these toward "distinct states explored".
        self.node_fingerprints: List[str] = []
        self._chain = _ROOT_FINGERPRINT

    def enabled(self, feature: Optional[str]) -> bool:
        return feature is None or self.features is None or feature in self.features

    def choose(self, label: str, options: int, default: int = 0) -> int:
        if options < 2:
            raise ChoiceError(f"choice {label!r} needs >= 2 options, got {options}")
        index = len(self.trace)
        if index < len(self.prefix):
            picked = self.prefix[index]
        else:
            picked = default
        if not 0 <= picked < options:
            raise ChoiceError(
                f"choice #{index} {label!r}: pick {picked} out of range for "
                f"{options} options (stale or foreign trace prefix)"
            )
        self.trace.append(ChoicePoint(index=index, label=label, options=options, picked=picked))
        self._chain = hashlib.sha256(
            f"{self._chain}|{label}|{options}|{picked}".encode("utf-8")
        ).hexdigest()
        self.node_fingerprints.append(self._chain)
        return picked

    def picks(self) -> List[int]:
        return [point.picked for point in self.trace]

    def __len__(self) -> int:
        return len(self.trace)


_active: Optional[ChoiceSource] = None


@contextmanager
def driven_by(source: ChoiceSource) -> Iterator[ChoiceSource]:
    """Install ``source`` as the run's choice source for the ``with`` body."""
    global _active
    if _active is not None:
        raise ChoiceError("nested driven_by() is not supported; one run at a time")
    _active = source
    try:
        yield source
    finally:
        _active = None


def choose(label: str, options: int, default: int = 0, feature: Optional[str] = None) -> int:
    """Ask the active source to pick in ``range(options)``; default otherwise.

    Sites with fewer than two options, or whose ``feature`` the source has
    not enabled, are never recorded -- keeping traces short and stable.
    """
    source = _active
    if source is None or options < 2 or not source.enabled(feature):
        return default
    return source.choose(label, options, default)


def choose_order(label: str, items: Sequence[T], feature: Optional[str] = None) -> List[T]:
    """Return ``items`` in a chosen permutation (identity when undriven).

    The permutation is built one pick at a time so each branch point stays a
    small integer choice; enumerating all picks covers all ``k!`` orders.
    """
    ordered = list(items)
    source = _active
    if source is None or len(ordered) < 2 or not source.enabled(feature):
        return ordered
    out: List[T] = []
    while len(ordered) > 1:
        pick = source.choose(f"{label}[{len(out)}]", len(ordered), 0)
        out.append(ordered.pop(pick))
    out.extend(ordered)
    return out
