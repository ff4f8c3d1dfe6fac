"""Mutation flags: re-introducible historical bugs for checker self-tests.

A model checker that has never caught a real bug proves nothing.  This
registry lets the test suite flip *fixed* bugs back on -- each one guarded
at its original site by ``if mutation_enabled("..."):`` -- and assert that
the checker rediscovers them as invariant violations with minimized,
replayable counterexamples.

Like :mod:`repro.check.choices`, this module imports nothing from the rest
of ``repro`` so protocol code can consult it without import cycles.  All
flags default to off; production behaviour is unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator


@dataclass(frozen=True, slots=True)
class Mutation:
    """One re-introducible bug."""

    name: str
    description: str


#: Every known mutation.  Keep descriptions tied to the fix that removed the
#: bug, so a reader can find both sides of the story.
MUTATIONS: Dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            name="pr3-round-failed-leak",
            description=(
                "A failed round's one exit (SimScheduledRounds._close) does "
                "not broadcast ROUND_FAILED, so cohorts that already "
                "registered the round leak its RoundState (fixed in PR 3; "
                "caught by the round-state-released invariant)."
            ),
        ),
        Mutation(
            name="pr7-2pc-vote-keyerror",
            description=(
                "2PC coordinator tallies votes without first failing the "
                "round on refusals, so a round decides on the votes of the "
                "cohorts that happened to answer (fixed in PR 7, when a "
                "silent cohort's stand-in response still reached the tally "
                "and KeyError'd it; caught by a 2PC round with a cohort "
                "crashed mid-PREPARE, which must report failed)."
            ),
        ),
        Mutation(
            name="pr3-double-count-blocks",
            description=(
                "run_workload() forgets the pre-run snapshot of coordinator "
                "results, so a second workload on the same system reports "
                "the first run's blocks again (fixed in PR 3; caught by the "
                "workload-accounting invariant)."
            ),
        ),
    )
}

_enabled: Dict[str, bool] = {name: False for name in MUTATIONS}


def mutation_enabled(name: str) -> bool:
    """Is the named mutation currently switched on?  (Hot-path guard.)"""
    try:
        return _enabled[name]
    except KeyError:
        raise KeyError(f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}") from None


def enable(name: str) -> None:
    mutation_enabled(name)  # validate the name
    _enabled[name] = True


@contextmanager
def mutated(*names: str) -> Iterator[None]:
    """Enable ``names`` for the ``with`` body, restoring prior state after."""
    previous = {name: _enabled[name] for name in _enabled}
    try:
        for name in names:
            enable(name)
        yield
    finally:
        _enabled.update(previous)
