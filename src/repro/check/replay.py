"""Counterexample traces as deterministic, replayable artifacts.

A trace is a small JSON document -- scenario name, pick sequence, the
invariant(s) it violates, and the mutation flags that must be on for the
bug to exist.  Because every run is deterministic given its pick prefix,
replaying a trace reproduces the original behaviour exactly.  The checker's
CLI saves each counterexample it finds; committed under
``tests/check/traces/``, they double as regression tests
(``tests/check/test_traces.py`` replays each one and asserts that the
violation reproduces with its mutations enabled and disappears without).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.check.explorer import Counterexample

#: Bump when the trace document shape changes incompatibly.
TRACE_VERSION = 1


@dataclass
class Trace:
    """One saved counterexample (or witness) trace."""

    scenario: str
    choices: List[int]
    #: Invariants the trace violates; empty for a clean witness trace.
    invariants: List[str] = field(default_factory=list)
    #: Mutation flags that must be enabled to reproduce.
    mutations: List[str] = field(default_factory=list)
    #: "violation" (must violate when replayed with its mutations) or
    #: "clean" (must pass).
    expect: str = "violation"
    description: str = ""
    version: int = TRACE_VERSION

    def to_document(self) -> Dict:
        return {
            "version": self.version,
            "scenario": self.scenario,
            "choices": list(self.choices),
            "invariants": list(self.invariants),
            "mutations": list(self.mutations),
            "expect": self.expect,
            "description": self.description,
        }


def trace_from_counterexample(
    counterexample: Counterexample,
    mutations: Tuple[str, ...] = (),
    description: str = "",
) -> Trace:
    return Trace(
        scenario=counterexample.scenario,
        choices=list(counterexample.picks),
        invariants=counterexample.invariants,
        mutations=list(mutations),
        expect="violation",
        description=description,
    )


def save_trace(trace: Trace, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace.to_document(), indent=2, sort_keys=True) + "\n")
    return path
