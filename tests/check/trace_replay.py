"""Replaying the committed counterexample traces.

``python -m repro.check`` saves each counterexample it finds as a trace
(:mod:`repro.check.replay`); committed under ``traces/``, every one is a
regression test.  This module reads a trace back, refusing one that cannot
assert what it claims, and re-runs its pick sequence.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Tuple

from repro.check.choices import ChoiceSource, driven_by
from repro.check.invariants import INVARIANTS, RunRecord, Violation, evaluate
from repro.check.mutations import MUTATIONS, mutated
from repro.check.replay import TRACE_VERSION, Trace
from repro.check.scenarios import SCENARIOS


def load_trace(path) -> Trace:
    """Read a saved trace, refusing one that cannot assert what it claims.

    An unknown scenario, mutation or invariant, an ``expect`` other than
    ``violation``/``clean``, and a violation trace that names no invariant
    are all refused here with :class:`ValueError`: such a trace would fail
    only at replay, or pass :func:`assert_trace` vacuously.
    """
    document = json.loads(Path(path).read_text())
    version = document.get("version")
    if version != TRACE_VERSION:
        raise ValueError(f"{path}: unsupported trace version {version!r}")
    trace = Trace(
        scenario=document["scenario"],
        choices=[int(pick) for pick in document["choices"]],
        invariants=list(document.get("invariants", [])),
        mutations=list(document.get("mutations", [])),
        expect=document.get("expect", "violation"),
        description=document.get("description", ""),
        version=version,
    )
    if trace.scenario not in SCENARIOS:
        raise ValueError(f"{path}: unknown scenario {trace.scenario!r}")
    for name in trace.mutations:
        if name not in MUTATIONS:
            raise ValueError(f"{path}: unknown mutation {name!r}")
    for name in trace.invariants:
        if name not in INVARIANTS:
            raise ValueError(f"{path}: unknown invariant {name!r}")
    if trace.expect not in ("violation", "clean"):
        raise ValueError(f"{path}: expect is {trace.expect!r}, not 'violation' or 'clean'")
    if trace.expect == "violation" and not trace.invariants:
        raise ValueError(f"{path}: a violation trace names no invariant")
    return trace


def replay(
    trace: Trace, with_mutations: Optional[bool] = None
) -> Tuple[RunRecord, List[Violation]]:
    """Re-execute a trace; returns the run record and its violations.

    ``with_mutations=False`` replays the same pick sequence with the trace's
    mutation flags *off* -- the regression tests use it to assert the fixed
    code is clean on the exact schedule that broke the buggy code.
    """
    enabled = trace.mutations if (with_mutations is None or with_mutations) else ()
    scenario = SCENARIOS[trace.scenario]
    with mutated(*enabled):
        source = ChoiceSource(trace.choices, features=set(scenario.features))
        with driven_by(source):
            record = scenario.run()
    return record, evaluate(record)


def assert_trace(path) -> None:
    """Pytest helper: a saved trace must behave exactly as recorded.

    A ``violation`` trace must reproduce (a superset of) its recorded
    invariant violations with its mutations enabled, and replay clean with
    them disabled; a ``clean`` trace must simply pass.
    """
    trace = load_trace(path)
    _, violations = replay(trace)
    violated = {violation.invariant for violation in violations}
    if trace.expect == "clean":
        assert not violations, f"{path}: clean trace now violates {sorted(violated)}"
        return
    missing = set(trace.invariants) - violated
    assert not missing, (
        f"{path}: trace no longer reproduces invariant(s) {sorted(missing)} "
        f"(got {sorted(violated)})"
    )
    if trace.mutations:
        _, fixed_violations = replay(trace, with_mutations=False)
        assert not fixed_violations, (
            f"{path}: schedule still violates "
            f"{sorted({v.invariant for v in fixed_violations})} with the "
            "mutations disabled -- the bug is live, not re-introduced"
        )
