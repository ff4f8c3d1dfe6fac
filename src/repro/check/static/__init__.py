"""Whole-program static protocol analyzer (``python -m repro.check.static``).

The static counterpart to the PR 6 model checker: where the explorer proves
properties of *runs it can reach*, this package proves properties of *every
path in the source*, before anything executes -- two whole-program
analyses and one set of per-file rules:

- :mod:`repro.check.static.flowgraph` -- message-flow totality: every sent
  ``MessageType`` has a dispatch entry, every dispatch entry a sender, every
  enum member is reachable.
- :mod:`repro.check.static.effects` -- exception effects: handler-reachable
  code must not let non-``FidesError`` exceptions escape (response-map
  subscripts, un-defaulted ``max``/``min``, broad excepts, builtin raises).
- :mod:`repro.check.static.determinism` -- determinism and hygiene rules:
  no wall clock, ad-hoc timers, ``print`` or bare ``assert`` in protocol
  packages, no unseeded randomness anywhere.

Findings are :class:`~repro.check.static.model.Finding` values, reported via
:mod:`repro.check.static.report` against the checked-in ``baseline.json``.
The analyses run pure-AST (no package import needed) and compose with the
mutation registry through static branch folding -- see
:func:`~repro.check.static.model.fold_test` and the self-tests in
``tests/check/test_static_selftest.py``.

Round-state hygiene is *not* an analysis here: a round is one object with a
declared lifecycle (:data:`repro.core.rounds.ROUND_TRANSITIONS`,
:data:`repro.server.commitment.COHORT_TRANSITIONS`) whose every exit
releases in one place, so there is no arm/release pairing left to infer.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.check.static.determinism import determinism_findings
from repro.check.static.effects import effect_findings
from repro.check.static.flowgraph import flow_findings
from repro.check.static.model import Finding, SourceTree, default_root

__all__ = ["Finding", "SourceTree", "default_root", "run_analyses"]


def run_analyses(
    tree: SourceTree, mutations: FrozenSet[str] = frozenset()
) -> List[Finding]:
    """Run all three analyses; suppressed findings are dropped here."""
    findings: List[Finding] = []
    findings.extend(flow_findings(tree))
    findings.extend(effect_findings(tree, mutations))
    findings.extend(determinism_findings(tree))
    kept = []
    for finding in findings:
        module = tree.modules.get(finding.path)
        if module is not None and module.allows(finding.line, finding.rule):
            continue
        kept.append(finding)
    return sorted(kept, key=lambda f: (f.path, f.line, f.rule, f.message))
