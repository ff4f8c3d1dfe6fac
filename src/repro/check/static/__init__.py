"""Static protocol analyzer (``python -m repro.check.static``).

The static counterpart to the model checker: where the explorer proves
properties of *runs it can reach*, this package checks *every line of the
source*, before anything executes.  :mod:`repro.check.static.rules` is one
walk over each module's AST applying per-node rules:

- exception rules -- no broad ``except`` and no ``raise`` of a builtin
  exception in the protocol packages, so only ``FidesError`` can leave a
  handler;
- determinism and hygiene rules -- no wall clock, ad-hoc timers, ``print``
  or bare ``assert`` in protocol packages, no unseeded randomness anywhere.

Findings are :class:`~repro.check.static.model.Finding` values; a trailing
``# static: allow[rule]`` on the flagged line is the one way to excuse one.
The rules run pure-AST (no package import needed).

What is *not* an analysis here, because it is data or a type instead of
something to infer from source text:

- message-flow totality -- every :class:`~repro.net.message.MessageType` has
  exactly one row in :data:`repro.net.forms.MESSAGES` and one ``_on_<value>``
  handler (``tests/net/test_forms.py``), and which types a deployment
  actually sends is recorded from runs (``tests/check/test_flowgraph.py``);
- reply shapes -- a reply is a declared form read through
  :func:`repro.net.forms.read_reply`, and ``timed_exchange`` hands answers
  and refusals back apart, so a tally cannot subscript a refusal;
- round-state hygiene -- a round is one object with a declared lifecycle
  (:data:`repro.core.rounds.ROUND_TRANSITIONS`,
  :data:`repro.server.commitment.COHORT_TRANSITIONS`) whose every exit
  releases in one place, so there is no arm/release pairing left to infer.
"""

from __future__ import annotations

from typing import List

from repro.check.static.model import Finding, SourceTree, default_root
from repro.check.static.rules import rule_findings

__all__ = ["Finding", "SourceTree", "default_root", "run_analyses"]


def run_analyses(tree: SourceTree) -> List[Finding]:
    """Run every rule; suppressed findings are dropped here."""
    findings = tree.syntax_errors + rule_findings(tree)
    kept = []
    for finding in findings:
        module = tree.modules.get(finding.path)
        if module is not None and module.allows(finding.line, finding.rule):
            continue
        kept.append(finding)
    return sorted(kept, key=lambda f: (f.path, f.line, f.rule, f.message))
