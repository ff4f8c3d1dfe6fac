"""Analyzer self-tests: the static passes rediscover a historical bug.

Same philosophy as ``test_mutation_selftest.py`` for the model checker: an
analyzer that has never caught a real bug proves nothing.  Each test folds a
mutation flag on *statically* (no runtime state is touched -- the analyzer
evaluates ``mutation_enabled("...")`` during branch folding) and asserts the
re-introduced bug is reported at its original site.
"""

from __future__ import annotations

from repro.check.static import default_root
from repro.check.static import run_analyses
from repro.check.static.model import SourceTree


def analyze(*mutations):
    return run_analyses(SourceTree(default_root()), frozenset(mutations))


def by_rule(findings, rule):
    return [finding for finding in findings if finding.rule == rule]


class TestPr72pcVoteKeyError:
    """PR 7's bug: the 2PC tally subscripts ``vote["involved"]`` /
    ``vote["decision"]`` without first failing the round on unreachable
    cohorts, so a crashed cohort's synthesized response KeyErrors."""

    def test_clean_tree_has_no_unguarded_subscripts(self):
        assert by_rule(analyze(), "unguarded-subscript") == []

    def test_mutation_reintroduces_the_keyerror(self):
        findings = by_rule(
            analyze("pr7-2pc-vote-keyerror"), "unguarded-subscript"
        )
        assert findings, "analyzer missed the re-introduced PR 7 KeyError"
        assert {finding.path for finding in findings} == {"core/twopc.py"}
        assert all(finding.line > 0 for finding in findings)
        assert all(
            finding.function.endswith("TwoPhaseCommitCoordinator._run") for finding in findings
        )
        keys = {
            key for finding in findings for key in ("involved", "decision")
            if f"'{key}'" in finding.message
        }
        assert keys == {"involved", "decision"}

    def test_an_unrelated_mutation_does_not_mask_it(self):
        # pr3-round-failed-leak has no static rule any more (the round's one
        # exit releases by construction; the model checker rediscovers it),
        # and folding it on must neither hide nor add a finding.
        findings = analyze("pr3-round-failed-leak", "pr7-2pc-vote-keyerror")
        assert {finding.rule for finding in findings} == {"unguarded-subscript"}
