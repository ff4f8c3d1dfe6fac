"""Analyzer self-tests: the static passes rediscover the historical bugs.

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


class TestPr3RoundFailedLeak:
    """PR 3's bug: no ROUND_FAILED broadcast when a round dies early, so
    cohorts that buffered per-round state for the GET_VOTE never release it."""

    def test_clean_tree_has_no_leaks(self):
        assert by_rule(analyze(), "round-state-leak") == []

    def test_mutation_reintroduces_the_leak(self):
        findings = by_rule(
            analyze("pr3-round-failed-leak"), "round-state-leak"
        )
        assert findings, "analyzer missed the re-introduced PR 3 leak"
        leak = findings[0]
        # Reported at the arming GET_VOTE send inside commit_batch...
        assert leak.path == "core/tfcommit.py"
        assert leak.line > 0
        assert leak.function.endswith("commit_batch")
        # ...with the arming -> leaking path spelled out.
        assert leak.trace, "leak finding must carry the leaking path"
        assert leak.trace[0] == leak.line
        assert len(leak.trace) > 1
        assert "GET_VOTE" in leak.message


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
            finding.function.endswith("commit_batch") for finding in findings
        )
        keys = {
            key for finding in findings for key in ("involved", "decision")
            if f"'{key}'" in finding.message
        }
        assert keys == {"involved", "decision"}

    def test_mutations_do_not_mask_each_other(self):
        # Both flags at once: each bug is still reported independently.
        findings = analyze("pr3-round-failed-leak", "pr7-2pc-vote-keyerror")
        assert by_rule(findings, "round-state-leak")
        assert by_rule(findings, "unguarded-subscript")
