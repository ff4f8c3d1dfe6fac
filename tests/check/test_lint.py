"""The determinism rules of ``repro.check.static``: clean on the
real tree, each rule fires on its fixture."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.static import SourceTree, default_root, run_analyses
from repro.check.static.__main__ import main

FIXTURES = Path(__file__).parent / "lint_fixtures"

RULES = {"wallclock", "adhoc-timing", "no-print", "unseeded-random", "bare-assert"}


def _determinism(root):
    return [f for f in run_analyses(SourceTree(root)) if f.analysis == "determinism"]


def _by_rule(findings, rule):
    return [finding for finding in findings if finding.rule == rule]


class TestRepositoryIsClean:
    def test_src_repro_has_no_violations(self):
        findings = _determinism(default_root())
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_cli_exits_zero_on_the_repository(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out


class TestFixturesAreFlagged:
    @pytest.fixture(scope="class")
    def violations(self):
        return _determinism(FIXTURES)

    def test_wallclock_rule(self, violations):
        flagged = _by_rule(violations, "wallclock")
        assert {v.path for v in flagged} == {"wallclock_bad.py", "wallclock_imported.py"}
        # time.time() and datetime.now() flagged, also when called through a
        # name imported from time/datetime; perf_counter and the
        # `# static: allow` line are not.
        assert len(flagged) == 4
        assert {v.function for v in flagged} == {"stamp", "stamp_imported"}

    def test_no_print_rule_only_in_protocol_packages(self, violations):
        flagged = _by_rule(violations, "no-print")
        assert [v.path for v in flagged] == ["core/print_bad.py"]
        # The `# static: allow` print in the same file is exempt.
        assert len(flagged) == 1

    def test_adhoc_timing_rule_only_in_protocol_packages(self, violations):
        flagged = _by_rule(violations, "adhoc-timing")
        # perf_counter, monotonic, and the bare-name process_time call are
        # flagged inside core/; the perf_counter in wallclock_bad.py (not a
        # protocol package) and the `# static: allow` line are not.
        assert {v.path for v in flagged} == {"core/timing_bad.py"}
        assert len(flagged) == 3

    def test_unseeded_random_rule(self, violations):
        flagged = _by_rule(violations, "unseeded-random")
        assert {v.path for v in flagged} == {"random_bad.py", "core/random_imported.py"}
        # random.random() and argless random.Random(), also through imported
        # names (random(), an aliased choice, Random()); the seeded ones pass.
        assert len(flagged) == 5

    def test_bare_assert_rule_only_in_protocol_packages(self, violations):
        flagged = _by_rule(violations, "bare-assert")
        assert [v.path for v in flagged] == ["core/assert_bad.py"]
        # The `# static: allow` assert in the same file is exempt.
        assert len(flagged) == 1

    def test_cli_exit_code_and_json(self, capsys):
        code = main(["--root", str(FIXTURES), "--json", "-"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        flagged = {e["rule"] for e in report["findings"] if e["analysis"] == "determinism"}
        assert flagged == RULES
        assert set(report) == {"tool", "commit", "root", "counts", "findings"}
        assert all(report["counts"][rule] >= 1 for rule in RULES)


class TestUnparsableSources:
    def test_syntax_errors_are_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        rules = {f.rule for f in run_analyses(SourceTree(tmp_path))}
        assert "syntax" in rules and not rules & RULES
