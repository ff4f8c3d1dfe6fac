"""The AST lint: clean on the real tree, each rule fires on its fixture."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check.lint import default_root, lint_tree, main

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _rules(violations):
    return {violation.rule for violation in violations}


def _by_rule(violations, rule):
    return [violation for violation in violations if violation.rule == rule]


class TestRepositoryIsClean:
    def test_src_repro_has_no_violations(self):
        violations = lint_tree(default_root())
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_cli_exits_zero_on_the_repository(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out


class TestFixturesAreFlagged:
    @pytest.fixture(scope="class")
    def violations(self):
        return lint_tree(FIXTURES)

    def test_wallclock_rule(self, violations):
        flagged = _by_rule(violations, "wallclock")
        assert {v.path for v in flagged} == {"wallclock_bad.py"}
        # time.time() and datetime.now() flagged; perf_counter and the
        # `# lint: allow` line are not.
        assert len(flagged) == 2

    def test_no_print_rule_only_in_protocol_packages(self, violations):
        flagged = _by_rule(violations, "no-print")
        assert [v.path for v in flagged] == [str(Path("core") / "print_bad.py")]
        # The `# lint: allow` print in the same file is exempt.
        assert len(flagged) == 1

    def test_adhoc_timing_rule_only_in_protocol_packages(self, violations):
        flagged = _by_rule(violations, "adhoc-timing")
        # perf_counter, monotonic, and the bare-name process_time call are
        # flagged inside core/; the perf_counter in wallclock_bad.py (not a
        # protocol package) and the `# lint: allow` line are not.
        assert {v.path for v in flagged} == {str(Path("core") / "timing_bad.py")}
        assert len(flagged) == 3

    def test_unseeded_random_rule(self, violations):
        flagged = _by_rule(violations, "unseeded-random")
        assert {v.path for v in flagged} == {"random_bad.py"}
        # random.random() and argless random.Random(); the seeded one passes.
        assert len(flagged) == 2

    def test_bare_assert_rule_only_in_protocol_packages(self, violations):
        flagged = _by_rule(violations, "bare-assert")
        assert [v.path for v in flagged] == [str(Path("core") / "assert_bad.py")]
        # The `# lint: allow` assert in the same file is exempt.
        assert len(flagged) == 1

    def test_cli_exit_code_and_json(self, capsys):
        code = main(["--root", str(FIXTURES), "--json"])
        assert code == 1
        import json

        report = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in report} == {
            "wallclock",
            "adhoc-timing",
            "no-print",
            "unseeded-random",
            "bare-assert",
        }


class TestUnparsableSources:
    def test_syntax_errors_are_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        assert _rules(lint_tree(tmp_path)) == {"syntax"}
