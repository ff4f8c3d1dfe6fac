"""The static analyzer: clean on the real tree, each rule fires on a fixture.

Mirrors ``test_lint.py``'s structure, but the fixtures are synthetic package
trees written to ``tmp_path`` because the rules key off package names
(``core``, ``server``, ``bench``...).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.check.static import default_root
from repro.check.static import run_analyses
from repro.check.static.__main__ import main
from repro.check.static.model import SourceTree


def write_tree(root: Path, files: dict) -> SourceTree:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return SourceTree(root)


#: Minimal surroundings every fixture tree shares: a server whose ``handle``
#: finds its handlers by name, and a driver that sends to it.
def base_files() -> dict:
    return {
        "server/server.py": """
            class Server:
                def handle(self, envelope):
                    return getattr(self, "_on_" + envelope.message_type.value)(envelope)

                def _on_ping(self, envelope):
                    return Ack(self.server_id)
            """,
        "core/driver.py": """
            class Driver:
                def run(self):
                    self.network.send("a", "b", MessageType.PING, Ping())
            """,
    }


#: A helper no handler calls, raising a builtin exception.
UNCALLED_HELPER = """
    def helper(x):
        if x < 0:
            raise ValueError("never called from a handler")
        return x
    """

#: A protocol-package file with one ``broad-except`` finding on its line 5.
SLOPPY = """
    def load(data):
        try:
            return decode(data)
        except Exception:{marker}
            return None
    """


def rules(findings):
    return {finding.rule for finding in findings}


def by_rule(findings, rule):
    return [finding for finding in findings if finding.rule == rule]


class TestRepositoryIsClean:
    def test_src_repro_has_no_findings(self):
        findings = run_analyses(SourceTree(default_root()))
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_cli_exits_zero_on_the_repository(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out


class TestSourceTree:
    def test_clean_base_tree(self, tmp_path):
        tree = write_tree(tmp_path, base_files())
        assert run_analyses(tree) == []

    def test_syntax_error_is_a_finding(self, tmp_path):
        files = base_files()
        files["core/broken.py"] = "def f(:\n"
        findings = by_rule(run_analyses(write_tree(tmp_path, files)), "syntax")
        assert [f.path for f in findings] == ["core/broken.py"]


class TestExceptionEffects:
    def test_broad_except_flagged_in_protocol_package(self, tmp_path):
        files = base_files()
        files["core/sloppy.py"] = SLOPPY.format(marker="")
        findings = by_rule(run_analyses(write_tree(tmp_path, files)), "broad-except")
        assert [f.path for f in findings] == ["core/sloppy.py"]

    def test_broad_except_ignored_outside_protocol_packages(self, tmp_path):
        files = base_files()
        files["bench/sloppy.py"] = SLOPPY.format(marker="")
        assert by_rule(run_analyses(write_tree(tmp_path, files)), "broad-except") == []

    def test_builtin_raise_in_handler_code_is_flagged(self, tmp_path):
        files = base_files()
        files["server/server.py"] = """
            class Server:
                def handle(self, envelope):
                    return getattr(self, "_on_" + envelope.message_type.value)(envelope)

                def _on_ping(self, envelope):
                    return self.layer.ping(envelope.payload)

            class Layer:
                def ping(self, request):
                    if not request.nonce:
                        raise ValueError("empty ping")
                    return Ack("s0")
            """
        findings = by_rule(run_analyses(write_tree(tmp_path, files)), "builtin-raise")
        assert [f.function for f in findings] == ["Layer.ping"]
        assert "ValueError" in findings[0].message

    def test_raise_unreachable_from_dispatch_is_flagged(self, tmp_path):
        # No reachability: a builtin raise anywhere in a protocol package is
        # a finding, whether or not a handler calls it today.
        files = base_files()
        files["core/viewchange.py"] = UNCALLED_HELPER
        findings = by_rule(run_analyses(write_tree(tmp_path, files)), "builtin-raise")
        assert [(f.path, f.function) for f in findings] == [("core/viewchange.py", "helper")]

    def test_builtin_raise_ignored_outside_protocol_packages(self, tmp_path):
        files = base_files()
        files["bench/viewchange.py"] = UNCALLED_HELPER
        assert by_rule(run_analyses(write_tree(tmp_path, files)), "builtin-raise") == []

    def test_protocol_errors_and_reraises_are_not_flagged(self, tmp_path):
        files = base_files()
        files["core/errors_ok.py"] = """
            from repro.common import errors
            from repro.common.errors import ConfigurationError

            class Interface:
                def step(self):
                    raise NotImplementedError

            def configure(depth):
                if depth < 1:
                    raise ConfigurationError("depth must be >= 1")
                try:
                    return decode(depth)
                except errors.ValidationError:
                    raise
                except KeyError as exc:
                    raise errors.ProtocolError(str(exc)) from None
            """
        assert run_analyses(write_tree(tmp_path, files)) == []


class TestCallNames:
    def test_a_local_function_named_random_is_not_a_draw(self, tmp_path):
        # A one-part name that no import binds has no module to match.
        files = base_files()
        files["core/dice.py"] = """
            def random():
                return 4

            def roll():
                return random()
            """
        assert run_analyses(write_tree(tmp_path, files)) == []


class TestSuppression:
    def test_static_allow_marker_suppresses(self, tmp_path):
        files = {**base_files(), "core/sloppy.py": SLOPPY.format(marker="  # static: allow")}
        assert by_rule(run_analyses(write_tree(tmp_path, files)), "broad-except") == []

    def test_static_allow_with_rule_list_is_selective(self, tmp_path):
        files = {
            **base_files(),
            "core/sloppy.py": SLOPPY.format(marker="  # static: allow[builtin-raise]"),
        }
        findings = by_rule(run_analyses(write_tree(tmp_path, files)), "broad-except")
        assert findings, "marker names a different rule, so the finding stays"

    def test_cli_fails_on_a_finding_and_writes_the_report(self, tmp_path, capsys):
        write_tree(tmp_path, {**base_files(), "core/sloppy.py": SLOPPY.format(marker="")})
        report_path = tmp_path / "report.json"
        assert main(["--root", str(tmp_path), "--json", str(report_path)]) == 1
        assert "1 finding(s)" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert set(report) == {"tool", "commit", "root", "counts", "findings"}
        assert report["counts"] == {"broad-except": 1}
