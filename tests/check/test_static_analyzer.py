"""The static analyzer: clean on the real tree, each rule fires on a fixture.

Mirrors ``test_lint.py``'s structure, but the fixtures are synthetic package
trees written to ``tmp_path`` because the analyses key off package names
(``core``, ``server``...) and cross-module structure (a ``handle`` method and
the ``_on_*`` handlers beside it), which point fixtures cannot express.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.check.static import default_root
from repro.check.static import run_analyses
from repro.check.static.__main__ import main
from repro.check.static.model import SourceTree
from repro.check.static.report import (
    build_report,
    load_baseline,
    validate_report,
    write_baseline,
)


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

    def test_escaping_raise_in_handler_reachable_code(self, tmp_path):
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
        findings = by_rule(run_analyses(write_tree(tmp_path, files)), "escaping-raise")
        assert [f.function for f in findings] == ["Layer.ping"]
        assert "ValueError" in findings[0].message

    def test_a_handler_is_a_root_by_its_name_alone(self, tmp_path):
        # No table names the handler: ``_on_<type>`` beside ``handle`` is enough.
        files = base_files()
        files["server/server.py"] += """
                def _on_pong(self, envelope):
                    raise KeyError("pong")

                def helper_nobody_calls(self):
                    raise KeyError("unreachable")
            """
        findings = by_rule(run_analyses(write_tree(tmp_path, files)), "escaping-raise")
        assert [f.function for f in findings] == ["Server._on_pong"]

    def test_raise_unreachable_from_dispatch_is_ignored(self, tmp_path):
        files = base_files()
        files["core/util.py"] = """
            def helper(x):
                if x < 0:
                    raise ValueError("never called from a handler")
                return x
            """
        assert by_rule(run_analyses(write_tree(tmp_path, files)), "escaping-raise") == []


class TestSuppressionAndBaseline:
    def test_static_allow_marker_suppresses(self, tmp_path):
        files = {**base_files(), "core/sloppy.py": SLOPPY.format(marker="  # static: allow")}
        assert by_rule(run_analyses(write_tree(tmp_path, files)), "broad-except") == []

    def test_static_allow_with_rule_list_is_selective(self, tmp_path):
        files = {
            **base_files(),
            "core/sloppy.py": SLOPPY.format(marker="  # static: allow[escaping-raise]"),
        }
        findings = by_rule(run_analyses(write_tree(tmp_path, files)), "broad-except")
        assert findings, "marker names a different rule, so the finding stays"

    def test_baseline_roundtrip_and_report_schema(self, tmp_path):
        files = {**base_files(), "core/sloppy.py": SLOPPY.format(marker="")}
        tree = write_tree(tmp_path, files)
        findings = run_analyses(tree)
        assert findings

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        assert baseline == {finding.key for finding in findings}

        report = build_report(findings, tmp_path, baseline)
        assert validate_report(report) == []
        assert report["new_findings"] == []
        assert report["baselined_findings"] == sorted(baseline)

    def test_cli_baseline_workflow(self, tmp_path, capsys):
        write_tree(tmp_path, {**base_files(), "core/sloppy.py": SLOPPY.format(marker="")})
        baseline = tmp_path / "baseline.json"
        args = ["--root", str(tmp_path), "--baseline", str(baseline)]

        assert main(args) == 1  # un-baselined finding fails
        assert main(args + ["--update-baseline"]) == 0
        assert main(args) == 0  # now accepted debt
        out = capsys.readouterr().out
        assert "[baselined]" in out

        report_path = tmp_path / "report.json"
        assert main(args + ["--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert validate_report(report) == []
        assert report["counts"] == {"broad-except": 1}

    def test_stale_baseline_entry_is_reported(self, tmp_path, capsys):
        write_tree(tmp_path, base_files())
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "schema_version": 1,
            "suppressions": ["gone::core/x.py::f::whatever"],
        }))
        assert main(["--root", str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_baseline_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"schema_version": 99, "suppressions": []}))
        with pytest.raises(ValueError):
            load_baseline(bad)
