"""Shared AST model for the static protocol analyzer.

- :class:`SourceTree` parses every module under the analyzed root exactly
  once, without importing the package (the CI job checks out sources only).
- :class:`Finding` is the one result type every rule emits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

#: Trailing-comment marker suppressing a finding on its line.  Bare form
#: (``# static: allow``) suppresses every rule; ``# static: allow[rule]``
#: (comma-separable) suppresses only the named rule(s).
ALLOW_MARKER = "# static: allow"

#: Packages whose runtime code is a protocol hot path: the stricter
#: determinism rules and the exception rules apply to them.
PROTOCOL_PACKAGES = frozenset(
    {"core", "server", "net", "ledger", "recovery", "storage", "txn", "crypto", "sim"}
)


@dataclass(frozen=True)
class Finding:
    """One analyzer result."""

    analysis: str  # "syntax" | "effects" | "determinism"
    rule: str
    path: str  # module path relative to the analyzed root (posix)
    line: int
    function: str  # qualified name, "" for module-level findings
    message: str

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}"
        subject = f" {self.function}:" if self.function else ""
        return f"{where}: [{self.rule}]{subject} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "analysis": self.analysis,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "message": self.message,
        }


def default_root() -> Path:
    """``src/repro`` as located relative to this module file."""
    return Path(__file__).resolve().parent.parent.parent


class SourceModule:
    """One parsed source file."""

    def __init__(self, path: Path, relative: str, source: str) -> None:
        self.path = path
        self.relative = relative
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))

    @property
    def package(self) -> str:
        """First path component under the root ('' for top-level modules)."""
        parts = self.relative.split("/")
        return parts[0] if len(parts) > 1 else ""

    def allows(self, line: int, rule: str) -> bool:
        """Whether ``# static: allow`` on ``line`` suppresses ``rule``."""
        try:
            text = self.lines[line - 1]
        except IndexError:
            return False
        marker = text.find(ALLOW_MARKER)
        if marker < 0:
            return False
        rest = text[marker + len(ALLOW_MARKER):].strip()
        if rest.startswith("["):
            end = rest.find("]")
            if end < 0:
                return False
            rules = {item.strip() for item in rest[1:end].split(",")}
            return rule in rules
        return True


class SourceTree:
    """Every module under one root, parsed once."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.modules: Dict[str, SourceModule] = {}
        self.syntax_errors: List[Finding] = []
        for path in sorted(self.root.rglob("*.py")):
            relative = path.relative_to(self.root).as_posix()
            try:
                module = SourceModule(path, relative, path.read_text())
            except SyntaxError as exc:
                self.syntax_errors.append(
                    Finding("syntax", "syntax", relative, exc.lineno or 0, "", str(exc.msg))
                )
                continue
            self.modules[relative] = module
