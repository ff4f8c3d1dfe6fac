"""AST lint pass for repo invariants ruff cannot express.

Runnable as ``python -m repro.check.lint`` (wired into CI next to ruff).
The rules over ``src/repro``:

``wallclock``
    No ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` /
    ``datetime.utcnow()`` / ``date.today()`` anywhere in the library: the
    simulation's determinism (and hence the model checker's replayability)
    requires that virtual time is the only time protocol code observes.

``adhoc-timing``
    No ``time.perf_counter()`` / ``time.monotonic()`` /
    ``time.process_time()`` in the protocol packages: compute durations are
    measured through :class:`repro.obs.timing.Stopwatch` (the one sanctioned
    wall-clock reader), so every measurement lands in the metrics registry
    instead of a local variable.  Non-protocol tooling (``bench``, ``audit``,
    ``check``) may still time itself directly.

``no-print``
    No ``print()`` in the protocol packages: run output goes through the
    observability layer (span attributes, metrics, trace instants), never
    to stdout -- a protocol that prints is a protocol whose behaviour CI
    cannot diff.

``unseeded-random``
    No module-level ``random.<fn>()`` calls and no argument-less
    ``random.Random()``: every random draw must come from an explicitly
    seeded generator, or two runs with the same seed diverge.

``bare-assert``
    No ``assert`` statements in the protocol packages (they vanish under
    ``python -O``); protocol invariants raise
    :class:`~repro.common.errors.ProtocolInvariantError` instead.

A trailing ``# lint: allow`` comment on the offending line suppresses
*every* rule for that line.  It is used nowhere in the library today; it
exists so a future opt-out is explicit rather than silent.  (The
whole-program analyzer's ``# static: allow`` marker in
:mod:`repro.check.static` follows the same convention; cross-module rules
such as codec coverage -- ``missing-decoder`` -- live there, in
:mod:`repro.check.static.flowgraph`.)
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

#: Packages whose runtime code is a protocol hot path (bare asserts banned).
PROTOCOL_PACKAGES = (
    "core",
    "server",
    "net",
    "ledger",
    "recovery",
    "storage",
    "txn",
    "crypto",
    "sim",
)

#: ``module attribute`` call patterns that read the wall clock.
_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Monotonic-timer names banned in protocol packages (use obs Stopwatch).
_ADHOC_TIMING_CALLS = {"perf_counter", "monotonic", "process_time"}

_ALLOW_MARKER = "# lint: allow"


@dataclass(frozen=True)
class LintViolation:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything fancier."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _allowed(source_lines: Sequence[str], line: int) -> bool:
    try:
        return _ALLOW_MARKER in source_lines[line - 1]
    except IndexError:
        return False


class _FileChecker(ast.NodeVisitor):
    def __init__(
        self, path: Path, relative: str, source: str, protocol: bool
    ) -> None:
        self.path = path
        self.relative = relative
        self.lines = source.splitlines()
        #: True when the file lives in a protocol package (stricter rules).
        self.protocol = protocol
        self.violations: List[LintViolation] = []

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            LintViolation(self.relative, getattr(node, "lineno", 0), rule, message)
        )

    # -- determinism --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None and not _allowed(self.lines, node.lineno):
            tail = tuple(dotted.split(".")[-2:])
            if len(tail) == 2 and tail in _WALLCLOCK_CALLS:
                self._report(
                    node,
                    "wallclock",
                    f"{dotted}() reads the wall clock; use the virtual clock "
                    "(compute is measured through repro.obs.timing.Stopwatch)",
                )
            elif dotted == "print" and self.protocol:
                self._report(
                    node,
                    "no-print",
                    "print() in a protocol package; report through the "
                    "observability layer (metrics / trace instants) instead",
                )
            elif tail[-1] in _ADHOC_TIMING_CALLS and self.protocol:
                self._report(
                    node,
                    "adhoc-timing",
                    f"{dotted}() is an ad-hoc timer; measure through "
                    "repro.obs.timing.Stopwatch so the duration lands in the "
                    "metrics registry",
                )
            elif tail[0] == "random" and tail[1] != "Random":
                self._report(
                    node,
                    "unseeded-random",
                    f"{dotted}() draws from the shared unseeded generator; "
                    "use an explicitly seeded random.Random(seed)",
                )
            elif tail[-1] == "Random" and not node.args and not node.keywords:
                self._report(
                    node,
                    "unseeded-random",
                    f"{dotted}() without a seed is nondeterministic; pass one",
                )
        self.generic_visit(node)

    # -- bare asserts -------------------------------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        if self.protocol and not _allowed(self.lines, node.lineno):
            self._report(
                node,
                "bare-assert",
                "assert vanishes under python -O; raise ProtocolInvariantError "
                "(or a specific FidesError) instead",
            )
        self.generic_visit(node)


def _is_protocol_path(relative: Path) -> bool:
    return bool(relative.parts) and relative.parts[0] in PROTOCOL_PACKAGES


def lint_tree(root: Path) -> List[LintViolation]:
    """Lint every ``*.py`` under ``root``; returns all violations, sorted."""
    root = root.resolve()
    violations: List[LintViolation] = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            violations.append(
                LintViolation(str(relative), exc.lineno or 0, "syntax", str(exc.msg))
            )
            continue
        checker = _FileChecker(
            path, str(relative), source, protocol=_is_protocol_path(relative)
        )
        checker.visit(tree)
        violations.extend(checker.violations)
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def default_root() -> Path:
    """``src/repro`` as located relative to this module file."""
    return Path(__file__).resolve().parent.parent


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.lint",
        description="Determinism / bare-assert lint for src/repro.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package tree to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit violations as JSON on stdout"
    )
    args = parser.parse_args(argv)
    root = args.root if args.root is not None else default_root()
    violations = lint_tree(root)
    if args.json:
        print(
            json.dumps(
                [violation.__dict__ for violation in violations], indent=2
            )
        )
    else:
        for violation in violations:
            print(violation)
        print(
            f"repro.check.lint: {len(violations)} violation(s) in {root}"
            if violations
            else f"repro.check.lint: clean ({root})"
        )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
