"""Determinism and hygiene rules ruff cannot express.

Per-file rules (no cross-module reasoning), kept beside the exception-effect
analysis so there is one findings schema, one ``# static: allow`` marker, one
baseline and one CLI:

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
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.check.static.model import PROTOCOL_PACKAGES, Finding, SourceTree

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


def _walk(node: ast.AST, qualname: str = "") -> Iterator[Tuple[ast.AST, str]]:
    """Every node below ``node`` with the qualified name of its function."""
    for child in ast.iter_child_nodes(node):
        inner = qualname
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{qualname}.{child.name}" if qualname else child.name
        yield child, inner
        yield from _walk(child, inner)


def _call_rule(node: ast.Call, protocol: bool) -> Optional[Tuple[str, str]]:
    """The ``(rule, message)`` a call violates, if any."""
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    tail = tuple(dotted.split(".")[-2:])
    if len(tail) == 2 and tail in _WALLCLOCK_CALLS:
        return "wallclock", (
            f"{dotted}() reads the wall clock; use the virtual clock "
            "(compute is measured through repro.obs.timing.Stopwatch)"
        )
    if dotted == "print" and protocol:
        return "no-print", (
            "print() in a protocol package; report through the "
            "observability layer (metrics / trace instants) instead"
        )
    if tail[-1] in _ADHOC_TIMING_CALLS and protocol:
        return "adhoc-timing", (
            f"{dotted}() is an ad-hoc timer; measure through "
            "repro.obs.timing.Stopwatch so the duration lands in the metrics registry"
        )
    if tail[0] == "random" and tail[1] != "Random":
        return "unseeded-random", (
            f"{dotted}() draws from the shared unseeded generator; "
            "use an explicitly seeded random.Random(seed)"
        )
    if tail[-1] == "Random" and not node.args and not node.keywords:
        return "unseeded-random", f"{dotted}() without a seed is nondeterministic; pass one"
    return None


def determinism_findings(tree: SourceTree) -> List[Finding]:
    """Run the per-file rules; returns findings (not yet suppressed)."""
    findings: List[Finding] = []
    for relative, module in tree.modules.items():
        protocol = module.package in PROTOCOL_PACKAGES
        for node, function in _walk(module.tree):
            verdict = None
            if isinstance(node, ast.Call):
                verdict = _call_rule(node, protocol)
            elif isinstance(node, ast.Assert) and protocol:
                verdict = "bare-assert", (
                    "assert vanishes under python -O; raise ProtocolInvariantError "
                    "(or a specific FidesError) instead"
                )
            if verdict is not None:
                findings.append(
                    Finding("determinism", verdict[0], relative, node.lineno, function, verdict[1])
                )
    return findings
