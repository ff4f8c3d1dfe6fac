"""The analyzer's rules: one walk over each module's AST, one check per node.

Every rule looks at a single node (and the module's imports); none reasons
across functions or modules.  Exception rules, over the protocol packages
(analysis ``"effects"``) -- whatever escapes a handler crashes the *sender's*
round, so only the :class:`~repro.common.errors.FidesError` hierarchy may
cross that boundary:

``broad-except``
    ``except Exception`` / ``except BaseException`` / bare ``except`` masks
    programming bugs (and swallowed ``ProtocolInvariantError`` panics).
    Narrow it to the errors the site expects.

``builtin-raise``
    A ``raise`` of a builtin exception anywhere in a protocol package.  A
    ``FidesError`` subclass is the protocol's error surface; an argument
    check raises ``ConfigurationError``.  ``NotImplementedError`` marks
    abstract interfaces and is exempt.

Determinism and hygiene rules ruff cannot express (analysis
``"determinism"``):

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

A call is matched by its dotted name after the names a module binds with
``from time|datetime|random import ...`` are expanded, so ``time()`` after
``from time import time`` is ``time.time()``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.check.static.model import PROTOCOL_PACKAGES, Finding, SourceTree

#: Builtin exceptions whose escape from a handler is an unplanned crash.
BUILTIN_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ValueError", "KeyError", "TypeError",
    "IndexError", "LookupError", "AttributeError", "RuntimeError",
    "ArithmeticError", "ZeroDivisionError", "OverflowError", "StopIteration",
    "AssertionError", "OSError",
})

_BROAD = {"Exception", "BaseException"}

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

#: Modules whose ``from ... import`` names are expanded before matching calls.
_EXPANDED_MODULES = {"time", "datetime", "random"}


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


def _imported_names(tree: ast.AST) -> Dict[str, str]:
    """``local name -> module.name`` for each ``from time|datetime|random import``."""
    return {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in _EXPANDED_MODULES
        for alias in node.names
    }


def _walk(node: ast.AST, qualname: str = "") -> Iterator[Tuple[ast.AST, str]]:
    """Every node below ``node`` with the qualified name of its function."""
    for child in ast.iter_child_nodes(node):
        inner = qualname
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{qualname}.{child.name}" if qualname else child.name
        yield child, inner
        yield from _walk(child, inner)


def _call_rule(
    node: ast.Call, protocol: bool, imported: Dict[str, str]
) -> Optional[Tuple[str, str]]:
    """The ``(rule, message)`` a call violates, if any."""
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    head, dot, rest = dotted.partition(".")
    resolved = imported.get(head, head) + dot + rest
    tail = tuple(resolved.split(".")[-2:])
    if tail in _WALLCLOCK_CALLS:
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
    if len(tail) == 2 and tail[0] == "random" and tail[1] != "Random":
        return "unseeded-random", (
            f"{dotted}() draws from the shared unseeded generator; "
            "use an explicitly seeded random.Random(seed)"
        )
    if tail[-1] == "Random" and not node.args and not node.keywords:
        return "unseeded-random", f"{dotted}() without a seed is nondeterministic; pass one"
    return None


def _names(expr: Optional[ast.AST]) -> Set[str]:
    """The terminal names of an exception expression (or a tuple of them)."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    exprs = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    names = set()
    for item in exprs:
        if isinstance(item, ast.Attribute):
            names.add(item.attr)
        elif isinstance(item, ast.Name):
            names.add(item.id)
    return names


def _exception_rule(node: ast.AST) -> Optional[Tuple[str, str]]:
    """The ``(rule, message)`` an ``except`` clause or a ``raise`` violates."""
    if isinstance(node, ast.ExceptHandler):
        broad = _names(node.type) & _BROAD
        if node.type is not None and not broad:
            return None
        caught = "except " + "/".join(sorted(broad)) if broad else "bare except"
        return "broad-except", (
            f"{caught} in a protocol package masks programming bugs; catch "
            "the specific FidesError subclasses the site expects"
        )
    if isinstance(node, ast.Raise):
        raised = _names(node.exc) & BUILTIN_EXCEPTIONS
        if raised:
            return "builtin-raise", (
                f"raises builtin {', '.join(sorted(raised))}; raise a FidesError subclass so "
                "the failure stays inside the protocol's error contract"
            )
    return None


def rule_findings(tree: SourceTree) -> List[Finding]:
    """Run every rule over every module; returns findings (not yet suppressed)."""
    findings: List[Finding] = []
    for relative, module in tree.modules.items():
        protocol = module.package in PROTOCOL_PACKAGES
        imported = _imported_names(module.tree)
        for node, function in _walk(module.tree):
            analysis, verdict = "determinism", None
            if isinstance(node, ast.Call):
                verdict = _call_rule(node, protocol, imported)
            elif isinstance(node, ast.Assert) and protocol:
                verdict = "bare-assert", (
                    "assert vanishes under python -O; raise ProtocolInvariantError "
                    "(or a specific FidesError) instead"
                )
            elif protocol:
                analysis, verdict = "effects", _exception_rule(node)
            if verdict is not None:
                findings.append(
                    Finding(analysis, verdict[0], relative, node.lineno, function, verdict[1])
                )
    return findings
