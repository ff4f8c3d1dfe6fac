"""Exception-effect checking for handler-reachable protocol code.

The delivery contract: :meth:`repro.net.network.Network.send` invokes the
recipient's ``handle``, and whatever escapes it crashes the *sender's* round
rather than surfacing as a protocol outcome.  Only the :class:`FidesError`
hierarchy is part of that contract (``ProtocolError`` refusals,
``UnreachableError`` turned into refusals, ``ProtocolInvariantError``
panics); builtin exceptions escaping mean an unplanned crash.  Two rules:

``broad-except``
    ``except Exception`` / ``except BaseException`` / bare ``except`` in the
    protocol packages masks programming bugs (and swallowed
    ``ProtocolInvariantError`` panics).  Narrow it to the errors the site
    expects.

``escaping-raise``
    An explicit ``raise`` of a builtin exception in a function reachable
    from a message handler -- ``handle`` and the ``_on_<message type>``
    methods it finds by name -- (name-based closure over the call graph,
    ``self.`` calls resolved class-aware) and not caught within the raising
    function.  ``FidesError`` subclasses are the protocol's error surface
    and allowed; ``NotImplementedError`` marks abstract interfaces and is
    exempt.

What a reply may lack is no longer guessed from source text: replies are
declared forms read through :func:`repro.net.forms.read_reply`, which keeps
answers and refusals apart, so there is no response map to subscript.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set

from repro.check.static.model import PROTOCOL_PACKAGES, Finding, FunctionDecl, SourceTree

#: Builtin exceptions whose escape from a handler is an unplanned crash.
BUILTIN_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ValueError", "KeyError", "TypeError",
    "IndexError", "LookupError", "AttributeError", "RuntimeError",
    "ArithmeticError", "ZeroDivisionError", "OverflowError", "StopIteration",
    "AssertionError", "OSError",
})


def effect_findings(tree: SourceTree) -> List[Finding]:
    return _broad_excepts(tree) + _escaping_raises(tree)


# -- broad except ------------------------------------------------------------------


def _broad_excepts(tree: SourceTree) -> List[Finding]:
    findings: List[Finding] = []
    for relative in sorted(tree.modules):
        module = tree.modules[relative]
        if module.package not in PROTOCOL_PACKAGES:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _handler_names(node.type)
            if node.type is None or names & {"Exception", "BaseException"}:
                caught = "bare except" if node.type is None else (
                    "except " + "/".join(sorted(names & {"Exception", "BaseException"}))
                )
                findings.append(
                    Finding(
                        "effects",
                        "broad-except",
                        relative,
                        node.lineno,
                        "",
                        f"{caught} in a protocol package masks programming "
                        "bugs; catch the specific FidesError subclasses the "
                        "site expects",
                    )
                )
    return findings


def _handler_names(type_expr: Optional[ast.AST]) -> Set[str]:
    if type_expr is None:
        return set()
    exprs = type_expr.elts if isinstance(type_expr, ast.Tuple) else [type_expr]
    names = set()
    for expr in exprs:
        if isinstance(expr, ast.Attribute):
            names.add(expr.attr)
        elif isinstance(expr, ast.Name):
            names.add(expr.id)
    return names


# -- escaping raises ---------------------------------------------------------------


def _dispatch_root_decls(tree: SourceTree) -> List[FunctionDecl]:
    """Every ``handle`` method and the ``_on_*`` methods beside it, which it
    dispatches to by name."""
    return [
        decl
        for classes in tree.classes.values()
        for cls in classes
        if "handle" in cls.methods
        for name, decl in cls.methods.items()
        if name == "handle" or name.startswith("_on_")
    ]


def _reachable_decls(tree: SourceTree) -> Set[int]:
    """ids of function nodes reachable from the dispatch roots (name-based)."""
    queue = _dispatch_root_decls(tree)
    reachable: Set[int] = set()
    while queue:
        decl = queue.pop()
        if id(decl.node) in reachable:
            continue
        reachable.add(id(decl.node))
        for node in ast.walk(decl.node):
            if isinstance(node, ast.Call):
                queue.extend(tree.resolve_call(node, decl.class_name))
    return reachable


def _escaping_raises(tree: SourceTree) -> List[Finding]:
    reachable = _reachable_decls(tree)
    findings: List[Finding] = []
    for name in sorted(tree.functions):
        for decl in tree.functions[name]:
            if decl.module.package not in PROTOCOL_PACKAGES:
                continue
            if id(decl.node) not in reachable:
                continue
            findings.extend(_check_raises(decl))
    return findings


def _check_raises(decl: FunctionDecl) -> List[Finding]:
    findings: List[Finding] = []

    def caught_inside(raise_node: ast.Raise, raised: str) -> bool:
        for node in ast.walk(decl.node):
            if not isinstance(node, ast.Try):
                continue
            if not _contains(node.body, raise_node):
                continue
            for handler in node.handlers:
                names = _handler_names(handler.type)
                if handler.type is None or raised in names or names & {
                    "Exception", "BaseException"
                }:
                    return True
        return False

    for node in ast.walk(decl.node):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        raised = None
        if isinstance(exc, ast.Attribute):
            raised = exc.attr
        elif isinstance(exc, ast.Name):
            raised = exc.id
        if raised is None or raised not in BUILTIN_EXCEPTIONS:
            continue
        if caught_inside(node, raised):
            continue
        findings.append(
            Finding(
                "effects",
                "escaping-raise",
                decl.module.relative,
                node.lineno,
                decl.qualname,
                f"handler-reachable function raises builtin {raised}; raise "
                "a FidesError subclass so the failure stays inside the "
                "protocol's error contract",
            )
        )
    return findings


def _contains(body: Sequence[ast.AST], target: ast.AST) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if node is target:
                return True
    return False
