"""Exception-effect checking for handler-reachable protocol code.

The delivery contract: :meth:`repro.net.network.Network.send` invokes the
recipient's ``handle``, and whatever escapes it crashes the *sender's* round
rather than surfacing as a protocol outcome.  Only the :class:`FidesError`
hierarchy is part of that contract (``ProtocolError`` refusals,
``UnreachableError`` synthesized as timeouts, ``ProtocolInvariantError``
panics); builtin exceptions escaping mean an unplanned crash -- the PR 7
2PC ``KeyError`` bug class.  Four rules:

``broad-except``
    ``except Exception`` / ``except BaseException`` / bare ``except`` in the
    protocol packages masks programming bugs (and swallowed
    ``ProtocolInvariantError`` panics).  Narrow it to the errors the site
    expects.

``unguarded-subscript``
    ``resp["key"]`` on a **response map** -- the dict returned by
    ``timed_broadcast`` / ``timed_exchange`` / ``_broadcast_phase`` -- or on
    values iterated from one, without a prior guard.  Crashed recipients
    yield a synthesized response carrying only ``{server_id, ok,
    unreachable, timed_out, reason, compute_time}`` (:data:`SAFE_KEYS`), so
    any other key KeyErrors exactly when a cohort dies mid-round.  A guard
    is a statically-live ``if`` between the map's binding and the subscript
    whose test reads the map (or a value derived from it) and whose body
    exits the scope (return/raise/continue/break) -- the shape of the
    phase-1 unreachable checks.

``unguarded-minmax``
    ``max()`` / ``min()`` over a response map without ``default=``:
    ``ValueError`` on the empty map a fully-crashed cohort set produces.

``escaping-raise``
    An explicit ``raise`` of a builtin exception in a function reachable
    from the dispatch table (name-based closure over the call graph,
    ``self.`` calls resolved class-aware) and not caught within the raising
    function.  ``FidesError`` subclasses are the protocol's error surface
    and allowed; ``NotImplementedError`` marks abstract interfaces and is
    exempt.

The response-map and raise rules both run under mutation folding, so the
``pr7-2pc-vote-keyerror`` self-test works by statically killing the phase-1
guard: the tally subscripts become unguarded, exactly the shipped bug.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check.static.model import (
    PROTOCOL_PACKAGES,
    Finding,
    FunctionDecl,
    SourceTree,
    call_name,
    fold_test,
    iter_live,
)

#: Calls that return a response map (server id -> response dict).
RESPONSE_SOURCES = frozenset(
    {"timed_broadcast", "timed_exchange", "_broadcast_phase", "_equivocate_challenge"}
)

#: Keys present on *every* response, including the synthesized unreachable
#: one (see ``timed_exchange``); subscripting them can never KeyError.
SAFE_KEYS = frozenset(
    {"ok", "server_id", "reason", "compute_time", "unreachable", "timed_out"}
)

#: Builtin exceptions whose escape from a handler is an unplanned crash.
BUILTIN_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ValueError", "KeyError", "TypeError",
    "IndexError", "LookupError", "AttributeError", "RuntimeError",
    "ArithmeticError", "ZeroDivisionError", "OverflowError", "StopIteration",
    "AssertionError", "OSError",
})


def effect_findings(
    tree: SourceTree, enabled: FrozenSet[str] = frozenset()
) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_broad_excepts(tree, enabled))
    findings.extend(_response_map_rules(tree, enabled))
    findings.extend(_escaping_raises(tree, enabled))
    return findings


# -- broad except ------------------------------------------------------------------


def _broad_excepts(tree: SourceTree, enabled: FrozenSet[str]) -> List[Finding]:
    findings: List[Finding] = []
    for relative in sorted(tree.modules):
        module = tree.modules[relative]
        if module.package not in PROTOCOL_PACKAGES:
            continue
        for node in iter_live([module.tree], enabled):
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


# -- response-map hazards ----------------------------------------------------------


class _RespTracker:
    """Per-function dataflow from response-map bindings to uses."""

    def __init__(self) -> None:
        #: tracked name -> (root response map name, binding line)
        self.tracked: Dict[str, Tuple[str, int]] = {}
        #: root name -> guard lines
        self.guards: Dict[str, List[int]] = {}

    def bind_root(self, name: str, line: int) -> None:
        self.tracked[name] = (name, line)

    def derive(self, name: str, root: str, line: int) -> None:
        self.tracked[name] = (root, line)

    def root_of(self, name: str) -> Optional[str]:
        entry = self.tracked.get(name)
        return entry[0] if entry else None

    def names_in(self, expr: ast.AST) -> Set[str]:
        return {
            node.id
            for node in ast.walk(expr)
            if isinstance(node, ast.Name) and node.id in self.tracked
        }

    def add_guard(self, roots: Set[str], line: int) -> None:
        for root in roots:
            self.guards.setdefault(root, []).append(line)

    def guarded(self, root: str, binding_line: int, use_line: int) -> bool:
        return any(
            binding_line < guard <= use_line for guard in self.guards.get(root, [])
        )


def _response_map_rules(tree: SourceTree, enabled: FrozenSet[str]) -> List[Finding]:
    findings: List[Finding] = []
    for name in sorted(tree.functions):
        for decl in tree.functions[name]:
            if decl.module.package not in PROTOCOL_PACKAGES:
                continue
            findings.extend(_check_response_maps(decl, enabled))
    return findings


def _check_response_maps(
    decl: FunctionDecl, enabled: FrozenSet[str]
) -> List[Finding]:
    tracker = _RespTracker()
    findings: List[Finding] = []
    module = decl.module

    def exits_scope(body: Sequence[ast.AST]) -> bool:
        return any(
            isinstance(node, (ast.Return, ast.Raise, ast.Continue, ast.Break))
            for stmt in body
            for node in iter_live([stmt], enabled)
        )

    def handle_comprehension(node: ast.AST) -> None:
        for gen in node.generators:
            roots = tracker.names_in(gen.iter)
            if roots and isinstance(gen.target, ast.Name):
                root = tracker.root_of(next(iter(roots)))
                tracker.derive(gen.target.id, root, node.lineno)
            elif roots and isinstance(gen.target, ast.Tuple):
                root = tracker.root_of(next(iter(roots)))
                for element in gen.target.elts:
                    if isinstance(element, ast.Name):
                        tracker.derive(element.id, root, node.lineno)

    def check_subscript(node: ast.Subscript) -> None:
        base = node.value
        # votes[sid]["key"] -> treat the chain root as the tracked name.
        while isinstance(base, ast.Subscript):
            base = base.value
        if not isinstance(base, ast.Name):
            return
        root = tracker.root_of(base.id)
        if root is None:
            return
        key = node.slice
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return
        if key.value in SAFE_KEYS:
            return
        binding_line = tracker.tracked[base.id][1]
        root_binding_line = tracker.tracked[root][1] if root in tracker.tracked else binding_line
        if tracker.guarded(root, root_binding_line, node.lineno):
            return
        findings.append(
            Finding(
                "effects",
                "unguarded-subscript",
                module.relative,
                node.lineno,
                decl.qualname,
                f"subscript [{key.value!r}] on response map {root!r} has no "
                "preceding unreachable/refused guard; a crashed recipient's "
                "synthesized response KeyErrors here",
            )
        )

    def check_minmax(node: ast.Call) -> None:
        if call_name(node) not in ("max", "min"):
            return
        if any(kw.arg == "default" for kw in node.keywords):
            return
        if len(node.args) != 1:
            return
        if not tracker.names_in(node.args[0]):
            return
        findings.append(
            Finding(
                "effects",
                "unguarded-minmax",
                module.relative,
                node.lineno,
                decl.qualname,
                f"{call_name(node)}() over a response map without default=; "
                "ValueError when every recipient is unreachable",
            )
        )

    for node in iter_live(decl.node.body, enabled):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            source = call_name(node.value)
            if source in RESPONSE_SOURCES:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tracker.bind_root(target.id, node.lineno)
                continue
        if isinstance(node, ast.Assign):
            # Comprehension targets inside the value are local bindings, not
            # reads of a previously-tracked name with the same identifier.
            roots = tracker.names_in(node.value) - _comp_targets(node.value)
            if roots:
                root = tracker.root_of(sorted(roots)[0])
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tracker.derive(target.id, root, node.lineno)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            roots = tracker.names_in(node.iter)
            if roots:
                root = tracker.root_of(next(iter(roots)))
                targets = (
                    node.target.elts
                    if isinstance(node.target, ast.Tuple)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        tracker.derive(target.id, root, node.lineno)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            handle_comprehension(node)
        if isinstance(node, ast.If):
            test_roots = {
                tracker.root_of(name) for name in tracker.names_in(node.test)
            } - {None}
            if test_roots and fold_test(node.test, enabled) is not False:
                if exits_scope(node.body):
                    tracker.add_guard(test_roots, node.lineno)
        if isinstance(node, ast.Subscript):
            check_subscript(node)
        if isinstance(node, ast.Call):
            check_minmax(node)
    return findings


def _comp_targets(expr: ast.AST) -> Set[str]:
    """Names bound as comprehension targets anywhere inside ``expr``."""
    names: Set[str] = set()
    for node in ast.walk(expr):
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                targets = (
                    gen.target.elts
                    if isinstance(gen.target, ast.Tuple)
                    else [gen.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


# -- escaping raises ---------------------------------------------------------------


def _dispatch_root_decls(tree: SourceTree) -> List[FunctionDecl]:
    """The handler methods named in a ``handle`` dispatch table, plus ``handle``."""
    roots: List[FunctionDecl] = []
    for decls in tree.functions.values():
        for decl in decls:
            if decl.name != "handle":
                continue
            roots.append(decl)
            for node in ast.walk(decl.node):
                if isinstance(node, ast.Dict):
                    for value in node.values:
                        if isinstance(value, ast.Attribute):
                            if decl.class_name:
                                roots.extend(
                                    tree.resolve_method(decl.class_name, value.attr)
                                )
                            else:
                                roots.extend(tree.functions.get(value.attr, []))
    return roots


def _reachable_decls(
    tree: SourceTree, enabled: FrozenSet[str]
) -> Set[int]:
    """ids of function nodes reachable from the dispatch roots (name-based)."""
    queue = _dispatch_root_decls(tree)
    seen: Set[int] = set()
    reachable: Set[int] = set()
    while queue:
        decl = queue.pop()
        key = id(decl.node)
        if key in seen:
            continue
        seen.add(key)
        reachable.add(key)
        for node in iter_live(decl.node.body, enabled):
            if isinstance(node, ast.Call):
                queue.extend(tree.resolve_call(node, decl.class_name))
    return reachable


def _escaping_raises(tree: SourceTree, enabled: FrozenSet[str]) -> List[Finding]:
    reachable = _reachable_decls(tree, enabled)
    findings: List[Finding] = []
    for name in sorted(tree.functions):
        for decl in tree.functions[name]:
            if decl.module.package not in PROTOCOL_PACKAGES:
                continue
            if id(decl.node) not in reachable:
                continue
            findings.extend(_check_raises(decl, enabled))
    return findings


def _check_raises(decl: FunctionDecl, enabled: FrozenSet[str]) -> List[Finding]:
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

    for node in iter_live(decl.node.body, enabled):
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
