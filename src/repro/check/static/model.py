"""Shared AST model for the static protocol analyzer.

Everything in :mod:`repro.check.static` works on this layer:

- :class:`SourceTree` parses every module under the analyzed root exactly
  once and indexes functions, classes, and class hierarchies **by name** so
  the analyses can resolve calls without importing the package (the CI job
  checks out sources only).
- :class:`Finding` is the one result type every analysis emits; its
  :attr:`Finding.key` deliberately excludes line numbers so baseline entries
  survive pure line drift.

Call resolution is deliberately optimistic: ``self.m(...)`` resolves through
the enclosing class and its (name-matched) bases, ``f(...)`` to every
module-level ``f`` plus constructors of classes named ``f``, and
``obj.m(...)`` to every function named ``m`` anywhere in the tree.  That
over-approximates reachability -- safe for the escape checker (it may flag
too much, never too little) -- while the class-aware ``self.`` rule keeps
same-named methods of sibling coordinator classes from masking each other.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Trailing-comment marker suppressing a finding on its line.  Bare form
#: (``# static: allow``) suppresses every rule; ``# static: allow[rule]``
#: (comma-separable) suppresses only the named rule(s).
ALLOW_MARKER = "# static: allow"

#: Packages whose runtime code is a protocol hot path: the stricter
#: determinism rules and the exception-effect rules apply to them.
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
    message: str  # line-number free: baseline keys must survive drift

    @property
    def key(self) -> str:
        """Baseline identity, stable across pure line-number churn."""
        return f"{self.rule}::{self.path}::{self.function}::{self.message}"

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
            "key": self.key,
        }


def default_root() -> Path:
    """``src/repro`` as located relative to this module file."""
    return Path(__file__).resolve().parent.parent.parent


@dataclass
class FunctionDecl:
    """One function or method definition, with its lexical class context."""

    name: str
    qualname: str
    module: "SourceModule"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None


@dataclass
class ClassDecl:
    name: str
    module: "SourceModule"
    node: ast.ClassDef
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionDecl]


class SourceModule:
    """One parsed source file."""

    def __init__(self, path: Path, relative: str, source: str) -> None:
        self.path = path
        self.relative = relative
        self.source = source
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
    """Every module under one root, parsed once and indexed by name."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.modules: Dict[str, SourceModule] = {}
        self.functions: Dict[str, List[FunctionDecl]] = {}
        self.classes: Dict[str, List[ClassDecl]] = {}
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
            self._collect(module)

    # -- declaration indexing ---------------------------------------------------

    def _collect(self, module: SourceModule) -> None:
        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    decl = FunctionDecl(child.name, qualname, module, child, None)
                    self.functions.setdefault(child.name, []).append(decl)
                    visit(child, f"{qualname}.")
                elif isinstance(child, ast.ClassDef):
                    bases = tuple(
                        name for name in (_terminal_name(base) for base in child.bases)
                        if name is not None
                    )
                    methods: Dict[str, FunctionDecl] = {}
                    for item in child.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            qualname = f"{prefix}{child.name}.{item.name}"
                            decl = FunctionDecl(
                                item.name, qualname, module, item, child.name
                            )
                            methods[item.name] = decl
                            self.functions.setdefault(item.name, []).append(decl)
                            visit(item, f"{qualname}.")
                    self.classes.setdefault(child.name, []).append(
                        ClassDecl(child.name, module, child, bases, methods)
                    )
                else:
                    visit(child, prefix)

        visit(module.tree, "")

    # -- name-based call resolution ---------------------------------------------

    def resolve_method(self, class_name: str, method: str) -> List[FunctionDecl]:
        """Methods named ``method`` on ``class_name`` or its named bases.

        A class that defines the method shadows its bases (those bases are
        not searched further); unrelated same-named classes all contribute.
        """
        found: List[FunctionDecl] = []
        seen = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for decl in self.classes.get(current, []):
                if method in decl.methods:
                    found.append(decl.methods[method])
                else:
                    queue.extend(decl.bases)
        return found

    def resolve_call(
        self, call: ast.Call, enclosing_class: Optional[str] = None
    ) -> List[FunctionDecl]:
        """Every declaration a call might target (optimistic, name-based)."""
        func = call.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" and enclosing_class:
                decls = self.resolve_method(enclosing_class, name)
                if decls:
                    return decls
            if (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "super"
                and enclosing_class
            ):
                decls = []
                for cls in self.classes.get(enclosing_class, []):
                    for base_name in cls.bases:
                        decls.extend(self.resolve_method(base_name, name))
                if decls:
                    return decls
            return list(self.functions.get(name, []))
        if isinstance(func, ast.Name):
            decls = list(self.functions.get(func.id, []))
            for cls in self.classes.get(func.id, []):
                for ctor in ("__init__", "__post_init__"):
                    if ctor in cls.methods:
                        decls.append(cls.methods[ctor])
            return decls
        return []


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost name of a ``Name`` / ``a.b.c`` chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
