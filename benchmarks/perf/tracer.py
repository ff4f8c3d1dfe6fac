"""Layer-boundary spans recorded from outside the program.

``Tracer.install()`` wraps every public function, and every public method plus
``__init__``, *defined in* each ``repro.*`` module (``check``, ``bench``,
``obs``, ``faultsim`` and ``api`` excluded) and rebinds the wrappers in every
loaded ``repro.*`` namespace that holds the original by name.  Nothing under
``src/`` changes; ``uninstall()`` puts every original back.

A layer is a module (for the ``common``, ``crypto``, ``core`` and ``recovery``
packages) or a whole package (everything else); see :data:`LAYERS`.  A wrapper
opens a span only when the call crosses a layer boundary -- the innermost open
span belongs to another layer.  Same-layer calls, such as
``canonical_encode``'s recursion, pass straight through, and private helpers
are never wrapped, so inner loops like ``_jac_add`` run at full speed.

For every span the tracer adds to two per-layer aggregates:

- ``self_s``: the span's duration minus the part covered by its child spans;
- ``calls``: boundary entries (these repeat exactly for a seed).

Self times partition the top-level spans exactly, so their sum is the traced
wall time minus only the harness's own glue between top-level calls.  Full
spans ``(name, layer, start, end, parent, op)`` are kept in memory for the
first :data:`KEEP_OPS` ops and exported as Chrome trace events.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from collections import defaultdict
from enum import Enum
from time import perf_counter
from types import FunctionType
from typing import Dict, List, Optional, Tuple

#: The named layers.  A module that appears later falls into ``other``.
LAYERS = (
    "common.encoding",
    "common.timestamps",
    "crypto.hashing",
    "crypto.merkle",
    "crypto.group",
    "crypto.schnorr",
    "crypto.cosi",
    "crypto.signing",
    "crypto.keys",
    "net",
    "client",
    "server",
    "txn",
    "storage",
    "ledger",
    "core.fides",
    "core.tfcommit",
    "core.scaled",
    "core.sequencing",
    "core.ordserv",
    "core.grouping",
    "recovery.statestore",
    "recovery.manager",
    "recovery.wire",
    "audit",
    "sim",
    "workload",
    "other",
)

#: Packages split into one layer per module.
SPLIT_PACKAGES = ("common", "crypto", "core", "recovery")

#: Packages whose own code is never wrapped: tooling, not the system under test.
EXCLUDED_PACKAGES = ("check", "bench", "obs", "faultsim", "api")

#: Ops whose full spans are kept for the Chrome trace.
KEEP_OPS = 3

_MARK = "__perf_wrapped__"


def layer_of(module_name: str) -> Optional[str]:
    """``repro.common.encoding`` -> ``common.encoding``; ``None`` = not traced."""
    parts = module_name.split(".")[1:]
    if not parts or parts[0] in EXCLUDED_PACKAGES:
        return None
    name = ".".join(parts[:2]) if parts[0] in SPLIT_PACKAGES else parts[0]
    # Interned so wrappers can compare layers by identity.
    return sys.intern(name if name in LAYERS else "other")


def _traced_modules() -> List:
    """Import and return every ``repro`` module whose code gets wrapped."""
    import repro

    found = []

    def walk(paths, prefix: str) -> None:
        for info in pkgutil.iter_modules(paths, prefix):
            if layer_of(info.name) is None:
                continue
            module = importlib.import_module(info.name)
            found.append(module)
            if info.ispkg:
                walk(module.__path__, info.name + ".")

    walk(repro.__path__, "repro.")
    return found


def _loaded_repro_modules() -> List:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Boundary-span recorder; at most one instance is installed at a time."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Kept spans: (name, layer, start, end, parent index or -1, op id).
        self.spans: List[Tuple[str, str, float, float, int, int]] = []
        #: Open frames, innermost last: [layer, child seconds, kept-span index].
        self._stack: List[list] = []
        self._active = False
        self._op = -1
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn: FunctionType, layer: str, name: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active or (stack and stack[-1][0] is layer):
                return fn(*args, **kwargs)
            keep = tracer._op < KEEP_OPS
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if parent is not None:
                    parent[1] += duration
                if keep:
                    spans[index] = (
                        name, layer, start, end, parent[2] if parent else -1, tracer._op
                    )

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, namespace, attr: str, original, replacement) -> None:
        setattr(namespace, attr, replacement)
        self._restore.append((namespace, attr, original))

    def install(self) -> None:
        """Wrap the traced modules' public callables (spans start inactive)."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        by_function: Dict[FunctionType, object] = {}
        for module in _traced_modules():
            layer = layer_of(module.__name__)
            short = module.__name__[len("repro."):]
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped where defined
                if isinstance(value, FunctionType):
                    if not attr.startswith("_"):
                        by_function[value] = self._wrap(value, layer, f"{short}.{attr}")
                elif isinstance(value, type) and not issubclass(value, Enum):
                    self._wrap_class(value, layer, short)
        # Rebind every by-name import of a wrapped function (including the
        # defining module's own global, which deferred imports read).
        for module in _loaded_repro_modules():
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in by_function:
                    self._patch(module, attr, value, by_function[value])

    def _wrap_class(self, cls: type, layer: str, short: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, FunctionType):
                self._patch(cls, attr, member, self._wrap(member, layer, name))
            elif isinstance(member, (staticmethod, classmethod)):
                rewrapped = type(member)(self._wrap(member.__func__, layer, name))
                self._patch(cls, attr, member, rewrapped)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        self._active = False
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    # -- recording --------------------------------------------------------------

    def begin(self, op: int) -> None:
        """Start recording spans; ``op`` tags them (the steady-state op index)."""
        self._op = op
        self._active = True

    def end(self) -> None:
        self._active = False

    @property
    def span_count(self) -> int:
        return sum(self.calls.values())

    def chrome_trace(self) -> Dict:
        """The kept spans as Chrome trace events (``ts``/``dur`` in microseconds)."""
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": op,
                "args": {"span": index, "parent": parent},
            }
            for index, (name, layer, start, end, parent, op) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def leftover_wrappers() -> List[str]:
    """Every ``repro.*`` module global or class attribute still holding a wrapper."""
    found = []
    for module in _loaded_repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in list(vars(value).items()):
                    target = getattr(member, "__func__", member)
                    if getattr(target, _MARK, False):
                        found.append(f"{module.__name__}.{value.__name__}.{name}")
    return found
