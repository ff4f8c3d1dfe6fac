"""Message-flow graph extraction and totality checking.

Statically collects every **send site** -- a ``send`` / ``broadcast`` /
``timed_broadcast`` / ``timed_exchange`` / ``_broadcast_phase`` call (or an
``Envelope(...)`` construction) carrying a literal ``MessageType.X`` -- and
the **dispatch table** of ``FidesServer.handle`` (the dict literal mapping
``MessageType.X`` to ``self._on_x``), then checks totality:

``unhandled-message``
    A type is sent somewhere but has no entry in the dispatch table: the
    receiver would raise ``ProtocolError`` on a message the sender considers
    part of the protocol.

``unsent-handler``
    A dispatch entry exists for a type nothing ever sends: dead handler code
    the tests cannot be exercising end to end.

``dead-message-type``
    A ``MessageType`` member is neither sent nor dispatched -- it is
    unreachable vocabulary.  (Replies never need members: the network layer
    is synchronous RPC, so every response travels as the handler's return
    payload, not as an envelope.)

Send sites whose message type is a *variable* (the generic forwarders inside
``timed_exchange`` and ``Network.broadcast``) carry no static type and are
excluded: every protocol phase names its type literally at the call site
that enters those forwarders, which is the site this pass records.

:func:`deployment_edges` projects the graph onto the three deployments
(classic, scaled, 2PC) by the modules each one drives, giving the golden
edge sets the flow-graph test asserts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.check.static.model import (
    Finding,
    SourceTree,
    call_message_types,
    call_name,
)

#: Callee names that put a ``MessageType`` on the wire.
SEND_CALLEES = (
    "send",
    "broadcast",
    "timed_broadcast",
    "timed_exchange",
    "_broadcast_phase",
    "Envelope",
)

#: Modules each deployment drives (path prefixes relative to the root).
#: The client, auditor, and recovery manager run against every deployment;
#: the coordinator module is what distinguishes them; the shared round driver
#: and the view-change protocol serve all three.
DEPLOYMENT_MODULES: Dict[str, Tuple[str, ...]] = {
    "classic": (
        "client/",
        "audit/",
        "recovery/",
        "core/rounds.py",
        "core/tfcommit.py",
        "core/viewchange.py",
    ),
    "scaled": (
        "client/",
        "audit/",
        "recovery/",
        "core/rounds.py",
        "core/tfcommit.py",
        "core/viewchange.py",
        "core/scaled.py",
        "core/sequencing.py",
    ),
    "twopc": (
        "client/",
        "audit/",
        "recovery/",
        "core/rounds.py",
        "core/twopc.py",
        "core/viewchange.py",
    ),
}


@dataclass(frozen=True)
class SendSite:
    """One static occurrence of a message type entering the network layer."""

    path: str
    line: int
    callee: str
    message_type: str


@dataclass
class FlowGraph:
    """The whole-program message-flow graph."""

    #: Every static send site, in (path, line) order.
    send_sites: List[SendSite] = field(default_factory=list)
    #: Dispatch table: message type name -> handler method name.
    handlers: Dict[str, str] = field(default_factory=dict)
    #: Where the dispatch table lives: (path, line).
    dispatch_site: Optional[Tuple[str, int]] = None
    #: Every ``MessageType`` member: name -> definition line.
    message_types: Dict[str, int] = field(default_factory=dict)
    #: Path of the module defining ``MessageType``.
    message_module: str = ""

    def sent_types(self) -> Set[str]:
        return {site.message_type for site in self.send_sites}

    def edges(self) -> Set[Tuple[str, str]]:
        """Every (message type, handler) pair realized by some send site."""
        sent = self.sent_types()
        return {
            (name, handler)
            for name, handler in self.handlers.items()
            if name in sent
        }


def extract_flow_graph(tree: SourceTree) -> FlowGraph:
    graph = FlowGraph()
    for relative, module in tree.modules.items():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and call_name(node) in SEND_CALLEES:
                for type_name in call_message_types(node):
                    graph.send_sites.append(
                        SendSite(relative, node.lineno, call_name(node), type_name)
                    )
            elif isinstance(node, ast.ClassDef) and node.name == "MessageType":
                graph.message_module = relative
                for item in node.body:
                    if isinstance(item, ast.Assign):
                        for target in item.targets:
                            if isinstance(target, ast.Name):
                                graph.message_types[target.id] = item.lineno
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "handle":
                    _extract_dispatch(graph, relative, node)
    graph.send_sites.sort(key=lambda site: (site.path, site.line, site.message_type))
    return graph


def _extract_dispatch(graph: FlowGraph, relative: str, func: ast.AST) -> None:
    """Pull ``{MessageType.X: self._on_x, ...}`` out of a ``handle`` method."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Dict):
            continue
        entries: Dict[str, str] = {}
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Attribute)
                and isinstance(key.value, ast.Name)
                and key.value.id == "MessageType"
                and isinstance(value, ast.Attribute)
            ):
                entries[key.attr] = value.attr
        if entries:
            graph.handlers.update(entries)
            graph.dispatch_site = (relative, node.lineno)


def deployment_edges(graph: FlowGraph, deployment: str) -> Set[Tuple[str, str]]:
    """The (message type, handler) edges one deployment's modules realize."""
    prefixes = DEPLOYMENT_MODULES[deployment]
    types = {
        site.message_type
        for site in graph.send_sites
        if any(
            site.path == prefix or site.path.startswith(prefix)
            for prefix in prefixes
        )
    }
    return {
        (name, handler)
        for name, handler in graph.handlers.items()
        if name in types
    }


def format_edges(edges: Set[Tuple[str, str]]) -> List[str]:
    """Render an edge set for readable test diffs."""
    return [f"{name} -> {handler}" for name, handler in sorted(edges)]


def flow_findings(tree: SourceTree) -> List[Finding]:
    """Run the totality checks; returns findings (not yet suppressed)."""
    graph = extract_flow_graph(tree)
    findings: List[Finding] = list(tree.syntax_errors)
    sent = graph.sent_types()
    handled = set(graph.handlers)

    first_site: Dict[str, SendSite] = {}
    for site in graph.send_sites:
        first_site.setdefault(site.message_type, site)

    for type_name in sorted(sent - handled):
        site = first_site[type_name]
        findings.append(
            Finding(
                "flow",
                "unhandled-message",
                site.path,
                site.line,
                "",
                f"MessageType.{type_name} is sent here but has no entry in the "
                "server dispatch table; receivers will raise ProtocolError",
            )
        )
    dispatch_path, dispatch_line = graph.dispatch_site or ("", 0)
    for type_name in sorted(handled - sent):
        findings.append(
            Finding(
                "flow",
                "unsent-handler",
                dispatch_path,
                dispatch_line,
                "",
                f"dispatch table handles MessageType.{type_name} but no send "
                "site ever emits it",
            )
        )
    for type_name, line in sorted(graph.message_types.items()):
        if type_name not in sent and type_name not in handled:
            findings.append(
                Finding(
                    "flow",
                    "dead-message-type",
                    graph.message_module,
                    line,
                    "",
                    f"MessageType.{type_name} is neither sent nor handled; "
                    "delete it or wire it (replies travel as handler return "
                    "payloads, not as envelopes)",
                )
            )
    return findings
