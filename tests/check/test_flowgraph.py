"""Golden message-flow graph: the exact send -> handler edge sets.

These are the protocol's communication diagrams (Figures 6 and 7 plus the
failover, recovery, and audit traffic) extracted from the *implementation*.
A new phase, a renamed handler, or a dropped send site changes an edge set
and must be acknowledged here; ``format_edges`` keeps the failure diff
readable.
"""

from __future__ import annotations

from repro.check.static import default_root
from repro.check.static.flowgraph import (
    deployment_edges,
    extract_flow_graph,
    format_edges,
)
from repro.check.static.model import SourceTree
from repro.net.message import MessageType

#: Traffic every deployment shares: the client's transaction life-cycle,
#: the audit protocol, crash recovery, and coordinator failover.
COMMON_EDGES = [
    "AUDIT_LOG_REQUEST -> _on_audit_log_request",
    "AUDIT_VO_REQUEST -> _on_audit_vo_request",
    "BEGIN_TRANSACTION -> _on_begin",
    "END_TRANSACTION -> _on_end_transaction",
    "NEW_VIEW -> _on_new_view",
    "READ -> _on_read",
    "ROUND_FAILED -> _on_round_failed",
    "STATE_REQUEST -> _on_state_request",
    "VIEW_CHANGE -> _on_view_change",
    "WRITE -> _on_write",
]

#: TFCommit's phases (Figure 7).  The cohort's vote and response halves are
#: handler return payloads, so only the coordinator-initiated phases appear.
TFCOMMIT_EDGES = [
    "CHALLENGE -> _on_challenge",
    "DECISION -> _on_decision",
    "GET_VOTE -> _on_get_vote",
]

CLASSIC_EDGES = sorted(COMMON_EDGES + TFCOMMIT_EDGES)

SCALED_EDGES = sorted(
    COMMON_EDGES
    + TFCOMMIT_EDGES
    + [
        "EPOCH_ANCHOR -> _on_epoch_anchor",
        "ORDERED_BLOCK -> _on_ordered_block",
    ]
)

TWOPC_EDGES = sorted(
    COMMON_EDGES
    + [
        "COMMIT_DECISION -> _on_2pc_decision",
        "PREPARE -> _on_prepare",
    ]
)


def graph():
    return extract_flow_graph(SourceTree(default_root()))


class TestGoldenEdgeSets:
    def test_classic_deployment_edges(self):
        assert format_edges(deployment_edges(graph(), "classic")) == CLASSIC_EDGES

    def test_scaled_deployment_edges(self):
        assert format_edges(deployment_edges(graph(), "scaled")) == SCALED_EDGES

    def test_twopc_deployment_edges(self):
        assert format_edges(deployment_edges(graph(), "twopc")) == TWOPC_EDGES

    def test_scaled_is_classic_plus_ordering_service(self):
        g = graph()
        extra = deployment_edges(g, "scaled") - deployment_edges(g, "classic")
        assert format_edges(extra) == [
            "EPOCH_ANCHOR -> _on_epoch_anchor",
            "ORDERED_BLOCK -> _on_ordered_block",
        ]

    def test_deployments_cover_every_message_type(self):
        g = graph()
        union = {
            name
            for deployment in ("classic", "scaled", "twopc")
            for name, _ in deployment_edges(g, deployment)
        }
        assert union == {member.name for member in MessageType}


class TestGraphShape:
    def test_dispatch_table_covers_exactly_the_enum(self):
        g = graph()
        assert set(g.handlers) == {member.name for member in MessageType}

    def test_every_member_is_sent_somewhere(self):
        g = graph()
        assert g.sent_types() == {member.name for member in MessageType}

    def test_dispatch_site_is_the_server_front_end(self):
        path, line = graph().dispatch_site
        assert path == "server/server.py"
        assert line > 0
