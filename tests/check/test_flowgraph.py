"""Golden message-flow graph: the exact send -> handler edge sets.

These are the protocol's communication diagrams (Figures 6 and 7 plus the
failover, recovery, and audit traffic) extracted from the *implementation*.
A new phase, a renamed handler, or a dropped send site changes an edge set
and must be acknowledged here; ``format_edges`` keeps the failure diff
readable.
"""

from __future__ import annotations

import pytest

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


# -- the flow graph as behaviour ------------------------------------------------------
#
# The same three edge sets, recorded from runs instead of projected from module
# paths: one scenario per deployment with a failed round, a crash and recovery,
# a failover and an audit, and the message types the network actually carried.

from repro.common.config import SystemConfig  # noqa: E402
from repro.common.errors import AuditError  # noqa: E402
from repro.core.fides import FidesSystem  # noqa: E402
from repro.core.scaled import ScaledFidesSystem  # noqa: E402
from repro.core.sequencing import sharded_sequencer  # noqa: E402
from repro.net.latency import ConstantLatency  # noqa: E402
from repro.server.faults import FaultPlan  # noqa: E402
from repro.txn.operations import ReadOp, WriteOp  # noqa: E402

#: What every deployment carries: the client's transaction life-cycle, the
#: abandoned round, crash recovery, coordinator failover, log collection.
COMMON_TRAFFIC = {
    "begin_transaction",
    "read",
    "write",
    "end_transaction",
    "round_failed",
    "state_request",
    "view_change",
    "new_view",
    "audit_log_request",
}

CLASSIC_TRAFFIC = COMMON_TRAFFIC | {"get_vote", "challenge", "decision", "audit_vo_request"}

#: The group coordinator publishes instead of broadcasting a decision.
SCALED_TRAFFIC = COMMON_TRAFFIC | {
    "get_vote",
    "challenge",
    "ordered_block",
    "epoch_anchor",
    "audit_vo_request",
}

#: The trusted baseline's unsigned logs give an audit nothing to select a
#: reference copy from, so it ends before any verification object is asked for.
TWOPC_TRAFFIC = COMMON_TRAFFIC | {"prepare", "commit_decision"}


def _deployment(kind: str) -> FidesSystem:
    config = SystemConfig(
        num_servers=4 if kind == "scaled" else 3,
        items_per_shard=8,
        txns_per_block=1,
        ops_per_txn=2,
        message_signing="hash",
        seed=7,
    )
    latency = ConstantLatency(0.0002)
    if kind == "scaled":
        return ScaledFidesSystem(config, latency=latency, sequencer=sharded_sequencer(2))
    return FidesSystem(config, protocol="2pc" if kind == "twopc" else "tfcommit", latency=latency)


def traffic(kind: str, cohort: str, leader: str) -> set:
    """Run one deployment through every kind of traffic it has; what it sent."""
    system = _deployment(kind)
    items = {server_id: system.shard_map.items_of(server_id) for server_id in system.server_ids}
    # A cohort dies mid-vote: the round fails and is abandoned, the cohort
    # restores its state and asks its peers for what it missed.
    system.inject_fault(cohort, [FaultPlan("crash", cohort, {"kind": "phase", "phases": ["vote"]})])
    failed = system.run_transaction([WriteOp(items[cohort][1], 2), WriteOp(items[leader][1], 2)])
    assert failed.status == "failed" and system.crashed_servers() == [cohort]
    assert system.recover_server(cohort).caught_up
    assert system.run_transaction([ReadOp(items[cohort][0]), WriteOp(items[cohort][0], 1)]).committed
    # The leader is deposed; its successor commits across both servers.
    system.fail_over(leader)
    assert system.run_transaction(
        [WriteOp(items[cohort][2], 3), WriteOp(items[leader][2], 3)]
    ).committed
    system.flush()
    if kind == "twopc":
        with pytest.raises(AuditError):
            system.audit()
    else:
        assert system.audit().ok
    return set(system.network.stats.per_type)


class TestTrafficOfARun:
    def test_classic_deployment(self):
        assert traffic("classic", cohort="s2", leader="s0") == CLASSIC_TRAFFIC

    def test_scaled_deployment(self):
        assert traffic("scaled", cohort="s3", leader="s1") == SCALED_TRAFFIC

    def test_twopc_deployment(self):
        assert traffic("twopc", cohort="s2", leader="s0") == TWOPC_TRAFFIC

    def test_the_deployments_cover_every_message_type(self):
        union = CLASSIC_TRAFFIC | SCALED_TRAFFIC | TWOPC_TRAFFIC
        assert union == {member.value for member in MessageType}
