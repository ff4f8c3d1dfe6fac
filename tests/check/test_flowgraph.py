"""The message-flow graph as behaviour: which message types a run carries.

These are the protocol's communication diagrams (Figures 6 and 7 plus the
failover, recovery and audit traffic), recorded from the *implementation
running*: one scenario per deployment -- classic, scaled, 2PC -- with a
failed round, a crash and recovery, a failover and an audit, and the set of
message types the network actually delivered.  A new phase or a dropped send
changes a set and must be acknowledged here.  (The sets used to be projected
from module paths by an AST pass; that every type has a request form, a reply
form and a handler is the message table's own test, ``tests/net/test_forms.py``.)
"""

from __future__ import annotations

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import AuditError
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer
from repro.net.latency import ConstantLatency
from repro.net.message import MessageType
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp

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
    return set(system.sim.obs.metrics.breakdown("net.messages"))


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
