"""A peer's reply is believed only as far as it decodes -- for every phase.

Every protocol participant reads what a peer answered through
``repro.net.forms.read_reply``: the reply is its row's form, or it is a
``Refusal``.  Before the message table only ``GET_VOTE`` and ``READ`` replies
were decoded strictly; a cohort answering ``CHALLENGE`` with
``"compute_time": "1"`` or ``"response": "12"`` crashed its coordinator with
``TypeError`` out of ``run_transaction``, and one answering ``"ok": "no"``
was counted as having agreed.

One lying server, every phase reply x four ways of not being the declared
form: never an exception out of the round, the view change or the recovery,
and never counted as agreement.
"""

from __future__ import annotations

import pytest

from repro.net.message import MessageType
from repro.server.faults import FaultPlan
from repro.txn.operations import WriteOp

_M = MessageType

#: What the liar does to the plain data of its honest reply.
DAMAGE = {
    "missing-key": lambda reply: {k: v for k, v in reply.items() if k != _measured(reply)},
    "wrong-type": lambda reply: {**reply, _measured(reply): "1"},
    "undeclared-key": lambda reply: {**reply, "mood": "helpful"},
    "truthy-non-bool-ok": lambda reply: {**reply, "ok": "no"},
}


def _measured(reply: dict) -> str:
    """The number every phase reply carries (a state response: its head height)."""
    return "compute_time" if "compute_time" in reply else "head_height"


def _no_round_state(system):
    for server_id, server in system.servers.items():
        if not server.crashed:
            assert server.commitment.pending_round_count() == 0, server_id


def _failed_round(system, liar):
    """The round takes the ordinary ``failed`` exit: the liar's reply is the
    one refusal, nobody is accused, ``ROUND_FAILED`` went out, nothing committed."""
    item = system.shard_map.items_of("s1")[0]
    assert system.run_transaction([WriteOp(item, 9)]).status == "failed"
    result = system.coordinator.results[-1]
    assert result.status == "failed" and result.culprits == []
    assert [(r.server_id, r.unreachable) for r in result.refusals] == [(liar, False)]
    assert result.refusals[0].reason
    _no_round_state(system)
    assert set(system.log_heights().values()) == {0}


def vote_phases(make_system, lie, message_type, damage):
    system = make_system(
        num_servers=3, txns_per_block=1, protocol="2pc" if message_type is _M.PREPARE else "tfcommit"
    )
    lie(system, "s2", message_type, damage)
    _failed_round(system, "s2")


def decision(make_system, lie, message_type, damage):
    """The block is co-signed and out; the liar is on record as not confirming it."""
    system = make_system(num_servers=3, txns_per_block=1)
    lie(system, "s2", message_type, damage)
    item = system.shard_map.items_of("s1")[0]
    assert system.run_transaction([WriteOp(item, 9)]).committed
    result = system.coordinator.results[-1]
    assert [(r.server_id, r.unreachable) for r in result.refusals] == [("s2", False)]
    _no_round_state(system)


def commit_decision(make_system, lie, message_type, damage):
    """Nothing a 2PC cohort answers to the decision matters; nor can it hurt."""
    system = make_system(num_servers=3, txns_per_block=1, protocol="2pc")
    lie(system, "s2", message_type, damage)
    item = system.shard_map.items_of("s1")[0]
    assert system.run_transaction([WriteOp(item, 9)]).committed
    _no_round_state(system)


def view_change(make_system, lie, message_type, damage):
    """A cohort that answers the solicitation with something else than a
    report is a liar like one whose certificate does not verify."""
    system = make_system(num_servers=3, txns_per_block=1)
    item = system.shard_map.items_of("s1")[0]
    assert system.run_transaction([WriteOp(item, 1)]).committed
    system.inject_fault("s0", [FaultPlan("crash", "s0", {"kind": "phase", "phases": ["vote"]})])
    assert system.run_transaction([WriteOp(item, 9)]).status == "failed"
    assert system.recover_server("s0").caught_up
    lie(system, "s2", message_type, damage)
    outcome = system.fail_over()
    if message_type is _M.VIEW_CHANGE:
        assert outcome.rejected_certificates == ["s2"] and sorted(outcome.certificates) == ["s1"]
    else:
        assert outcome.rejected_certificates == [] and sorted(outcome.certificates) == ["s1", "s2"]
    assert outcome.frontier_height == 1 and len(outcome.stalled_rounds) == 1
    assert set(system.log_heights().values()) == {2}


def state_request(make_system, lie, message_type, damage):
    system = make_system(num_servers=3, txns_per_block=1)
    items = system.shard_map.items_of("s2")
    assert system.run_transaction([WriteOp(items[0], 1)]).committed
    system.inject_fault("s1", [FaultPlan("crash", "s1", {"kind": "phase", "phases": ["decision"]})])
    system.run_transaction([WriteOp(items[1], 2)])
    assert system.crashed_servers() == ["s1"]
    lie(system, "s0", message_type, damage)
    result = system.recover_server("s1", peer_order=["s0", "s2"])
    assert result.caught_up and result.rejected_peers == ("s0",) and result.served_by == "s2"
    assert system.log_heights()["s1"] == system.log_heights()["s2"]


def ordered_block(make_scaled_system, lie, message_type, damage):
    system = make_scaled_system(num_servers=4, txns_per_block=1)
    lie(system, "s3", message_type, damage)
    item = system.shard_map.items_of("s1")[0]
    assert system.run_transaction([WriteOp(item, 9)]).committed
    system.flush()
    assert [(r.server_id, r.unreachable) for r in system.delivery_failures] == [("s3", False)]
    assert len(set(system.log_heights().values())) == 1


SCENARIOS = {
    _M.GET_VOTE: vote_phases,
    _M.CHALLENGE: vote_phases,
    _M.PREPARE: vote_phases,
    _M.DECISION: decision,
    _M.COMMIT_DECISION: commit_decision,
    _M.VIEW_CHANGE: view_change,
    _M.NEW_VIEW: view_change,
    _M.STATE_REQUEST: state_request,
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("message_type", SCENARIOS, ids=lambda m: m.value)
def test_a_reply_that_is_not_its_form_is_a_refusal(make_system, lie, message_type, damage):
    SCENARIOS[message_type](make_system, lie, message_type, DAMAGE[damage])


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_reply_to_the_ordered_stream_that_is_not_its_form(make_scaled_system, lie, damage):
    ordered_block(make_scaled_system, lie, _M.ORDERED_BLOCK, DAMAGE[damage])


@pytest.mark.parametrize(
    "lies",
    [{"compute_time": "1"}, {"response": "12"}, {"response": -1}, {"ok": "no"}],
    ids=["str-compute-time", "str-response", "negative-response", "ok-no"],
)
def test_the_challenge_probes_that_used_to_crash_or_fool_the_coordinator(make_system, lie, lies):
    system = make_system(num_servers=3, txns_per_block=1)
    lie(system, "s1", _M.CHALLENGE, lambda reply: {**reply, **lies})
    item = system.shard_map.items_of("s1")[0]
    assert system.run_transaction([WriteOp(item, 9)]).status == "failed"
    refusal, = system.coordinator.results[-1].refusals
    assert refusal.server_id == "s1" and next(iter(lies)) in refusal.reason
    _no_round_state(system)
