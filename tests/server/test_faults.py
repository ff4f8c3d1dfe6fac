"""Tests for the one fault executor: :class:`FaultPolicy` over :data:`FAULT_KINDS`."""

from __future__ import annotations

import pytest

from repro.check.choices import ChoiceSource, driven_by
from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.core.fides import FidesSystem
from repro.crypto.group import generator_multiply
from repro.server.faults import FAULT_KINDS, FaultPlan, FaultPolicy
from repro.server.triggers import ChoiceBudget
from repro.txn.operations import WriteOp

#: Parameters a kind needs before its hook has something to act on.
PARAMS = {
    "post-commit-corruption": {"item": "x", "value": -1},
    "fake-root": {"victim": "s2"},
    "drop-root": {"victim": "s2"},
}


@pytest.fixture(scope="module")
def committed():
    """A server's real log of two co-signed commit blocks, plus the blocks as served."""
    system = FidesSystem(
        SystemConfig(
            num_servers=3, items_per_shard=8, txns_per_block=1, message_signing="hash", seed=3
        )
    )
    for index, server_id in enumerate(("s1", "s2")):
        item = system.shard_map.items_of(server_id)[0]
        assert system.run_transaction([WriteOp(item, index)]).committed
    log = system.servers["s1"].log
    assert len(log) == 2 and all(block.is_commit for block in log)
    return log, list(log)


def observe(policy: FaultPolicy, committed) -> dict:
    """Consult every hook once with honest inputs: hook -> what came back."""
    log, served_blocks = committed
    log = log.copy()
    policy.observe_phase("decision", 1)
    seen = {
        "corrupt_read_value": policy.corrupt_read_value("x", 5),
        "skip_validation": policy.skip_validation(),
        "corrupt_commitment": policy.corrupt_commitment(generator_multiply(7)),
        "corrupt_response": policy.corrupt_response(9),
        "corrupt_root": policy.corrupt_root(b"r" * 32),
        "collude_on_challenge": policy.collude_on_challenge(),
        "filter_applied_writes": policy.filter_applied_writes({"x": 1, "y": 2}),
        "post_commit_corruption": policy.post_commit_corruption(),
        "equivocate": policy.equivocate(),
        "fake_root_for": policy.fake_root_for("s2", b"r" * 32),
        "crash_now": policy.crash_now(),
        "tamper_state_response": policy.tamper_state_response(served_blocks),
    }
    policy.tamper_log(log)
    seen["tamper_log"] = [block.block_hash() for block in log], [
        block.cosign for block in log
    ]
    return seen


def test_the_probe_consults_every_hook_the_table_names(committed):
    assert set(observe(FaultPolicy(), committed)) == {h for h in FAULT_KINDS.values() if h}


def test_a_policy_without_plans_is_honest(committed):
    log, served_blocks = committed
    policy = FaultPolicy()
    assert policy.name == "honest"
    assert observe(policy, committed) == {
        "corrupt_read_value": 5,
        "skip_validation": False,
        "corrupt_commitment": generator_multiply(7),
        "corrupt_response": 9,
        "corrupt_root": b"r" * 32,
        "collude_on_challenge": False,
        "filter_applied_writes": {"x": 1, "y": 2},
        "post_commit_corruption": {},
        "equivocate": False,
        "fake_root_for": b"r" * 32,
        "crash_now": False,
        "tamper_state_response": served_blocks,
        "tamper_log": ([b.block_hash() for b in log], [b.cosign for b in log]),
    }
    assert policy.maintains_log_integrity() and not policy.fired()


@pytest.mark.parametrize("kind", [kind for kind, hook in FAULT_KINDS.items() if hook])
def test_a_kind_deviates_at_its_declared_hook_and_nowhere_else(kind, committed):
    """Totality of the table: under ``always``, kind -> exactly its hook."""
    honest = observe(FaultPolicy(), committed)
    policy = FaultPolicy([FaultPlan(kind, "s1", params=PARAMS.get(kind, {}))])
    seen = observe(policy, committed)
    assert {hook for hook in seen if seen[hook] != honest[hook]} == {FAULT_KINDS[kind]}
    assert policy.fired(kind)
    assert policy.maintains_log_integrity() == (FAULT_KINDS[kind] != "tamper_log")


def test_a_fault_without_a_server_side_hook_is_refused():
    assert FAULT_KINDS["anchor-tamper"] is None
    with pytest.raises(ConfigurationError, match="not a server-side fault"):
        FaultPolicy([FaultPlan("anchor-tamper", "ordserv")])


def test_a_read_corruption_consults_its_trigger_only_for_reads_of_its_item():
    """The stale read of Scenario 1: the item's first read is honest, a later one
    lies.  Reads of another item never reach the trigger: they add no choice point."""
    trigger = {"kind": "choice", "site": "read", "budget": ChoiceBudget(2)}
    policy = FaultPolicy(
        [FaultPlan("read-corruption", "s1", trigger=trigger, params={"item": "x", "value": 0})]
    )
    policy.observe_phase("execute", 0)
    with driven_by(ChoiceSource(prefix=[0, 1], features={"faults"})) as source:
        assert policy.corrupt_read_value("y", 7) == 7  # not consulted: another item
        assert policy.corrupt_read_value("x", 10) == 10
        assert policy.corrupt_read_value("x", 10) == 0
        assert policy.corrupt_read_value("y", 7) == 7
    assert [point.label for point in source.trace] == ["read/execute@0"] * 2


def test_root_faults_act_only_on_their_victim():
    fake = FaultPolicy([FaultPlan("fake-root", "s0", params={"victim": "s1", "root": b"\xaa" * 32})])
    assert fake.fake_root_for("s1", b"real") == b"\xaa" * 32
    assert fake.fake_root_for("s2", b"real") == b"real"
    drop = FaultPolicy([FaultPlan("drop-root", "s0", params={"victim": "s1"})])
    assert drop.fake_root_for("s1", b"real") is None
    assert drop.fake_root_for("s2", b"real") == b"real"
