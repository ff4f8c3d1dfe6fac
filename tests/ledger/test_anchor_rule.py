"""One table of anchor-chain lies, judged alike by every acceptor of an anchor.

What makes an epoch-anchor chain acceptable is said once, in
``repro.ledger.anchor``: the link rule (an anchor directly extends the one
before it) and the replay rule (the chain vouches for the log's per-shard
order, up to its head).  The auditor calls the replay rule, so every lie
below is one ``epoch-anchor-mismatch`` pinned on the ordering service at the
same block height whichever way it is driven; a server receiving
``EPOCH_ANCHOR`` calls the link rule.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.audit.violations import ViolationType
from repro.common.config import SystemConfig
from repro.core.scaled import ORDSERV_ID, ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer
from repro.ledger.anchor import EpochAnchor, verify_anchor_chain
from repro.net.forms import Ack, AnchorSealed, Refusal, read_reply
from repro.net.latency import ConstantLatency
from repro.net.message import MessageType
from repro.sim.context import FixedCompute
from repro.workload.ycsb import PartitionedWorkload

CONFIG = SystemConfig(
    num_servers=4,
    items_per_shard=40,
    txns_per_block=2,
    ops_per_txn=2,
    message_signing="hash",
    seed=7,
)


def build() -> ScaledFidesSystem:
    return ScaledFidesSystem(
        CONFIG,
        latency=ConstantLatency(0.0002),
        compute_model=FixedCompute(0.001),
        sequencer=sharded_sequencer(2),
    )


def run(system: ScaledFidesSystem, seed: int) -> None:
    """20 transactions of two clients over the localities {s0, s1} and {s2, s3}."""
    partitions = [
        [item for sid in pair for item in system.shard_map.items_of(sid)]
        for pair in (("s0", "s1"), ("s2", "s3"))
    ]
    workload = PartitionedWorkload(partitions=partitions, ops_per_txn=2, locality=0.6, seed=seed)
    assert system.run_workload(workload.generate(20), num_clients=2).failed == 0


@pytest.fixture(scope="module")
def plain() -> ScaledFidesSystem:
    """11 blocks under 5 anchors covering heights [0,2) [2,3) [3,4) [4,7) [7,11)."""
    system = build()
    run(system, 7)
    anchors = system.ordering.epoch_anchors
    assert [(a.start_height, a.end_height) for a in anchors] == [
        (0, 2), (2, 3), (3, 4), (4, 7), (7, 11),
    ]
    return system


@pytest.fixture(scope="module")
def checkpointed() -> ScaledFidesSystem:
    """The same run, checkpointed at height 10, then 20 more transactions."""
    system = build()
    run(system, 7)
    assert system.create_checkpoint().height == 10
    run(system, 8)
    assert system.server("s0").log.base_height == 11
    return system


def relinked(anchors):
    """``anchors`` with every link recomputed, so only the doctored field lies."""
    chain = []
    for anchor in anchors:
        previous = chain[-1].anchor_hash() if chain else anchors[0].previous
        chain.append(replace(anchor, previous=previous))
    return chain


def extra_anchor(anchors):
    last = anchors[-1]
    return anchors + [
        EpochAnchor(
            last.epoch + 1,
            last.end_height,
            last.end_height + 1,
            last.shard_heights,
            last.shard_heads,
            last.anchor_hash(),
        )
    ]


CLEAN = "clean"

#: ``(lie, the system it is told about, how to make it from the honest
#: chain, the block height it is reported at -- or CLEAN)``.
LIES = [
    ("the honest chain", "plain", lambda a: a, CLEAN),
    ("a wrong epoch number", "plain", lambda a: a[:2] + [replace(a[2], epoch=9)] + a[3:], None),
    (
        "a start-height gap",
        "plain",
        lambda a: a[:2] + [replace(a[2], start_height=a[2].end_height)] + a[3:],
        None,
    ),
    (
        "a broken previous link",
        "plain",
        lambda a: a[:2] + [replace(a[2], previous=b"\x01" * 32)] + a[3:],
        None,
    ),
    (
        "a doctored shard head",
        "plain",
        lambda a: relinked(a[:3] + [replace(a[3], shard_heads=(b"\x00" * 32,) * 2)] + a[4:]),
        7,
    ),
    (
        "a doctored shard height",
        "plain",
        lambda a: relinked(a[:3] + [replace(a[3], shard_heights=(99, 99))] + a[4:]),
        7,
    ),
    ("an anchor past the log's end", "plain", extra_anchor, 11),
    ("the last anchor withheld", "plain", lambda a: a[:-1], 7),
    ("no anchors", "plain", lambda a: [], 0),
    ("a checkpoint-truncated honest log", "checkpointed", lambda a: a, CLEAN),
    (
        "a doctored shard head above a truncated log's base",
        "checkpointed",
        lambda a: relinked(a[:6] + [replace(a[6], shard_heads=(b"\x00" * 32,) * 2)] + a[7:]),
        15,
    ),
    ("the last anchor withheld from a truncated log", "checkpointed", lambda a: a[:-1], 21),
]


def told(request, system_name, doctor):
    """``(system, the doctored anchor chain)``."""
    system = request.getfixturevalue(system_name)
    return system, doctor(system.ordering.epoch_anchors)


def replay(system, anchors, log):
    shard_map = system.ordering.shard_map
    return verify_anchor_chain(
        anchors, log, shard_map.num_shards, lambda block: shard_map.shards_of(block.group or ())
    )


@pytest.mark.parametrize(
    "system_name,doctor,height", [row[1:] for row in LIES], ids=[row[0] for row in LIES]
)
def test_the_replay_rule(request, system_name, doctor, height):
    system, anchors = told(request, system_name, doctor)
    log = system.server("s0").log
    if height == CLEAN:
        assert replay(system, anchors, log) == ("", None)
        return
    reason, reported = replay(system, anchors, log)
    assert reason and reported == height


@pytest.mark.parametrize(
    "system_name,doctor,height", [row[1:] for row in LIES], ids=[row[0] for row in LIES]
)
def test_the_auditor(request, system_name, doctor, height):
    system, anchors = told(request, system_name, doctor)
    report = system.auditor().run_audit(
        epoch_anchors=anchors, ordering_shard_map=system.ordering.shard_map
    )
    if height == CLEAN:
        assert report.ok, report.violations
        return
    [violation] = report.violations
    assert violation.kind is ViolationType.ANCHOR_MISMATCH
    assert violation.culprits == ("ordserv",)
    assert violation.block_height == height
    assert violation.description == replay(system, anchors, system.server("s0").log)[0]


def test_a_truncated_log_is_replayed_from_the_anchor_boundary_at_or_above_its_base(plain):
    """The fold starts from the state the first anchor ending at or above the
    base recorded; the blocks below that boundary are the checkpoint's to
    vouch for.  A lie in the last anchor (heights 7 to 11) is caught while
    that anchor is replayed, and cannot be while it is the starting point."""
    anchors = plain.ordering.epoch_anchors
    lie = relinked(anchors[:-1] + [replace(anchors[-1], shard_heads=(b"\x00" * 32,) * 2)])
    for base in range(1, 12):
        log = plain.server("s0").log.copy()
        log.drop_prefix(base)
        assert replay(plain, anchors, log) == ("", None), base
        assert replay(plain, lie, log)[1] == (11 if base <= 7 else None), base


class TestFidesSystemAudit:
    """``FidesSystem.audit`` always holds a sharded deployment to its anchors."""

    def test_an_honest_checkpointed_deployment_audits_clean(self, checkpointed):
        assert checkpointed.audit().ok

    def test_a_withheld_last_anchor_is_reported(self):
        system = build()
        run(system, 7)
        system.ordering._anchors.pop()
        report = system.audit()
        assert not report.ok
        assert [(v.kind, v.culprits, v.block_height) for v in report.violations] == [
            (ViolationType.ANCHOR_MISMATCH, ("ordserv",), 7)
        ]

    def test_a_chain_withheld_whole_is_reported(self):
        system = build()
        run(system, 7)
        system.ordering._anchors.clear()
        report = system.audit()
        assert [(v.kind, v.culprits, v.block_height) for v in report.violations] == [
            (ViolationType.ANCHOR_MISMATCH, ("ordserv",), 0)
        ]


class TestEpochAnchorAtAServer:
    """A server keeps the chain it can vouch for (the link rule), tolerating gaps."""

    @pytest.fixture
    def server(self):
        """s1 of a fresh deployment, which has seen no anchor yet."""
        return build().server("s1")

    @pytest.fixture
    def deliver(self, server):
        def send(anchor):
            data = server.network.send(
                ORDSERV_ID, "s1", MessageType.EPOCH_ANCHOR, AnchorSealed(anchor)
            )
            return read_reply(MessageType.EPOCH_ANCHOR, "s1", data)

        return send

    def test_accepts_the_honest_chain(self, plain, server, deliver):
        anchors = plain.ordering.epoch_anchors
        assert all(type(deliver(anchor)) is Ack for anchor in anchors)
        assert server.epoch_anchors == anchors

    @pytest.mark.parametrize("replayed", [1, 2])
    def test_refuses_a_replayed_epoch(self, plain, deliver, replayed):
        anchors = plain.ordering.epoch_anchors
        for anchor in anchors[:3]:
            deliver(anchor)
        reply = deliver(anchors[replayed])
        assert type(reply) is Refusal
        assert reply.reason == f"stale epoch anchor {replayed} (have 2)"

    @pytest.mark.parametrize(
        "breaks,reason",
        [
            (
                lambda a: replace(a, previous=b"\x01" * 32),
                "anchor 2 does not extend the previous anchor",
            ),
            (lambda a: replace(a, start_height=2), "anchor 2 starts at height 2, expected 3"),
        ],
        ids=["previous", "start height"],
    )
    def test_refuses_a_consecutive_anchor_that_breaks_the_link(
        self, plain, server, deliver, breaks, reason
    ):
        anchors = plain.ordering.epoch_anchors
        for anchor in anchors[:2]:
            deliver(anchor)
        reply = deliver(breaks(anchors[2]))
        assert type(reply) is Refusal
        assert reply.reason == f"epoch anchor 2 breaks the anchor chain: {reason}"
        assert server.epoch_anchors == anchors[:2]

    def test_refuses_a_first_anchor_that_does_not_extend_genesis(self, plain, server, deliver):
        reply = deliver(replace(plain.ordering.epoch_anchors[0], previous=b"\x01" * 32))
        assert type(reply) is Refusal and "breaks the anchor chain" in reply.reason

    def test_accepts_an_anchor_after_a_gap(self, plain, server, deliver):
        anchors = plain.ordering.epoch_anchors
        for anchor in anchors[:2]:
            deliver(anchor)
        assert type(deliver(anchors[3])) is Ack
        assert server.epoch_anchors == anchors[:2] + [anchors[3]]
