"""One table of anchor-chain lies, judged alike by the replay rule and the auditor.

What makes an epoch-anchor chain acceptable is said once, in
``repro.ledger.anchor``: the link rule (an anchor directly extends the one
before it) and the replay rule (the link rule over the whole chain, then the
chain vouches for the log's per-shard order, up to its head).  The auditor
calls the replay rule, so every lie below is one ``epoch-anchor-mismatch``
pinned on the ordering service at the same block height whichever way it is
driven.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.audit.violations import ViolationType
from repro.common.config import SystemConfig
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer
from repro.ledger.anchor import EpochAnchor, verify_anchor_chain, verify_anchor_link
from repro.net.latency import ConstantLatency
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
    # Each partition is home to at most 10 of the 20 transactions, so a window
    # of 20 never resets: no item is handed out twice in a run.
    workload = PartitionedWorkload(
        partitions=partitions, ops_per_txn=2, locality=0.6, conflict_free_window=20, seed=seed
    )
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
    (
        "a first anchor that does not extend genesis",
        "plain",
        lambda a: relinked([replace(a[0], previous=b"\x01" * 32)] + a[1:]),
        None,
    ),
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
    ("the first anchor withheld", "plain", lambda a: a[1:], None),
    ("an anchor withheld mid-chain", "plain", lambda a: a[:2] + a[3:], None),
    ("a replayed epoch", "plain", lambda a: a[:3] + [a[1]] + a[3:], None),
    ("an epoch sealed twice", "plain", lambda a: a[:3] + [a[2]] + a[3:], None),
    ("the chain in reverse", "plain", lambda a: a[::-1], None),
    ("a checkpoint-truncated honest log", "checkpointed", lambda a: a, CLEAN),
    (
        "a doctored shard head above a truncated log's base",
        "checkpointed",
        lambda a: relinked(a[:6] + [replace(a[6], shard_heads=(b"\x00" * 32,) * 2)] + a[7:]),
        15,
    ),
    ("the last anchor withheld from a truncated log", "checkpointed", lambda a: a[:-1], 21),
    (
        "a broken link below a truncated log's base",
        "checkpointed",
        lambda a: a[:1] + [replace(a[1], previous=b"\x01" * 32)] + a[2:],
        None,
    ),
    (
        "an anchor withheld below a truncated log's base",
        "checkpointed",
        lambda a: a[:1] + a[2:],
        None,
    ),
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


#: ``(case, the anchor and its predecessor -- None: genesis -- made from the
#: honest chain, the link rule's verdict)``.
LINKS = [
    ("the first anchor extends genesis", lambda a: (a[0], None), ""),
    ("an anchor extends the one before it", lambda a: (a[2], a[1]), ""),
    (
        "a first anchor that does not extend genesis",
        lambda a: (replace(a[0], previous=b"\x01" * 32), None),
        "anchor 0 does not extend the previous anchor",
    ),
    (
        "a first anchor that starts above genesis",
        lambda a: (replace(a[0], start_height=1), None),
        "anchor 0 starts at height 1, expected 0",
    ),
    (
        "a chain that starts at a later epoch",
        lambda a: (a[1], None),
        "anchor epoch 1 != expected 0",
    ),
    ("a replayed epoch", lambda a: (a[1], a[2]), "anchor epoch 1 != expected 3"),
    ("the same epoch twice", lambda a: (a[2], a[2]), "anchor epoch 2 != expected 3"),
    ("a skipped epoch", lambda a: (a[3], a[1]), "anchor epoch 3 != expected 2"),
    (
        "a broken previous link",
        lambda a: (replace(a[2], previous=b"\x01" * 32), a[1]),
        "anchor 2 does not extend the previous anchor",
    ),
    (
        "a start height below the previous end",
        lambda a: (replace(a[2], start_height=2), a[1]),
        "anchor 2 starts at height 2, expected 3",
    ),
    (
        "a start height above the previous end",
        lambda a: (replace(a[2], start_height=4), a[1]),
        "anchor 2 starts at height 4, expected 3",
    ),
    (
        "a predecessor doctored after it was linked to",
        lambda a: (a[2], replace(a[1], shard_heads=(b"\x00" * 32,) * 2)),
        "anchor 2 does not extend the previous anchor",
    ),
]


@pytest.mark.parametrize("pair,verdict", [row[1:] for row in LINKS], ids=[row[0] for row in LINKS])
def test_the_link_rule(plain, pair, verdict):
    """The link rule's verdict, and the replay rule refusing, with that reason
    and at no height, the honest chain up to ``previous`` ending in the broken
    link."""
    anchors = plain.ordering.epoch_anchors
    anchor, previous = pair(anchors)
    assert verify_anchor_link(anchor, previous) == verdict
    if verdict:
        chain = anchors[: previous.epoch] + [previous, anchor] if previous else [anchor]
        malformed = (f"epoch-anchor chain is malformed: {verdict}", None)
        assert replay(plain, chain, plain.server("s0").log) == malformed


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

