"""Lemma 3: serializability (isolation) violations are detected and attributed."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.audit.auditor import Auditor
from repro.audit.report import AuditReport
from repro.audit.violations import ViolationType
from repro.common.timestamps import Timestamp
from repro.crypto.cosi import cosign
from repro.crypto.keys import keypair_for
from repro.ledger.block import BlockDecision, make_partial_block
from repro.ledger.log import TransactionLog
from repro.net.network import Network
from repro.server.faults import FaultPlan
from repro.sim.context import SimContext
from repro.storage.record import INITIAL_VALUE
from repro.storage.shard import ShardMap
from repro.txn.operations import ReadOp, WriteOp
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


class TestIsolationViolationDetection:
    def _commit_stale_transaction(self, system):
        """A malicious server skips validation, letting a stale transaction commit."""
        item = system.shard_map.items_of("s1")[0]
        # Seed the item with a committed value.
        assert system.run_transaction([ReadOp(item), WriteOp(item, 10)]).committed

        # Client 1 reads the item now...
        client = system.client(1)
        session = client.begin()
        client.read(session, item)

        # ...then client 0 commits a newer write, making client 1's read stale.
        assert system.run_transaction([ReadOp(item), WriteOp(item, 20)]).committed

        # The server storing the item stops validating, so the stale
        # transaction commits instead of aborting.
        system.inject_fault("s1", [FaultPlan("skip-validation", "s1")])
        client.write(session, item, 30)
        outcome = client.commit(session)
        assert outcome.committed
        return item

    def test_auditor_detects_isolation_violation(self, small_system):
        item = self._commit_stale_transaction(small_system)
        report = small_system.audit()
        assert not report.ok
        violations = report.violations_of(ViolationType.ISOLATION_VIOLATION)
        assert violations, report.summary()
        assert any(v.item_id == item for v in violations)
        assert any("s1" in v.culprits for v in violations)

    def test_violation_is_located_in_history(self, small_system):
        self._commit_stale_transaction(small_system)
        report = small_system.audit()
        height = report.first_violation_height()
        assert height is not None
        # Blocks 0 and 1 are the honest commits; the stale commit is block 2.
        assert height == 2

    def test_honest_execution_has_no_isolation_violations(self, small_system, workload_factory):
        workload = workload_factory(small_system, ops_per_txn=2, seed=41)
        small_system.run_workload(workload.generate(6))
        report = small_system.audit()
        assert report.violations_of(ViolationType.ISOLATION_VIOLATION) == []


# -- a transaction committed twice -----------------------------------------------------

SERVER_IDS = ("s0", "s1")
KEYPAIRS = {sid: keypair_for(sid, seed=55) for sid in SERVER_IDS}
SHARD_MAP = ShardMap({"s0": ["x0", "x1", "x2"], "s1": ["y0", "y1", "y2"]})
ITEMS = SHARD_MAP.all_items()


def chained_log(blocks, aborted=()):
    """A log of blocks holding ``blocks`` (lists of transactions), each
    co-signed by both servers: abort blocks at the heights in ``aborted``,
    commit blocks carrying a root from every involved server elsewhere."""
    log = TransactionLog()
    for txns in blocks:
        involved = SHARD_MAP.servers_for(
            item for txn in txns for item in txn.items_accessed()
        )
        block = make_partial_block(log.height, txns, log.head_hash)
        if block.height in aborted:
            block = block.with_decision(BlockDecision.ABORT, {})
        else:
            block = block.with_decision(
                BlockDecision.COMMIT, {sid: bytes([len(log)]) * 32 for sid in involved}
            )
        log.append(block.with_cosign(cosign(block.body_digest(), KEYPAIRS)))
    return log


def audit_replay(log):
    """What the audit's log and replay checks report on every server holding ``log``."""
    network = Network(SimContext())
    for sid, keypair in KEYPAIRS.items():
        network.register_observer(sid, keypair)
    auditor = Auditor(network, SERVER_IDS, SHARD_MAP)
    report = AuditReport()
    reference = auditor.check_logs({sid: log for sid in SERVER_IDS}, report)
    auditor.check_transactions(reference, report)
    return report


def duplicate_commits(report):
    """``(txn_id, block_height)`` of each isolation violation that names no item."""
    return sorted(
        (v.txn_id, v.block_height)
        for v in report.violations_of(ViolationType.ISOLATION_VIOLATION)
        if v.item_id is None
    )


class History:
    """Transactions that read the latest logged write of each item (or its
    initial value), stamped in the order they are made."""

    def __init__(self):
        self.latest = {item: (INITIAL_VALUE, Timestamp.zero()) for item in ITEMS}
        self.count = 0

    def make(self, reads=(), writes=()):
        self.count += 1
        read_set = []
        for item in reads:
            value, wts = self.latest[item]
            read_set.append(ReadSetEntry(item, value, Timestamp.zero(), wts))
        txn = Transaction(
            txn_id=f"t{self.count}",
            client_id="c0",
            commit_ts=Timestamp(self.count, "c0"),
            read_set=read_set,
            write_set=[WriteSetEntry(item, 100 + self.count) for item in writes],
        )
        for entry in txn.write_set:
            self.latest[entry.item_id] = (entry.new_value, txn.commit_ts)
        return txn


class TestADuplicateCommitIsReportedOnce:
    """A later co-signed block re-commits a transaction an earlier block committed."""

    def replayed(self, replay_writer):
        history = History()
        writer = history.make(writes=["x0"])
        reader = history.make(reads=["x0"])
        blocks = [[writer], [reader], [history.make(reads=["y0"], writes=["y0"])]]
        replay = writer if replay_writer else reader
        blocks.append([replay, history.make(writes=["y1"])])
        first = 0 if replay_writer else 1
        return replay.txn_id, first, len(blocks) - 1, chained_log(blocks)

    @pytest.mark.parametrize("replay_writer", [True, False], ids=["writer", "read-only"])
    def test_the_replay_is_one_located_violation(self, replay_writer):
        txn_id, first, again, log = self.replayed(replay_writer)
        assert first < again
        report = audit_replay(log)
        assert all(result.valid for result in report.log_results.values())
        assert [(v.kind, v.txn_id, v.block_height) for v in report.violations] == [
            (ViolationType.ISOLATION_VIOLATION, txn_id, again)
        ]
        description = report.violations[0].description
        assert f"height {first}" in description and f"height {again}" in description

    def test_twice_in_one_block_is_reported_at_that_block(self):
        history = History()
        txn = history.make(writes=["x1"])
        report = audit_replay(chained_log([[history.make(writes=["y2"])], [txn, txn]]))
        assert duplicate_commits(report) == [(txn.txn_id, 1)]

    @pytest.mark.parametrize("replay_writer", [True, False], ids=["writer", "read-only"])
    def test_the_replay_is_where_the_history_goes_wrong(self, replay_writer):
        _, _, again, log = self.replayed(replay_writer)
        report = audit_replay(log)
        assert not report.ok
        assert report.first_violation_height() == again

    def test_each_later_commit_is_reported_against_the_first(self):
        history = History()
        txn = history.make(writes=["x0"])
        log = chained_log([[txn], [history.make(writes=["y0"])], [txn], [txn]])
        report = audit_replay(log)
        assert duplicate_commits(report) == [(txn.txn_id, 2), (txn.txn_id, 3)]
        for violation in report.violations:
            assert "height 0" in violation.description
            assert f"height {violation.block_height}" in violation.description

    def test_a_replay_under_a_fresh_commit_stamp_is_still_a_duplicate(self):
        """The check keys on the transaction id, not on what the transaction holds."""
        history = History()
        txn = history.make(writes=["x0"])
        other = history.make(writes=["y0"])
        restamped = replace(txn, commit_ts=Timestamp(history.count + 1, "c0"),
                            write_set=[WriteSetEntry("x0", 999)])
        report = audit_replay(chained_log([[txn], [other], [restamped]]))
        assert duplicate_commits(report) == [(txn.txn_id, 2)]

    def test_a_stale_replay_is_reported_by_every_replay_check_at_its_height(self):
        """A reader replayed after its item was overwritten: the read check and
        the stamp check flag its read, and the duplicate-commit check its id,
        each at the replay's height."""
        history = History()
        writer = history.make(writes=["x0"])
        reader = history.make(reads=["x0"])
        overwrite = history.make(writes=["x0"])
        report = audit_replay(chained_log([[writer], [reader], [overwrite], [reader]]))
        assert [(v.kind, v.item_id) for v in report.violations] == [
            (ViolationType.INCORRECT_READ, "x0"),
            (ViolationType.ISOLATION_VIOLATION, "x0"),
            (ViolationType.ISOLATION_VIOLATION, None),
        ]
        assert {(v.txn_id, v.block_height) for v in report.violations} == {(reader.txn_id, 3)}

    def test_heights_stay_global_in_a_checkpoint_truncated_log(self):
        history = History()
        first, replayed = history.make(writes=["x0"]), history.make(writes=["y0"])
        log = chained_log([[first], [replayed], [history.make(writes=["x1"])],
                           [replayed, history.make(writes=["y1"])]])
        log.drop_prefix(1)
        report = AuditReport()
        Auditor(Network(SimContext()), SERVER_IDS, SHARD_MAP).check_transactions(log, report)
        assert duplicate_commits(report) == [(replayed.txn_id, 3)]
        assert "height 1" in report.violations[0].description


class TestAnAbortedBlockCommitsNothing:
    """A transaction in an abort block was not committed, so logging it again
    in a commit block (or a commit again in an abort block) is no duplicate."""

    @pytest.mark.parametrize("aborted", [0, 2], ids=["abort-then-commit", "commit-then-abort"])
    def test_one_commit_and_one_abort_is_no_violation(self, aborted):
        history = History()
        txn = history.make(writes=["x0"])
        log = chained_log([[txn], [history.make(writes=["y0"])], [txn]], aborted={aborted})
        assert log[aborted].decision is BlockDecision.ABORT
        report = audit_replay(log)
        assert all(result.valid for result in report.log_results.values())
        assert report.violations == []


#: Per transaction: the items it reads and the items it writes (not both none).
_items = st.sampled_from(ITEMS)
_txn_shapes = st.one_of(
    st.tuples(st.sets(_items, min_size=1, max_size=2), st.sets(_items, max_size=2)),
    st.tuples(st.sets(_items, max_size=2), st.sets(_items, min_size=1, max_size=2)),
)


class TestDuplicateCommitsOverGeneratedLogs:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        blocks=st.lists(st.lists(_txn_shapes, min_size=1, max_size=3), min_size=2, max_size=5),
        picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3),
    )
    def test_exactly_the_repeated_ids_at_their_heights(self, blocks, picks):
        """Distinct ids: no violation at all.  ``picks`` re-commit k distinct
        transactions, each in a later block: exactly k duplicate commits, at
        the later heights."""
        history = History()
        made = [[history.make(sorted(reads), sorted(writes)) for reads, writes in shapes]
                for shapes in blocks]
        assert audit_replay(chained_log(made)).violations == []

        sources = [(height, txn) for height, txns in enumerate(made[:-1]) for txn in txns]
        expected = {}
        for source, gap in picks:
            height, txn = sources[source % len(sources)]
            if txn.txn_id not in expected:
                expected[txn.txn_id] = height + 1 + gap % (len(made) - 1 - height)
                made[expected[txn.txn_id]].append(txn)
        report = audit_replay(chained_log(made))
        assert duplicate_commits(report) == sorted(expected.items())
        event(f"{len(expected)} repeated")
