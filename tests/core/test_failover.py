"""Coordinator failover end to end: crash paths, the view change, recovery.

The view-change protocol (DESIGN.md section 10) turns a dead or Byzantine
coordinator from a permanent liveness loss into a bounded one: surviving
cohorts keep the rounds the coordinator left armed, the next-smallest live
member solicits frontier certificates and stalled rounds, and re-proposes
them at the new view.  These suites drive the whole story through the public
deployment API -- classic and scaled TFCommit plus the trusted 2PC baseline
-- and pin the crash-path bugfixes that ride along: the synthesised
unreachable response in 2PC's tally, the equivocation exchange surviving a
mid-challenge cohort crash, and the round-timeout charge for silent peers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.core.rounds import ROUND_TIMEOUT_S
from repro.core.viewchange import (
    already_committed,
    elect_successor,
    verify_certificate,
)
from repro.ledger.block import Block
from repro.net.forms import FrontierCertificate
from repro.net.message import MessageType
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp


def crash_at(server_id: str, phase: str):
    """``server_id`` crashes (once) at its first observation of ``phase``."""
    return [FaultPlan("crash", server_id, {"kind": "phase", "phases": [phase]})]


def _assert_no_round_state(system):
    for server_id, server in system.servers.items():
        assert server.commitment.pending_round_count() == 0, server_id


def _strand_round(system, item, value=9):
    """Crash the coordinator mid-vote, stranding one armed round on cohorts."""
    system.inject_fault("s0", crash_at("s0", "vote"))
    outcome = system.run_transaction([WriteOp(item, value)])
    assert outcome.status == "failed"
    assert "s0" in system.crashed_servers()
    return outcome


class TestClassicFailover:
    def test_coordinator_crash_strands_the_round_on_cohorts(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        _strand_round(small_system, item)
        result = small_system.coordinator.results[-1]
        assert result.status == "failed"
        assert any(
            r.unreachable and r.server_id == "s0"
            for r in result.refusals
        )
        # No ROUND_FAILED went out on the dead coordinator's behalf: the
        # armed round state is exactly what the view change collects.
        for cohort in ("s1", "s2"):
            assert small_system.servers[cohort].commitment.pending_round_count() == 1

    def test_view_change_reproposes_the_stalled_round(self, small_system):
        item_a = small_system.shard_map.items_of("s1")[0]
        item_b = small_system.shard_map.items_of("s2")[0]
        assert small_system.run_transaction([WriteOp(item_a, 1)]).committed
        _strand_round(small_system, item_b, value=9)
        assert small_system.recover_server("s0").caught_up

        outcome = small_system.fail_over(reason="round timer expired")
        assert outcome.deposed == "s0"
        assert outcome.successor == "s1"
        assert outcome.new_view == 1
        # Both surviving cohorts certified the pre-crash frontier.
        assert sorted(outcome.certificates) == ["s1", "s2"]
        assert outcome.rejected_certificates == []
        assert outcome.frontier_height == 1
        assert len(outcome.stalled_rounds) == 1

        # The re-proposal committed the stranded write on every server
        # (including the recovered, now-deposed, s0) and released all state.
        assert small_system.log_heights() == {"s0": 2, "s1": 2, "s2": 2}
        assert small_system.server("s2").store.read(item_b).value == 9
        _assert_no_round_state(small_system)
        report = small_system.audit()
        assert report.ok, report.summary()

    def test_a_lying_cohorts_malformed_certificate_is_discarded_not_fatal(
        self, small_system, lie
    ):
        """One cohort answers VIEW_CHANGE with a head block whose group
        members are bytes, not server ids.  Strict decoding rejects it at the
        boundary (it used to decode, then blow up with ``AttributeError``
        while hashing, aborting the successor's whole view change), so the
        liar lands in ``rejected_certificates`` and the view change completes."""
        items = small_system.shard_map.items_of("s1")
        assert small_system.run_transaction([WriteOp(items[0], 1)]).committed
        _strand_round(small_system, items[1])

        def lying_answer(report):
            report["certificate"]["head"]["body"]["group"] = [b"s0", b"s1"]
            return report

        lie(small_system, "s2", MessageType.VIEW_CHANGE, lying_answer)
        outcome = small_system.fail_over()
        assert outcome.rejected_certificates == ["s2"]
        assert sorted(outcome.certificates) == ["s1"]
        assert outcome.frontier_height == 1 and len(outcome.stalled_rounds) == 1

    def test_a_cohort_inflating_its_frontier_height_is_discarded_not_fatal(
        self, make_system, lie
    ):
        """One cohort reports its honest, co-signed head under a frontier
        height of a million.  The head backs height 1 only, so the liar lands
        in ``rejected_certificates`` and the view change completes; believing
        the height used to stop it, the successor being "behind the certified
        frontier"."""
        system = make_system(num_servers=4, txns_per_block=1)
        item = system.shard_map.items_of("s1")[0]
        assert system.run_transaction([WriteOp(item, 1)]).committed

        def inflated(report):
            report["certificate"]["height"] = 10**6
            return report

        lie(system, "s3", MessageType.VIEW_CHANGE, inflated)
        outcome = system.fail_over()
        assert outcome.rejected_certificates == ["s3"]
        assert sorted(outcome.certificates) == ["s1", "s2"]
        assert outcome.frontier_height == 1

    def test_cluster_commits_under_the_successor(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        _strand_round(small_system, item)
        assert small_system.recover_server("s0").caught_up
        small_system.fail_over()

        assert small_system.coordinator_id == "s1"
        assert small_system.deposed_servers() == frozenset({"s0"})
        post = small_system.run_transaction([ReadOp(item), WriteOp(item, 10)])
        assert post.committed
        # The new block was proposed -- and co-signed -- at the new view.
        assert small_system.coordinator.results[-1].block.view == 1
        assert small_system.server("s1").store.read(item).value == 10

    def test_deposed_coordinator_is_refused_by_the_view_gate(self, small_system):
        small_system.fail_over()  # a healthy coordinator can still be deposed
        assert small_system.view_changes[-1].stalled_rounds == []

        # Route a client back to the deposed coordinator: its view-0 proposal
        # must be refused by every cohort that installed the new view, so two
        # coordinators can never drive rounds concurrently.
        small_system.coordinator_id = "s0"
        item = small_system.shard_map.items_of("s1")[0]
        outcome = small_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        zombie = small_system.coordinators["s0"]
        result = zombie.results[-1]
        assert result.status == "failed"
        assert any(
            "below this cohort's current view" in r.reason
            for r in result.refusals
        )
        assert all(height == 0 for height in small_system.log_heights().values())

    def test_the_round_timeout_counts_toward_the_makespan(self, small_system):
        # A view change schedules no phase; it advances the clock by the
        # round timer, and the makespan is the clock's high-water mark.
        assert small_system.run_transaction(
            [WriteOp(small_system.shard_map.items_of("s1")[0], 1)]
        ).committed
        before = small_system.sim.makespan
        small_system.fail_over()
        assert small_system.sim.makespan == pytest.approx(before + ROUND_TIMEOUT_S)

    def test_failover_of_a_non_coordinator_is_rejected(self, small_system):
        with pytest.raises(ConfigurationError):
            small_system.fail_over("s1")

    def test_second_failover_elects_the_next_smallest_member(self, small_system):
        small_system.fail_over()
        outcome = small_system.fail_over()
        assert outcome.deposed == "s1"
        assert outcome.successor == "s2"
        assert outcome.new_view == 2
        item = small_system.shard_map.items_of("s0")[0]
        assert small_system.run_transaction([WriteOp(item, 3)]).committed
        assert small_system.coordinator.results[-1].block.view == 2


class TestScaledFailover:
    def test_group_leader_crash_is_failed_over(self, make_scaled_system):
        system = make_scaled_system(txns_per_block=1)
        item_a = system.shard_map.items_of("s0")[0]
        item_b = system.shard_map.items_of("s1")[0]
        item_c = system.shard_map.items_of("s2")[0]
        item_d = system.shard_map.items_of("s3")[0]
        assert system.run_transaction([WriteOp(item_a, 1), WriteOp(item_b, 2)]).committed

        system.inject_fault("s0", crash_at("s0", "vote"))
        stalled = system.run_transaction([WriteOp(item_a, 3), WriteOp(item_b, 4)])
        assert stalled.status == "failed"
        assert "s0" in system.crashed_servers()
        # A group disjoint from the dead leader keeps committing: the outage
        # is confined to the groups s0 led.
        assert system.run_transaction([WriteOp(item_c, 5), WriteOp(item_d, 6)]).committed

        assert system.recover_server("s0").caught_up
        outcome = system.fail_over("s0")
        assert outcome.successor == "s1"
        assert outcome.new_view == 1
        assert len(outcome.stalled_rounds) == 1
        assert "s0" in system.deposed_servers()

        # The re-proposed round committed through the re-formed group and the
        # ordered stream delivered it everywhere, the recovered s0 included.
        assert system.server("s1").store.read(item_b).value == 4
        assert len(set(system.log_heights().values())) == 1

        post = system.run_transaction([WriteOp(item_a, 7), WriteOp(item_b, 8)])
        assert post.committed
        assert system.server("s1").store.read(item_b).value == 8
        _assert_no_round_state(system)
        report = system.audit()
        assert report.ok, report.summary()

    def test_scaled_failover_requires_naming_the_leader(self, make_scaled_system):
        with pytest.raises(ConfigurationError):
            make_scaled_system().fail_over()

    def test_a_cohort_rewriting_its_group_head_height_is_discarded_not_fatal(
        self, make_scaled_system, lie
    ):
        """A group block's co-sign leaves its height out, so a cohort can
        rewrite its head's height to 10**6 - 1, recompute the hash and claim a
        frontier of 10**6 that still verifies.  It is above the successor's own
        log, so the liar lands in ``rejected_certificates``; the view change
        used to raise ``ProtocolInvariantError`` instead."""
        system = make_scaled_system(txns_per_block=1)
        item = system.shard_map.items_of("s1")[0]
        assert system.run_transaction([WriteOp(item, 1)]).committed

        def rewritten(report):
            certificate = report["certificate"]
            head = replace(Block.from_wire(certificate["head"]), height=10**6 - 1)
            certificate.update(head=head.to_wire(), head_hash=head.block_hash(), height=10**6)
            return report

        lie(system, "s3", MessageType.VIEW_CHANGE, rewritten)
        outcome = system.fail_over("s1")
        assert outcome.rejected_certificates == ["s3"]
        assert outcome.frontier_height == 1

    def test_suppressed_duplicate_reproposal_reports_the_original(self, make_scaled_system):
        # Regression: the leader dies *after* publishing (its block floats in
        # the reorder window, its cohorts are still armed), so the successor
        # re-proposes a round the ordering service already holds.  The
        # duplicate is suppressed; its result used to be filed under its own
        # view-1 digest, never delivered, and left saying "aborted, no height"
        # while the original committed at height 0.
        system = make_scaled_system(txns_per_block=1, reorder_window=2)
        item_a = system.shard_map.items_of("s0")[0]
        item_b = system.shard_map.items_of("s1")[0]
        system.run_transaction([WriteOp(item_a, 1), WriteOp(item_b, 2)])
        assert system.ordering.pending_count == 1
        system.crash_server("s0")
        system.recover_server("s0")
        outcome = system.fail_over("s0")
        assert len(outcome.stalled_rounds) == 1
        system.flush()

        assert system.ordering.stream_length == 1
        assert system.delivery.handoffs == {}
        original = system.coordinators["s0"].results[-1]
        duplicate = system.coordinators["s1"].results[-1]
        assert duplicate.block.view == 0  # the delivered block is the original's
        for result in (original, duplicate):
            assert result.status == "committed"
            assert result.block.block_hash() == system.server("s2").log[0].block_hash()
            assert [(o.status, o.block_height) for o in result.outcomes] == [("committed", 0)]
        assert system.server("s1").store.read(item_b).value == 2
        _assert_no_round_state(system)
        assert system.audit().ok


class TestTwoPhaseCommitCrashPaths:
    def test_cohort_crash_during_prepare_fails_the_round_cleanly(self, twopc_system):
        # Regression: a crashed cohort's synthesised response carries no vote
        # fields, and the tally used to KeyError on ``vote["involved"]``
        # instead of failing the round like TFCommit's phase-1 check.
        twopc_system.inject_fault("s2", crash_at("s2", "vote"))
        item = twopc_system.shard_map.items_of("s1")[0]
        outcome = twopc_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        result = twopc_system.coordinator.results[-1]
        assert any(
            r.unreachable and r.server_id == "s2"
            for r in result.refusals
        )
        # The live coordinator told the surviving cohorts to release their
        # prepared state; nothing was committed anywhere (a crashed server
        # has no log to inspect: its volatile state died with it).
        for cohort in ("s0", "s1"):
            assert twopc_system.servers[cohort].commitment.pending_round_count() == 0
            assert twopc_system.servers[cohort].log.height == 0

    def test_coordinator_crash_is_failed_over_in_trusted_mode(self, twopc_system):
        item = twopc_system.shard_map.items_of("s1")[0]
        _strand_round(twopc_system, item)
        # 2PC cohorts arm the same round timer as TFCommit's vote phase.
        for cohort in ("s1", "s2"):
            assert twopc_system.servers[cohort].commitment.pending_round_count() == 1

        assert twopc_system.recover_server("s0").caught_up
        outcome = twopc_system.fail_over()
        assert outcome.successor == "s1"
        # 2PC blocks carry no collective signature, so certificates are
        # strict-decoded but not co-sign-verified (trusted-infrastructure
        # baseline) -- they must still all decode.
        assert sorted(outcome.certificates) == ["s1", "s2"]
        assert outcome.rejected_certificates == []
        assert len(outcome.stalled_rounds) == 1

        assert all(height == 1 for height in twopc_system.log_heights().values())
        assert twopc_system.server("s1").store.read(item).value == 9
        assert twopc_system.run_transaction([WriteOp(item, 10)]).committed
        _assert_no_round_state(twopc_system)


class TestCrashDuringEquivocation:
    def test_cohort_crash_mid_equivocation_is_a_refusal_not_a_crash(self, small_system):
        # Regression: the split-payload challenge used to bypass
        # timed_exchange, so a cohort crashing while handling its challenge
        # raised UnreachableError straight through the coordinator instead of
        # becoming a synthesised refusal.
        small_system.inject_fault("s0", [FaultPlan("equivocate", "s0")])
        small_system.inject_fault("s2", crash_at("s2", "challenge"))
        item = small_system.shard_map.items_of("s1")[0]
        outcome = small_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        assert "s2" in small_system.crashed_servers()
        result = small_system.coordinator.results[-1]
        assert any(
            r.unreachable and r.server_id == "s2"
            for r in result.refusals
        )
        # Atomicity held, and the surviving cohort released its round state.
        for live in ("s0", "s1"):
            assert small_system.servers[live].log.height == 0
        assert small_system.servers["s1"].commitment.pending_round_count() == 0

    def test_equivocating_coordinator_is_deposed_and_cluster_recovers(self, small_system):
        small_system.inject_fault("s0", [FaultPlan("equivocate", "s0")])
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).status == "failed"

        # The failed round released its state, so the view change finds
        # nothing to re-propose -- deposing here is about fencing, not replay.
        outcome = small_system.fail_over(reason="equivocation detected")
        assert outcome.successor == "s1"
        assert outcome.stalled_rounds == []

        # s0 keeps its fault policy, but the equivocation hook only fires on
        # the coordinator role it no longer holds: the cluster commits again.
        post = small_system.run_transaction([ReadOp(item), WriteOp(item, 10)])
        assert post.committed
        assert small_system.coordinator.results[-1].block.view == 1
        assert small_system.server("s1").store.read(item).value == 10


class TestUnreachableTimeoutAccounting:
    """Regression: a silent peer used to charge a phantom RTT to the phase.

    No reply ever travels from a dead server, so the sender waits out the
    round timer; charging ``outbound + 0 + inbound`` modelled a round trip no
    machine experienced and made crashed-cohort rounds look *faster* than
    healthy ones.
    """

    def test_tfcommit_get_vote_charges_the_round_timeout(self, small_system):
        small_system.crash_server("s2")
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).status == "failed"
        timing = small_system.coordinator.results[-1].timing
        assert timing.phases["get_vote"] == pytest.approx(ROUND_TIMEOUT_S)
        # The wait is pure network idle time: it counts toward network time,
        # and no compute is attributed to the dead peer.
        assert timing.network_time >= ROUND_TIMEOUT_S

    def test_twopc_prepare_charges_the_round_timeout(self, twopc_system):
        twopc_system.crash_server("s2")
        item = twopc_system.shard_map.items_of("s1")[0]
        assert twopc_system.run_transaction([WriteOp(item, 9)]).status == "failed"
        timing = twopc_system.coordinator.results[-1].timing
        assert timing.phases["prepare"] == pytest.approx(ROUND_TIMEOUT_S)


class TestViewChangeUnits:
    def test_elect_successor_picks_the_next_smallest_live_member(self):
        assert elect_successor(["s2", "s0", "s1"], ["s0"]) == "s1"
        assert elect_successor(["s0", "s1", "s2"], ["s0", "s1"]) == "s2"

    def test_elect_successor_with_no_candidates_raises(self):
        with pytest.raises(ProtocolError):
            elect_successor(["s0", "s1"], ["s0", "s1"])

    def test_certificates_must_be_backed_by_a_cosigned_head(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).committed
        log = small_system.server("s1").log
        public_keys = small_system.network.public_key_directory()
        servers = small_system.server_ids
        honest = FrontierCertificate(
            server_id="s1",
            view=0,
            height=log.height,
            head_hash=log.head_hash,
            head=log.last_block().to_wire(),
        )
        assert honest.height == 1 and verify_certificate(honest, public_keys, servers, "s1")

        # A claimed frontier whose co-signed head does not hash to it is a
        # lie the successor discards.
        bad_hash = replace(honest, head_hash=b"\x00" * 32)
        assert not verify_certificate(bad_hash, public_keys, servers, "s1")
        # Nor is a frontier its head does not sit just below.
        assert not verify_certificate(replace(honest, height=10**6), public_keys, servers, "s1")
        assert not verify_certificate(replace(honest, height=2), public_keys, servers, "s1")
        # A non-empty frontier with no head proves nothing.
        assert not verify_certificate(replace(honest, head=None), public_keys, servers, "s1")
        # A certificate relayed under the wrong cohort id is discarded too.
        assert not verify_certificate(honest, public_keys, servers, "s2")
        # The trusted baseline checks who it is from, and nothing else.
        headless = replace(honest, head=None)
        assert verify_certificate(headless, public_keys, servers, "s1", trusted=True)
        assert not verify_certificate(honest, public_keys, servers, "s2", trusted=True)

    def test_already_committed_guards_reproposals(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).committed
        log = small_system.server("s1").log
        # A stalled-round report for a block whose decision did land is a
        # ghost: the successor must not run the round again.
        assert already_committed(log, log.last_block())
