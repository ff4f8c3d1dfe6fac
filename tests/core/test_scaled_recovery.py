"""End-to-end crash recovery inside the scaled multi-coordinator deployment.

The acceptance scenario of the recovery subsystem: in a
:class:`ScaledFidesSystem` run, a group member crashes mid-round, the round
fails and releases its state, other groups keep committing (the ordered
stream keeps flowing while the crashed server misses deliveries), the server
recovers from its latest checkpoint via peer catch-up -- rejecting one
tampered state response along the way -- rejoins, and the workload
completes with all servers holding identical, auditor-clean logs.
"""

from __future__ import annotations

from repro.server.faults import FaultPlan


class TestScaledCrashRecoveryEndToEnd:
    def test_full_scenario(self, make_scaled_system, workload_factory):
        system = make_scaled_system(num_servers=4, txns_per_block=2)
        workload = workload_factory(system, ops_per_txn=2, window=2, seed=13)

        # Phase 1: healthy traffic, then a checkpoint truncates every log.
        first = system.run_workload(workload.generate(8))
        assert first.committed == 8
        checkpoint = system.create_checkpoint()
        assert all(
            server.log.base_height == checkpoint.height + 1
            for server in system.servers.values()
        )

        # Phase 2: a group member crashes mid-round (vote phase).
        system.inject_fault("s3", [FaultPlan("crash", "s3", {"kind": "phase", "phases": ["vote"]})])
        second = system.run_workload(workload.generate(10))
        assert "s3" in system.crashed_servers()
        assert second.failed > 0
        # Phase 2b: with s3 down, groups that do not contain it keep
        # committing -- this is the catch-up gap recovery must fill.
        gap = system.run_workload(workload.generate(10))
        assert gap.committed > 0
        # The failed round observed s3 as unreachable, never as malicious.
        unreachable_refusals = [
            refusal
            for coordinator in system.coordinators.values()
            for result in coordinator.results
            for refusal in result.refusals
            if refusal.unreachable
        ]
        assert any(r.server_id == "s3" for r in unreachable_refusals)
        # Failed rounds released their cohort state (ROUND_FAILED worked).
        for server_id in ("s0", "s1", "s2"):
            assert system.servers[server_id].commitment.pending_round_count() == 0

        # Phase 3: recovery from the latest checkpoint via peer catch-up,
        # with the first consulted peer serving tampered blocks.
        system.inject_fault("s1", [FaultPlan("tamper-catchup", "s1", params={"value": 424_242})])
        result = system.recover_server("s3", peer_order=["s1", "s0", "s2"])
        assert system.servers["s1"].faults.fired(), "the tampered response was never exercised"
        assert result.rejected_peers == ("s1",)
        assert result.served_by == "s0"
        assert result.from_checkpoint_height == checkpoint.height
        assert result.fetched_blocks > 0
        assert not system.crashed_servers()
        system.inject_fault("s1", [])  # back to honest

        # Phase 4: the rejoined server participates in new rounds.  (A
        # workload-level OCC abort is possible -- the generator's
        # conflict-free window does not span run_workload calls -- but
        # nothing may *fail*: every server is reachable again.)
        third = system.run_workload(workload.generate(8))
        assert third.failed == 0
        assert third.committed >= 6

        # All servers hold identical logs...
        heights = {server.log.height for server in system.servers.values()}
        heads = {server.log.head_hash for server in system.servers.values()}
        assert len(heights) == 1 and len(heads) == 1
        # ... every server (including the recovered one) appended blocks past
        # the crash point...
        assert system.servers["s3"].log.height > result.restored_blocks
        # ... and the auditor -- checkpoint-aware -- finds nothing to report.
        report = system.audit()
        assert report.ok, report.summary()
        assert report.reference_log_length == system.servers["s0"].log.height

    def test_crashed_server_misses_ordered_deliveries_not_the_stream(
        self, make_scaled_system, workload_factory
    ):
        """While a server is down the ordered stream keeps flowing; its gap
        is exactly the deliveries it missed, which catch-up then fills."""
        system = make_scaled_system(num_servers=4, txns_per_block=2)
        workload = workload_factory(system, ops_per_txn=2, window=2, seed=21)
        assert system.run_workload(workload.generate(6)).committed == 6
        system.crash_server("s3")
        before = len(system.delivery_failures)
        result = system.run_workload(workload.generate(6))
        assert result.committed > 0
        missed = [
            failure
            for failure in system.delivery_failures[before:]
            if failure.unreachable and failure.server_id == "s3"
        ]
        assert len(missed) > 0
        recovery = system.recover_server("s3")
        assert recovery.fetched_blocks == len(missed)
        assert system.servers["s3"].log.height == system.servers["s0"].log.height
        assert system.audit().ok
