"""Crash -> restore -> catch-up -> verify -> rejoin, on live deployments."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    ConfigurationError,
    RecoveryError,
    UnreachableError,
)
from repro.crypto.keys import keypair_for
from repro.net.forms import RoundFailed, StateResponse
from repro.net.message import MessageType
from repro.recovery.statestore import FileStateStore
from repro.server.faults import FaultPlan


def crash_at(server_id: str, phase: str):
    """``server_id`` crashes (once) at its first observation of ``phase``."""
    return [FaultPlan("crash", server_id, {"kind": "phase", "phases": [phase]})]


def tamper_catchup(server_id: str):
    """``server_id`` doctors the first block of every catch-up range it serves."""
    return [FaultPlan("tamper-catchup", server_id)]


class TestNetworkRejoin:
    """Satellite: handler re-registration semantics on the Network."""

    def test_duplicate_registration_is_rejected(self, small_system):
        network = small_system.network
        with pytest.raises(ConfigurationError):
            network.register("s0", small_system.server("s0").keypair, lambda e: None)

    def test_rejoin_with_replace_keeps_per_node_stats(self, small_system, run_history):
        run_history(small_system, count=2)
        network = small_system.network
        metrics = small_system.sim.obs.metrics
        delivered_before = metrics.counter_value("net.delivered.s1")
        assert delivered_before > 0
        server = small_system.server("s1")
        network.unregister("s1")
        network.register("s1", server.keypair, server.handle, replace=True)
        run_history(small_system, count=2, seed=77)
        assert metrics.counter_value("net.delivered.s1") > delivered_before

    def test_rejoin_with_a_different_key_is_rejected(self, small_system):
        network = small_system.network
        server = small_system.server("s1")
        network.unregister("s1")
        with pytest.raises(ConfigurationError):
            network.register(
                "s1", keypair_for("impostor", seed=1), server.handle, replace=True
            )

    def test_unregistered_participant_is_unreachable_but_keeps_its_key(
        self, small_system
    ):
        network = small_system.network
        network.unregister("s2")
        assert "s2" in network.public_key_directory()
        with pytest.raises(UnreachableError):
            network.send("s0", "s2", MessageType.ROUND_FAILED, RoundFailed(("height", 0)))
        assert small_system.sim.obs.metrics.counter_value("net.undeliverable") == 1


class TestCrashLifecycle:
    def test_crash_drops_volatile_state_and_recover_restores_it(
        self, small_system, run_history
    ):
        run_history(small_system, count=4)
        server = small_system.server("s1")
        snapshot_before = server.snapshot()
        height_before = server.log.height
        small_system.crash_server("s1")
        assert server.crashed
        assert server.store is None and server.log is None
        result = small_system.recover_server("s1")
        assert result.restored_blocks == height_before
        assert result.fetched_blocks == 0
        assert server.log.height == height_before
        assert server.snapshot() == snapshot_before
        # The recovered tree is byte-identical to one rebuilt from scratch
        # over the same values (no stale internal nodes survive recovery).
        from repro.crypto.merkle import MerkleTree

        assert server.store.merkle_root() == MerkleTree(server.snapshot()).root

    def test_mid_round_crash_fails_round_releases_state_and_recovers(
        self, small_system, run_history, workload_factory
    ):
        run_history(small_system, count=3)
        small_system.inject_fault("s2", crash_at("s2", "vote"))
        workload = workload_factory(small_system, seed=91)
        result = small_system.run_workload(workload.generate(3))
        assert result.committed == 0 and result.failed == 3
        assert "s2" in small_system.crashed_servers()
        # The failed rounds broadcast ROUND_FAILED: no cohort leaks RoundState.
        for server_id in ("s0", "s1"):
            assert small_system.server(server_id).commitment.pending_round_count() == 0
        failed = [r for r in small_system.coordinator.results if r.status == "failed"]
        assert failed and any(
            refusal.unreachable and refusal.server_id == "s2"
            for refusal in failed[0].refusals
        )
        recovery = small_system.recover_server("s2")
        assert recovery.caught_up
        after = small_system.run_workload(workload.generate(3))
        assert after.committed == 3
        assert small_system.audit().ok

    def test_recovering_server_fetches_blocks_missed_at_decision_time(
        self, small_system, run_history
    ):
        run_history(small_system, count=2)
        small_system.inject_fault("s1", crash_at("s1", "decision"))
        run_history(small_system, count=1, seed=63)  # commits; s1 misses the block
        assert "s1" in small_system.crashed_servers()
        result = small_system.recover_server("s1")
        assert result.fetched_blocks == 1
        assert result.served_by
        heads = {srv.log.head_hash for srv in small_system.servers.values()}
        assert len(heads) == 1
        assert small_system.audit().ok

    def test_tampered_catchup_response_is_rejected(self, small_system, run_history):
        run_history(small_system, count=2)
        small_system.inject_fault("s1", crash_at("s1", "decision"))
        run_history(small_system, count=1, seed=63)
        small_system.inject_fault("s2", tamper_catchup("s2"))
        result = small_system.recover_server("s1", peer_order=["s2", "s0"])
        assert result.rejected_peers == ("s2",)
        assert "invalid collective signature" in result.rejected[0][1]
        assert result.served_by == "s0"
        assert small_system.audit().ok

    def test_lagging_first_peer_cannot_end_recovery_stale(
        self, small_system, run_history
    ):
        """A peer claiming a low head (lagging or lying) must not terminate
        catch-up early: every peer is consulted, so the honest up-to-date
        peer still brings the server to the real head."""
        run_history(small_system, count=2)
        small_system.inject_fault("s1", crash_at("s1", "decision"))
        run_history(small_system, count=1, seed=63)
        network = small_system.network
        restored_height = small_system.server("s0").log.height - 1

        def lagging_handler(envelope):
            # "You are already caught up."
            return StateResponse(head_height=restored_height, blocks=()).to_wire()

        network.register("laggard", keypair_for("laggard", seed=3), lagging_handler)
        result = small_system.recover_server("s1", peer_order=["laggard", "s0"])
        assert result.caught_up
        assert result.served_by == "s0"
        assert small_system.server("s1").log.height == small_system.server(
            "s0"
        ).log.height

    def test_recovery_fails_when_every_peer_lies(self, small_system, run_history):
        run_history(small_system, count=2)
        small_system.inject_fault("s1", crash_at("s1", "decision"))
        run_history(small_system, count=1, seed=63)
        small_system.inject_fault("s0", tamper_catchup("s0"))
        small_system.inject_fault("s2", tamper_catchup("s2"))
        with pytest.raises(RecoveryError):
            small_system.recover_server("s1", peer_order=["s0", "s2"])

    def test_stale_checkpoint_install_is_a_noop_and_state_stays_recoverable(
        self, small_system, run_history
    ):
        """Re-delivering an older checkpoint must not regress the installed
        boundary or rewrite the WAL -- the server must stay recoverable."""
        run_history(small_system, count=2)
        first = small_system.create_checkpoint()
        run_history(small_system, count=2, seed=77)
        second = small_system.create_checkpoint()
        server = small_system.server("s1")
        assert server.install_checkpoint(first) == 0
        assert server.latest_checkpoint is second
        assert server.state_store.load().checkpoint.height == second.height
        run_history(small_system, count=1, seed=78)
        small_system.crash_server("s1")
        result = small_system.recover_server("s1")
        assert result.from_checkpoint_height == second.height
        assert small_system.audit().ok

    def test_recovery_from_checkpoint_replays_nothing_before_it(
        self, small_system, run_history
    ):
        run_history(small_system, count=4)
        checkpoint = small_system.create_checkpoint()
        run_history(small_system, count=2, seed=77)
        small_system.crash_server("s1")
        result = small_system.recover_server("s1")
        assert result.from_checkpoint_height == checkpoint.height
        assert result.restored_blocks == 2  # only the post-checkpoint suffix
        server = small_system.server("s1")
        assert server.log.base_height == checkpoint.height + 1
        assert server.latest_checkpoint is not None
        assert small_system.audit().ok


class TestFileWalRecovery:
    def test_recovery_through_a_real_wal(self, make_system, tmp_path, workload_factory):
        system = make_system()
        stores = []
        try:
            # Swap every server onto a file WAL before any history accumulates.
            for server_id, server in system.servers.items():
                stores.append(FileStateStore(str(tmp_path / f"{server_id}.wal")))
                server.state_store = stores[-1]
                server.state_store.initialize(server_id, server.store.export_state())
            workload = workload_factory(system, seed=5)
            assert system.run_workload(workload.generate(4)).committed == 4
            system.crash_server("s2")
            assert system.run_workload(workload.generate(2)).committed == 0
            result = system.recover_server("s2")
            assert result.restored_blocks > 0
            assert system.server("s2").log.height == system.server("s0").log.height
            assert system.run_workload(workload.generate(2)).committed == 2
            assert system.audit().ok
        finally:
            for store in stores:
                store.close()
