"""End-to-end integration tests: workload -> commit -> audit across protocols."""

from __future__ import annotations


from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.net.latency import ConstantLatency
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import YcsbWorkload


def build_system(num_servers=4, items=50, batch=5, signing="hash", protocol="tfcommit"):
    config = SystemConfig(
        num_servers=num_servers,
        items_per_shard=items,
        txns_per_block=batch,
        ops_per_txn=3,
        message_signing=signing,
        seed=17,
    )
    return FidesSystem(config, protocol=protocol, latency=ConstantLatency(0.0002))


class TestEndToEnd:
    def test_workload_commit_audit_roundtrip(self):
        system = build_system()
        workload = YcsbWorkload(
            item_ids=system.shard_map.all_items(),
            ops_per_txn=3,
            conflict_free_window=5,
            seed=18,
        )
        result = system.run_workload(workload.generate(20))
        assert result.committed == 20
        assert set(system.log_heights().values()) == {4}
        report = system.audit()
        assert report.ok, report.summary()
        assert report.transactions_audited == 20

    def test_state_is_consistent_with_log_replay(self):
        system = build_system(batch=3)
        workload = YcsbWorkload(
            item_ids=system.shard_map.all_items(),
            ops_per_txn=3,
            conflict_free_window=3,
            seed=19,
        )
        system.run_workload(workload.generate(12))
        # Replay every committed write from the log and compare against the
        # actual datastores: they must agree item for item.
        expected = {}
        for block in system.server("s0").log:
            for txn in block.transactions if block.is_commit else ():
                for entry in txn.write_set:
                    expected[entry.item_id] = entry.new_value
        for item_id, value in expected.items():
            server = system.server(system.shard_map.server_for(item_id))
            assert server.store.read(item_id).value == value

    def test_multiple_clients_interleave(self):
        system = build_system(batch=1)
        items = system.shard_map.all_items()
        for index in range(6):
            outcome = system.run_transaction(
                [ReadOp(items[index]), WriteOp(items[index], index)], client_index=index % 3
            )
            assert outcome.committed
        assert system.audit().ok

    def test_schnorr_message_signing_end_to_end(self):
        system = build_system(num_servers=3, items=30, batch=1, signing="schnorr")
        item = system.shard_map.all_items()[0]
        assert system.run_transaction([ReadOp(item), WriteOp(item, 5)]).committed
        assert system.audit().ok

    def test_single_versioned_cluster(self):
        config = SystemConfig(
            num_servers=3,
            items_per_shard=30,
            txns_per_block=1,
            ops_per_txn=2,
            multi_versioned=False,
            message_signing="hash",
        )
        system = FidesSystem(config, latency=ConstantLatency(0.0002))
        item = system.shard_map.all_items()[0]
        assert system.run_transaction([ReadOp(item), WriteOp(item, 5)]).committed
        report = system.audit()
        assert report.ok, report.summary()

    def test_combined_faults_all_detected(self):
        """Several independent faults injected at once are all attributed correctly."""
        system = build_system(num_servers=4, batch=1)
        items_s1 = system.shard_map.items_of("s1")
        items_s2 = system.shard_map.items_of("s2")
        assert system.run_transaction([ReadOp(items_s1[0]), WriteOp(items_s1[0], 10)]).committed
        assert system.run_transaction([ReadOp(items_s2[0]), WriteOp(items_s2[0], 20)]).committed

        system.inject_fault(
            "s1", [FaultPlan("read-corruption", "s1", params={"item": items_s1[0], "value": 0})]
        )
        system.inject_fault(
            "s2", [FaultPlan("post-commit-corruption", "s2", params={"item": items_s2[0], "value": -5})]
        )
        assert system.run_transaction(
            [ReadOp(items_s1[0]), WriteOp(items_s1[0], 11)], client_index=1
        ).committed
        assert system.run_transaction(
            [ReadOp(items_s2[0]), WriteOp(items_s2[0], 21)], client_index=2
        ).committed
        # s3 truncates its log on top of everything else.
        system.server("s3").log.truncate(1)

        report = system.audit()
        assert not report.ok
        assert {"s1", "s2", "s3"} <= set(report.culprit_servers())
        assert "s0" not in report.culprit_servers()


class TestProtocolParity:
    def test_tfcommit_and_2pc_reach_the_same_final_state(self):
        specs = YcsbWorkload(
            item_ids=[f"item-{i:08d}" for i in range(120)],
            ops_per_txn=3,
            conflict_free_window=4,
            seed=23,
        ).generate(12)
        states = {}
        for protocol in ("tfcommit", "2pc"):
            system = build_system(num_servers=3, items=40, batch=4, protocol=protocol)
            result = system.run_workload(specs)
            assert result.committed == 12
            snapshot = {}
            for server in system.servers.values():
                snapshot.update(server.snapshot())
            states[protocol] = snapshot
        assert states["tfcommit"] == states["2pc"]
