"""Recoverability: a multi-versioned datastore keeps the last sanitised version.

Section 4.2.1: "If a failure occurs, the data can be reset to the last
sanitized version and the application can resume execution from there."
Corruption overwrites only the latest version, so the version an audit
vouches for stays readable beneath it.
"""

from __future__ import annotations

from repro.audit.violations import ViolationType
from repro.txn.operations import ReadOp, WriteOp


class TestRecovery:
    def test_the_last_clean_version_survives_corruption(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        first = small_system.run_transaction([ReadOp(item), WriteOp(item, 100)])
        second = small_system.run_transaction([ReadOp(item), WriteOp(item, 200)])
        assert first.committed and second.committed

        # The server corrupts the latest version; the audit pinpoints it.
        small_system.server("s1").store.corrupt(item, -1)
        report = small_system.audit()
        corruption = report.violations_of(ViolationType.DATASTORE_CORRUPTION)
        assert corruption
        bad_height = corruption[0].block_height

        # The version committed by the block before the corruption is intact.
        clean_ts = small_system.server("s0").log[bad_height - 1].max_commit_ts
        store = small_system.server("s1").store
        assert store.read(item).value == -1
        assert store.read_version(item, clean_ts).value == 100

    def test_every_earlier_version_survives_corruption(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        for value in (100, 200, 300):
            assert small_system.run_transaction([ReadOp(item), WriteOp(item, value)]).committed
        store = small_system.server("s1").store
        stamps = [block.max_commit_ts for block in small_system.server("s0").log]
        store.corrupt(item, -1)
        assert [store.read_version(item, ts).value for ts in stamps] == [100, 200, -1]
