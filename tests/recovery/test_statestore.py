"""Tests for the durable state layer: snapshots, WAL framing, compaction."""

from __future__ import annotations

import os
import struct

import pytest

from repro.common.config import SystemConfig
from repro.common.encoding import canonical_encode
from repro.common.errors import RecoveryError
from repro.common.timestamps import Timestamp
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import single_sequencer
from repro.ledger.checkpoint import Checkpoint
from repro.net.latency import ConstantLatency
from repro.recovery.statestore import FileStateStore, MemoryStateStore
from repro.sim.context import FixedCompute
from repro.storage.datastore import DataStore
from repro.workload.ycsb import PartitionedWorkload

from store_helpers import journal


@pytest.fixture(params=["memory", "file"])
def state_store(request, tmp_path):
    if request.param == "memory":
        store = MemoryStateStore()
    else:
        store = FileStateStore(str(tmp_path / "server.wal"))
    yield store
    store.close()


def datastore_state(values=None):
    return DataStore(values or {"item-1": 41, "item-9": 0}).export_state()


class TestSnapshotAndBlocks:
    def test_initialize_then_load_round_trips_datastore(self, state_store):
        state_store.initialize("s0", datastore_state())
        state = state_store.load()
        assert state.server_id == "s0"
        assert state.checkpoint is None
        assert state.snapshot_next_height == 0
        assert state.blocks == []
        restored = DataStore.import_state(state.datastore_state)
        assert restored.snapshot() == {"item-1": 41, "item-9": 0}

    def test_initialize_is_idempotent(self, state_store, block_factory):
        state_store.initialize("s0", datastore_state())
        state_store.record_block(block_factory(), b"\x01" * 32)
        # A process restart re-runs the constructor path: the existing
        # journal must win over the fresh genesis snapshot.
        state_store.initialize("s0", datastore_state({"item-1": -1}))
        state = state_store.load()
        assert len(state.blocks) == 1
        restored = DataStore.import_state(state.datastore_state)
        assert restored.snapshot()["item-1"] == 41

    def test_blocks_round_trip_in_order_with_roots(self, state_store, block_factory):
        state_store.initialize("s0", datastore_state())
        blocks = [block_factory(), block_factory(group=("s0", "s1"))]
        for index, block in enumerate(blocks):
            state_store.record_block(block, bytes([index]) * 32)
        state = state_store.load()
        assert [b.block_hash() for b, _ in state.blocks] == [
            b.block_hash() for b in blocks
        ]
        assert [root for _, root in state.blocks] == [b"\x00" * 32, b"\x01" * 32]

    def test_loading_an_empty_store_fails(self, state_store):
        with pytest.raises(RecoveryError):
            state_store.load()


class TestCheckpointCompaction:
    def test_install_checkpoint_drops_covered_blocks(self, state_store, block_factory):
        state_store.initialize("s0", datastore_state())
        covered = block_factory()  # height 4
        state_store.record_block(covered, b"\x01" * 32)
        checkpoint = Checkpoint(
            height=4,
            head_hash=covered.block_hash(),
            shard_roots={"s0": b"\x02" * 32},
            latest_commit_ts=Timestamp(9, "c"),
            transactions_covered=2,
        )
        state_store.install_checkpoint(
            checkpoint, datastore_state({"item-1": 42, "item-9": 0}), 5, "s0"
        )
        state = state_store.load()
        assert state.checkpoint is not None
        assert state.checkpoint.height == 4
        assert state.snapshot_next_height == 5
        assert state.blocks == []
        assert state.log_base_height == 5

    def test_blocks_after_checkpoint_are_retained(self, state_store, block_factory):
        state_store.initialize("s0", datastore_state())
        newer = block_factory()  # height 4
        state_store.record_block(newer, b"\x01" * 32)
        checkpoint = Checkpoint(
            height=3,
            head_hash=newer.previous_hash,
            shard_roots={},
            latest_commit_ts=Timestamp(1, "c"),
            transactions_covered=0,
        )
        state_store.install_checkpoint(checkpoint, datastore_state(), 5, "s0")
        state = state_store.load()
        # Height 4 > checkpoint height 3: the block survives compaction as
        # retained log content (already reflected in the snapshot).
        assert [b.height for b, _ in state.blocks] == [4]
        assert state.snapshot_next_height == 5


class TestWalRobustness:
    def test_torn_tail_is_ignored(self, tmp_path, block_factory):
        path = tmp_path / "server.wal"
        store = FileStateStore(str(path))
        store.initialize("s0", datastore_state())
        store.record_block(block_factory(), b"\x01" * 32)
        store.close()
        # Simulate a crash mid-append: chop bytes off the last frame.
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        reopened = FileStateStore(str(path))
        state = reopened.load()
        assert state.blocks == []  # torn block frame dropped, snapshot intact
        reopened.close()

    def test_corrupt_payload_stops_the_scan(self, tmp_path, block_factory):
        path = tmp_path / "server.wal"
        store = FileStateStore(str(path))
        store.initialize("s0", datastore_state())
        store.record_block(block_factory(), b"\x01" * 32)
        store.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last frame
        path.write_bytes(bytes(data))
        reopened = FileStateStore(str(path))
        assert reopened.load().blocks == []
        reopened.close()

    def test_a_failed_compaction_leaves_the_old_journal_appendable(
        self, tmp_path, block_factory, monkeypatch
    ):
        """The live handle used to be closed before the rename: a rename that
        failed left a closed handle and a stray ``.tmp``, and the next append
        raised ``ValueError: write to closed file``."""
        path = tmp_path / "server.wal"
        store = FileStateStore(str(path))
        store.initialize("s0", datastore_state())
        covered = block_factory()  # height 4
        store.record_block(covered, b"\x01" * 32)
        before = journal(store)
        checkpoint = Checkpoint(4, covered.block_hash(), {}, Timestamp(9, "c"), 2)

        def refuse(source, destination):
            raise OSError("rename refused")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refuse)
            with pytest.raises(OSError, match="rename refused"):
                store.install_checkpoint(checkpoint, datastore_state(), 5, "s0")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["server.wal"]
        assert journal(store) == before
        assert [b.height for b, _ in store.load().blocks] == [4]
        store.record_block(block_factory(height=5), b"\x02" * 32)
        assert [b.height for b, _ in store.load().blocks] == [4, 5]
        # The next compaction goes through, and appends follow it.
        store.install_checkpoint(checkpoint, datastore_state(), 5, "s0")
        store.record_block(block_factory(height=6), b"\x03" * 32)
        assert [b.height for b, _ in store.load().blocks] == [5, 6]
        store.close()
        reopened = FileStateStore(str(path))
        assert [b.height for b, _ in reopened.load().blocks] == [5, 6]
        reopened.close()

    def test_wal_survives_reopen(self, tmp_path, block_factory):
        path = tmp_path / "server.wal"
        store = FileStateStore(str(path))
        store.initialize("s0", datastore_state())
        store.record_block(block_factory(), b"\x01" * 32)
        store.close()
        reopened = FileStateStore(str(path))
        state = reopened.load()
        assert len(state.blocks) == 1
        reopened.close()


def snapshot_dict(**changes):
    """The snapshot record as plain data -- what the store wrote before its
    records were declared forms, and what a hand-edited WAL would hold."""
    record = {
        "kind": "snapshot",
        "server_id": "s0",
        "next_height": 0,
        "datastore": datastore_state(),
        "checkpoint": None,
    }
    datastore_changes = changes.pop("datastore", {})
    record.update(changes)
    record["datastore"] = {**record["datastore"], **datastore_changes}
    return record


def block_dict(block, **changes):
    return {"kind": "block", "block": block, "shard_root": b"\x01" * 32, **changes}


def first_difference(honest: bytes, hostile: bytes) -> int:
    return next(i for i, (a, b) in enumerate(zip(honest, hostile)) if a != b)


class TestRecordsAreCheckedNotCoerced:
    """``load()`` used to take a record's envelope as it came: ``server_id``
    7 loaded as 7, ``next_height`` "3" as ``int("3")``, a junk key was
    ignored and ``shard_root`` was never looked at.  The records are declared
    forms now, read by the derived byte reader: anything the store could not
    have written is refused, and the refusal names the record's place in the
    journal and the byte inside it at which reading stopped."""

    def test_the_snapshot_that_used_to_load(self, state_store):
        state_store._append(
            canonical_encode(
                {
                    "kind": "snapshot",
                    "server_id": 7,
                    "next_height": "3",
                    "datastore": DataStore({"item-1": 41}).export_state(),
                    "checkpoint": None,
                    "junk": [1, 2],
                }
            )
        )
        with pytest.raises(RecoveryError, match=r"record 0: .*\(at byte 4\)"):
            state_store.load()

    @pytest.mark.parametrize(
        "changes",
        [
            {"server_id": 7},
            {"server_id": b"s0"},
            {"next_height": "3"},
            {"next_height": True},
            {"next_height": 3.0},
            {"datastore": {"multi_versioned": 1}},
            {"datastore": {"junk": None}},
            {"checkpoint": []},
            {"junk": [1, 2]},
        ],
        ids=[
            "server-id-int", "server-id-bytes", "next-height-str", "next-height-bool",
            "next-height-float", "multi-versioned-int", "junk-in-datastore", "checkpoint-a-list",
            "junk-key",
        ],
    )
    def test_a_hostile_snapshot_record_is_refused_where_it_departs(self, state_store, changes):
        honest = canonical_encode(snapshot_dict())
        hostile = canonical_encode(snapshot_dict(**changes))
        state_store.initialize("s0", datastore_state())
        state_store._append(hostile)
        stopped = first_difference(honest, hostile)
        with pytest.raises(RecoveryError, match=rf"record 1: .*\(at byte {stopped}\)"):
            state_store.load()

    @pytest.mark.parametrize(
        "changes",
        [
            {"shard_root": "not-bytes"},
            {"shard_root": None},
            {"kind": "bogus"},
            {"kind": "snapshot"},
            {"junk": 0},
        ],
        ids=["shard-root-str", "shard-root-none", "unknown-kind", "lying-kind", "junk-key"],
    )
    def test_a_hostile_block_record_is_refused_where_it_departs(
        self, state_store, block_factory, changes
    ):
        honest = canonical_encode(block_dict(block_factory()))
        hostile = canonical_encode(block_dict(block_factory(), **changes))
        state_store.initialize("s0", datastore_state())
        state_store.record_block(block_factory(), b"\x01" * 32)
        state_store._append(hostile)
        stopped = first_difference(honest, hostile)
        with pytest.raises(RecoveryError, match=rf"record 2: .*\(at byte {stopped}\)"):
            state_store.load()
        # Compaction reads the same records the same way.
        with pytest.raises(RecoveryError, match="record 2"):
            state_store.install_checkpoint(
                Checkpoint(3, b"\x00" * 32, {}, Timestamp(1, "c"), 0), datastore_state(), 5, "s0"
            )

    def test_the_shard_root_is_checked_below_the_snapshot_height_too(
        self, state_store, block_factory
    ):
        state_store.initialize("s0", datastore_state())
        state_store.install_checkpoint(
            Checkpoint(9, b"\x00" * 32, {}, Timestamp(1, "c"), 0), datastore_state(), 10, "s0"
        )
        state_store._append(canonical_encode(block_dict(block_factory(), shard_root=7)))
        with pytest.raises(RecoveryError, match="record 1"):
            state_store.load()

    def test_a_block_record_before_any_snapshot(self, state_store, block_factory):
        state_store.record_block(block_factory(), b"\x01" * 32)
        with pytest.raises(RecoveryError, match="record 0 is a block record before any snapshot"):
            state_store.load()

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"N",
            b"\xff" * 40,
            canonical_encode([1, 2]),
            canonical_encode({"kind": "block"}),
            canonical_encode(snapshot_dict())[:-3],
            canonical_encode(snapshot_dict()) + b"N",
            b"L\x00\x00\x00\x01" * 5000 + b"N",
        ],
        ids=["empty", "none", "noise", "a-list", "kind-only", "cut", "trailing", "25KB-of-nesting"],
    )
    def test_whatever_is_wrong_load_raises_recovery_error(self, state_store, payload):
        state_store.initialize("s0", datastore_state())
        state_store._append(payload)
        with pytest.raises(RecoveryError, match="record 1"):
            state_store.load()

    def test_deep_nesting_inside_a_stored_value(self, state_store):
        """25 KB of list headers where a value belongs used to end ``load()``
        with ``RecursionError``."""
        deep = b"L\x00\x00\x00\x01" * 5000 + b"N"
        honest = canonical_encode(snapshot_dict())
        value = canonical_encode("value") + canonical_encode(41)
        assert honest.count(value) == 1
        state_store._append(honest.replace(value, canonical_encode("value") + deep))
        with pytest.raises(RecoveryError, match="nested too deeply"):
            state_store.load()

    def test_a_record_spelled_as_plain_data_still_loads(self, state_store, block_factory):
        """The forms did not change the bytes: a WAL written by the dict-building
        store loads."""
        state_store._append(canonical_encode(snapshot_dict(server_id="s7", next_height=3)))
        state_store._append(canonical_encode(block_dict(block_factory().to_wire())))
        state = state_store.load()
        assert (state.server_id, state.snapshot_next_height) == ("s7", 3)
        assert [block.block_hash() for block, _ in state.blocks] == [block_factory().block_hash()]
        restored = DataStore.import_state(state.datastore_state)
        assert restored.snapshot() == {"item-1": 41, "item-9": 0}


class TestTornTailIsCut:
    """A record appended after a torn tail used to sit behind bytes no load
    reads past: loading stopped at the torn frame, but the append handle kept
    writing after it, so every later load missed the record."""

    def test_a_record_appended_after_a_torn_tail_is_loaded(self, tmp_path, block_factory):
        path = tmp_path / "server.wal"
        store = FileStateStore(str(path))
        store.initialize("s0", datastore_state())
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(struct.pack(">II", 100, 0) + b"\x00" * 7)  # promises 100 bytes
        assert store.load().blocks == []
        assert path.stat().st_size == intact  # cut back to the last intact frame
        store.record_block(block_factory(), b"\x01" * 32)
        assert [b.height for b, _ in store.load().blocks] == [4]
        store.close()
        reopened = FileStateStore(str(path))
        assert [b.height for b, _ in reopened.load().blocks] == [4]
        reopened.close()

    def test_blocks_fetched_after_a_torn_tail_are_restored_next_time(self, tmp_path):
        config = SystemConfig(
            num_servers=3,
            items_per_shard=40,
            txns_per_block=2,
            ops_per_txn=2,
            multi_versioned=False,
            message_signing="hash",
            seed=7,
        )
        system = ScaledFidesSystem(
            config,
            latency=ConstantLatency(0.0002),
            compute_model=FixedCompute(0.0005),
            sequencer=single_sequencer(0),
            state_store_factory=lambda sid: FileStateStore(str(tmp_path / f"{sid}.wal")),
        )

        def commit(server_ids, count, seed):
            workload = PartitionedWorkload(
                partitions=[system.shard_map.items_of(sid) for sid in server_ids],
                ops_per_txn=2,
                locality=1.0,
                conflict_free_window=2,
                seed=seed,
            )
            assert system.run_workload(workload.generate(count)).committed == count

        commit(config.server_ids, 10, seed=7)
        system.crash_server("s1")
        commit(["s0", "s2"], 6, seed=8)
        with open(tmp_path / "s1.wal", "ab") as handle:
            handle.write(struct.pack(">II", 100, 0) + b"\x00" * 7)  # a torn frame
        first = system.recover_server("s1")
        assert first.fetched_blocks > 0
        system.crash_server("s1")
        second = system.recover_server("s1")
        assert second.restored_blocks == first.restored_blocks + first.fetched_blocks
        assert second.fetched_blocks == 0
        for server in system.servers.values():
            server.state_store.close()
