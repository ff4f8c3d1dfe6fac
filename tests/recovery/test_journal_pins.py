"""Pinned journal bytes and a pinned ``load()``: what reading the WAL must keep.

The literals here were recorded at the commit *before* the journal records
became declared wire forms read by a derived byte reader, through the state
store's public surface only (``initialize`` / ``record_block`` /
``install_checkpoint`` / ``load``), so a change of how records are written or
read must leave every one of them untouched:

* the bytes of each record the store appends, and of the journal
  ``install_checkpoint`` leaves behind (``recovery.wal_bytes`` is an exact
  counter, and a WAL written before the change must still load after it);
* what ``load()`` makes of a real multi-block WAL, as a structural
  fingerprint: server id, next height, every block's ``block_hash()``, the
  recorded shard roots and the Merkle root the restored datastore ends on.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.config import SystemConfig
from repro.common.encoding import canonical_encode
from repro.common.timestamps import Timestamp
from repro.core.fides import FidesSystem
from repro.ledger.checkpoint import Checkpoint
from repro.net.latency import ConstantLatency
from repro.recovery.manager import restore_from_state
from repro.recovery.statestore import FileStateStore, MemoryStateStore
from repro.storage.datastore import DataStore
from repro.workload.ycsb import YcsbWorkload

from store_helpers import apply_commit, journal


@pytest.fixture(params=["memory", "file"])
def state_store(request, tmp_path):
    if request.param == "memory":
        store = MemoryStateStore()
    else:
        store = FileStateStore(str(tmp_path / "server.wal"))
    yield store
    store.close()


def digest(*payloads: bytes) -> str:
    return hashlib.sha256(b"".join(payloads)).hexdigest()


def versioned_store() -> DataStore:
    """Two items, one of them written twice and read once: chains of 3 and 1."""
    store = DataStore({"item-1": 41, "item-9": 0})
    apply_commit(store, Timestamp(3, "c1"), {"item-1": 42}, reads=["item-9"])
    apply_commit(store, Timestamp(5, "c2"), {"item-1": [1, "two", b"3"]})
    return store


def covering_checkpoint(block) -> Checkpoint:
    return Checkpoint(
        height=block.height,
        head_hash=block.block_hash(),
        shard_roots={"s0": b"\x02" * 32},
        latest_commit_ts=Timestamp(9, "c"),
        transactions_covered=2,
    )


class TestRecordBytesArePinned:
    GENESIS_SNAPSHOT = "df46ba53065ab16c2a752084c97f2572870773eb918d024bbfccfc19442f100d"
    BLOCK_RECORDS = "db52587e4b0d292dd130b7beb0b29db5d9178650e8819a12776b0596998f1e57"

    def test_the_genesis_snapshot_record(self, state_store):
        state_store.initialize("s0", versioned_store().export_state())
        (snapshot,) = journal(state_store)
        assert digest(snapshot) == self.GENESIS_SNAPSHOT
        assert state_store.size_bytes() >= len(snapshot)

    def test_block_records_classic_and_group(self, state_store, block_factory):
        state_store.initialize("s0", versioned_store().export_state())
        state_store.record_block(block_factory(), b"\x01" * 32)
        state_store.record_block(block_factory(group=("s0", "s1"), height=5), b"\x02" * 32)
        _, first, second = journal(state_store)
        assert digest(first, second) == self.BLOCK_RECORDS
        # A record is the encoding of this plain dict, whoever builds it.
        block = block_factory()
        assert first == canonical_encode(
            {"kind": "block", "block": block.to_wire(), "shard_root": b"\x01" * 32}
        )


class TestCompactedJournalIsPinned:
    """The two checkpoint cases of ``test_statestore.py``, byte for byte."""

    COVERED_DROPPED = "5dc6d552d5601ab583cc64555a0993a6cb65e4573d966580fa586c0c6e24839f"
    NEWER_RETAINED = "5ad4609fe15f4dde24dac636b07bf2b4058a672532eecd37a83f245f963d4c73"

    def test_a_covered_block_is_dropped(self, state_store, block_factory):
        state_store.initialize("s0", versioned_store().export_state())
        covered = block_factory()  # height 4
        state_store.record_block(covered, b"\x01" * 32)
        state_store.install_checkpoint(
            covering_checkpoint(covered), versioned_store().export_state(), 5, "s0"
        )
        (snapshot,) = journal(state_store)
        assert digest(snapshot) == self.COVERED_DROPPED

    def test_newer_blocks_are_retained_as_they_were_written(self, state_store, block_factory):
        state_store.initialize("s0", versioned_store().export_state())
        covered = block_factory()  # height 4
        state_store.record_block(covered, b"\x01" * 32)
        state_store.record_block(block_factory(height=5), b"\x02" * 32)
        state_store.record_block(block_factory(group=("s0", "s1"), height=6), b"\x03" * 32)
        before = journal(state_store)
        state_store.install_checkpoint(
            covering_checkpoint(covered), versioned_store().export_state(), 7, "s0"
        )
        after = journal(state_store)
        assert digest(*after) == self.NEWER_RETAINED
        # Compaction re-writes retained records as the bytes it read.
        assert after[1:] == before[2:]
        assert [b.height for b, _ in state_store.load().blocks] == [5, 6]


def build_system(factory) -> FidesSystem:
    config = SystemConfig(
        num_servers=3,
        items_per_shard=40,
        txns_per_block=2,
        ops_per_txn=2,
        multi_versioned=True,
        message_signing="hash",
        seed=23,
    )
    return FidesSystem(config, latency=ConstantLatency(0.0002), state_store_factory=factory)


def commit(system: FidesSystem, count: int, seed: int) -> None:
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(), ops_per_txn=2, conflict_free_window=0, seed=seed
    )
    assert system.run_workload(workload.generate(count)).committed == count


def load_fingerprint(state_store) -> dict:
    """What ``load()`` recovers, down to hashes, and the root its replay ends on."""
    state = state_store.load()
    store, log = restore_from_state(state)
    return {
        "server_id": state.server_id,
        "next_height": state.snapshot_next_height,
        "checkpoint": state.checkpoint.digest().hex() if state.checkpoint else None,
        "snapshot_root": DataStore.import_state(state.datastore_state).merkle_root().hex(),
        "blocks": [block.block_hash().hex() for block, _ in state.blocks],
        "shard_roots": [root.hex() for _, root in state.blocks],
        "restored_root": store.merkle_root().hex(),
        "log_head": log.head_hash.hex(),
    }


class TestLoadOfARealWalIsPinned:
    #: sha256 over the canonical encoding of ``load_fingerprint`` of s0, s1, s2.
    WITHOUT_CHECKPOINT = "bab5007c7b18f861a498dc00d308909aa854044f1aba56f9f02614bc473d4c8f"
    WITH_CHECKPOINT = "b0588a59b0e66993d795635f27a1bd979df3a7a7e51a47b2e2155f33fda277d3"

    @pytest.fixture(params=["memory", "file"])
    def factory(self, request, tmp_path):
        opened = []

        def build(server_id):
            if request.param == "memory":
                opened.append(MemoryStateStore())
            else:
                opened.append(FileStateStore(str(tmp_path / f"{server_id}.wal")))
            return opened[-1]

        yield build
        for store in opened:
            store.close()

    def fingerprints(self, system) -> list:
        found = [load_fingerprint(system.server(sid).state_store) for sid in system.server_ids]
        for server_id, loaded in zip(system.server_ids, found):
            server = system.server(server_id)
            assert loaded["server_id"] == server_id
            assert loaded["restored_root"] == server.store.merkle_root().hex()
            assert loaded["log_head"] == server.log.head_hash.hex()
        return found

    def test_genesis_snapshot_and_six_blocks(self, factory):
        system = build_system(factory)
        commit(system, 12, seed=23)
        found = self.fingerprints(system)
        assert [len(loaded["blocks"]) for loaded in found] == [6, 6, 6]
        assert [loaded["next_height"] for loaded in found] == [0, 0, 0]
        assert digest(canonical_encode(found)) == self.WITHOUT_CHECKPOINT

    def test_checkpoint_snapshot_and_the_blocks_after_it(self, factory):
        system = build_system(factory)
        commit(system, 8, seed=23)
        system.create_checkpoint()
        commit(system, 6, seed=24)
        found = self.fingerprints(system)
        assert [len(loaded["blocks"]) for loaded in found] == [3, 3, 3]
        assert [loaded["next_height"] for loaded in found] == [4, 4, 4]
        assert all(loaded["checkpoint"] for loaded in found)
        assert digest(canonical_encode(found)) == self.WITH_CHECKPOINT
