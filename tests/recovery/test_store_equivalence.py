"""The two state stores hold one journal, and either one recovers the live server.

``MemoryStateStore`` and ``FileStateStore`` differ only in where a record
lives.  One fixed-seed run of each deployment -- classic TFCommit, the scaled
deployment over two ordering shards, and the 2PC baseline -- is made twice,
once over each store, and, through the stores' public surface, every server's
journal must be:

* the same payloads in the same order in both stores;
* as large as those payloads say (``recovery.wal_bytes`` is an exact
  counter): their summed length in memory, plus one ``length || crc32``
  frame header each on file;
* a journal ``load()`` and ``restore_from_state`` bring back to the live
  server's log head and Merkle root (the 2PC baseline's blocks carry no
  co-sign, so its journal is held to the live log block for block instead).

Each run is checked once as it stands and once after one
``create_checkpoint()`` compaction followed by more commits.
"""

from __future__ import annotations

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import RecoveryError
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer
from repro.net.latency import ConstantLatency
from repro.recovery.manager import restore_from_state
from repro.recovery.statestore import FileStateStore, MemoryStateStore
from repro.sim.context import FixedCompute
from repro.workload.ycsb import YcsbWorkload

from store_helpers import journal

DEPLOYMENTS = ("classic", "scaled", "2pc")

#: A file record's frame header: payload length and CRC-32, four bytes each.
FRAME_HEADER_SIZE = 8


def build_system(deployment: str, factory):
    config = SystemConfig(
        num_servers=3,
        items_per_shard=40,
        txns_per_block=2,
        ops_per_txn=2,
        multi_versioned=True,
        message_signing="hash",
        seed=11,
    )
    options = dict(
        latency=ConstantLatency(0.0002),
        state_store_factory=factory,
        compute_model=FixedCompute(0.0005),
    )
    if deployment == "scaled":
        return ScaledFidesSystem(config, sequencer=sharded_sequencer(2), **options)
    protocol = "2pc" if deployment == "2pc" else "tfcommit"
    return FidesSystem(config, protocol=protocol, **options)


def commit(system, count: int, seed: int) -> None:
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(), ops_per_txn=2, conflict_free_window=0, seed=seed
    )
    assert system.run_workload(workload.generate(count)).committed == count


def run(deployment: str, factory, compacted: bool):
    system = build_system(deployment, factory)
    commit(system, 6, seed=3)
    if compacted:
        system.create_checkpoint()
        commit(system, 4, seed=4)
    return system


@pytest.fixture(
    scope="module",
    params=[(d, c) for d in DEPLOYMENTS for c in (False, True)],
    ids=[f"{d}-{'compacted' if c else 'appended'}" for d in DEPLOYMENTS for c in (False, True)],
)
def runs(request, tmp_path_factory):
    """The run over memory stores and the same run over file stores."""
    deployment, compacted = request.param
    directory = tmp_path_factory.mktemp(f"{deployment}-wal")
    opened = []

    def on_file(server_id):
        opened.append(FileStateStore(str(directory / f"{server_id}.wal")))
        return opened[-1]

    in_memory = run(deployment, lambda server_id: MemoryStateStore(), compacted)
    on_disk = run(deployment, on_file, compacted)
    yield compacted, in_memory, on_disk
    for store in opened:
        store.close()


def test_both_stores_hold_the_same_payloads(runs):
    compacted, in_memory, on_disk = runs
    assert in_memory.server_ids == on_disk.server_ids
    for server_id in in_memory.server_ids:
        mine = journal(in_memory.server(server_id).state_store)
        theirs = journal(on_disk.server(server_id).state_store)
        assert mine == theirs, server_id
        assert len(mine) >= 3, server_id  # a snapshot and at least two block records
        assert in_memory.server(server_id).log.head_hash == on_disk.server(server_id).log.head_hash


def test_size_is_the_payloads_length(runs):
    _, in_memory, on_disk = runs
    for server_id in in_memory.server_ids:
        memory_store = in_memory.server(server_id).state_store
        assert memory_store.size_bytes() == sum(len(p) for p in journal(memory_store))
        file_store = on_disk.server(server_id).state_store
        assert file_store.size_bytes() == sum(
            FRAME_HEADER_SIZE + len(p) for p in journal(file_store)
        )


def test_a_loaded_journal_lands_on_the_live_server(runs):
    compacted, *systems = runs
    for system in systems:
        for server_id in system.server_ids:
            server = system.server(server_id)
            state = server.state_store.load()
            assert (state.checkpoint is not None) == compacted
            assert [block.block_hash() for block, _ in state.blocks] == [
                block.block_hash() for block in server.log
            ], server_id
            assert state.blocks[-1][1] == server.store.merkle_root(), server_id
            if system.protocol == "2pc":
                # The baseline co-signs nothing, and a recovering log refuses
                # an unsigned block: its journal is compared, not restored.
                with pytest.raises(RecoveryError, match="without a collective signature"):
                    restore_from_state(state)
                continue
            store, log = restore_from_state(state)
            assert log.head_hash == server.log.head_hash, server_id
            assert log.height == server.log.height, server_id
            assert store.merkle_root() == server.store.merkle_root(), server_id
