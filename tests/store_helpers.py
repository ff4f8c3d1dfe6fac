"""Shortcuts the tests take into the storage layer and the state store."""

from __future__ import annotations


def apply_commit(store, commit_ts, writes, reads=()) -> int:
    """Apply one committed transaction: a block of one commit.

    Returns the number of Merkle node hashes recomputed.
    """
    return store.apply_batch([(commit_ts, writes, reads)])


def journal(state_store) -> list:
    """The payloads a state store holds, in journal order."""
    return [b"".join(pieces) for pieces in state_store._iter_stored()]
