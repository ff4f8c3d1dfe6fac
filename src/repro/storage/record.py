"""Versioned data records with read/write timestamps.

Every data item in Fides carries an associated read timestamp ``rts`` and
write timestamp ``wts`` -- the timestamps of the last committed transaction
that read / wrote the item (Section 3.1).  Multi-versioned datastores keep
one :class:`RecordVersion` per committed write so that audits can examine any
historical version and the application can roll back to the last sanitised
version after a detected failure (Section 4.2.1).

Every item starts at :data:`INITIAL_VALUE` at the genesis stamp, so before
any write a shard holds one state many times over.  There is one object for
it, :data:`GENESIS_VERSION`: every item that starts at the initial value holds
it, in a new datastore and in one restored from a snapshot
(:func:`initial_version`, :func:`shared_version`).  It is picked by exact type
and value, never by ``==``: ``False`` and ``0.0`` equal ``0`` but encode, and
so hash, differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.encoding import canonical_encode
from repro.common.errors import StorageError
from repro.common.timestamps import Timestamp
from repro.common.types import ItemId, Value
from repro.common.wire import ANY, TIMESTAMP, list_of, nested, wire_form


#: What every item holds before any transaction writes it.
INITIAL_VALUE: Value = 0


@wire_form(("value", ANY), ("wts", TIMESTAMP), ("rts", TIMESTAMP))
@dataclass(frozen=True, slots=True)
class RecordVersion:
    """One committed version of a data item.

    ``wts`` is the commit timestamp of the transaction that wrote this
    version; ``rts`` is the largest commit timestamp of any transaction that
    has read this version so far (it is updated in place by replacing the
    version object, keeping the dataclass frozen).
    """

    value: Value
    wts: Timestamp
    rts: Timestamp

    def with_rts(self, rts: Timestamp) -> "RecordVersion":
        """Return a copy of this version with its read timestamp advanced."""
        if rts < self.rts:
            return self
        return RecordVersion(self.value, self.wts, rts)


_GENESIS_STAMP = Timestamp.zero()

#: The version every item that starts at :data:`INITIAL_VALUE` holds.
GENESIS_VERSION = RecordVersion(INITIAL_VALUE, _GENESIS_STAMP, _GENESIS_STAMP)


#: The chain of an item no transaction has written yet, and its bytes: a
#: constant of the format, like the genesis stamp's, not bytes kept for an
#: instance.
GENESIS_CHAIN = (GENESIS_VERSION,)
_GENESIS_CHAIN_BYTES = canonical_encode(GENESIS_CHAIN)


def _write_chain(chain) -> bytes:
    """``canonical_encode(chain)``: the genesis constant for a chain of exactly
    :data:`GENESIS_VERSION` (by identity), the walk for any other."""
    if len(chain) == 1 and chain[0] is GENESIS_VERSION:
        return _GENESIS_CHAIN_BYTES
    return canonical_encode(chain)


#: An item's version chain, oldest first: a list on the wire, a tuple on the
#: object.  A fresh shard's snapshot holds :data:`GENESIS_CHAIN` once per
#: item, so it is written as one constant; it is read as any list is.
VERSION_CHAIN = list_of(nested(RecordVersion))._replace(write=_write_chain)


def _is_initial(value: Value) -> bool:
    """``value`` is the initial value, by exact type and value (not ``==``)."""
    return type(value) is type(INITIAL_VALUE) and value == INITIAL_VALUE


def initial_version(value: Value) -> RecordVersion:
    """The version an item starting at ``value`` holds: at the genesis stamp,
    and :data:`GENESIS_VERSION` itself for the initial value."""
    if _is_initial(value):
        return GENESIS_VERSION
    return RecordVersion(value, _GENESIS_STAMP, _GENESIS_STAMP)


def shared_version(version: RecordVersion) -> RecordVersion:
    """``version``, or :data:`GENESIS_VERSION` when it holds exactly that state.

    The stamps are matched by identity: the wire readers hand back the one
    genesis stamp for every encoded ``(0, "")``.
    """
    stamp = _GENESIS_STAMP
    if version.wts is stamp and version.rts is stamp and _is_initial(version.value):
        return GENESIS_VERSION
    return version


@dataclass(slots=True)
class VersionedRecord:
    """The full version chain of one data item.

    Versions are kept in commit-timestamp order (oldest first).  For a
    single-versioned datastore the chain is trimmed to length one after every
    write.
    """

    item_id: ItemId
    versions: List[RecordVersion] = field(default_factory=list)

    @property
    def latest(self) -> RecordVersion:
        """The most recently committed version."""
        if not self.versions:
            raise StorageError(f"item {self.item_id!r} has no versions")
        return self.versions[-1]

    @property
    def value(self) -> Value:
        return self.latest.value

    @property
    def rts(self) -> Timestamp:
        return self.latest.rts

    @property
    def wts(self) -> Timestamp:
        return self.latest.wts

    def version_count(self) -> int:
        return len(self.versions)

    def version_at(self, timestamp: Timestamp) -> RecordVersion:
        """Return the version visible at ``timestamp``.

        This is the newest version whose ``wts`` is <= ``timestamp``; used by
        per-version audits of multi-versioned datastores.
        """
        candidate: Optional[RecordVersion] = None
        for version in self.versions:
            if version.wts <= timestamp:
                candidate = version
            else:
                break
        if candidate is None:
            raise StorageError(
                f"item {self.item_id!r} has no version at or before {timestamp}"
            )
        return candidate

    def record_read(self, timestamp: Timestamp) -> None:
        """Advance the latest version's read timestamp to ``timestamp``."""
        self.versions[-1] = self.latest.with_rts(timestamp)

    def append_version(self, value: Value, wts: Timestamp, multi_versioned: bool = True) -> None:
        """Install a new committed version written at ``wts``.

        For single-versioned datastores older versions are discarded.
        """
        new_version = RecordVersion(value=value, wts=wts, rts=wts)
        if multi_versioned:
            self.versions.append(new_version)
        else:
            self.versions = [new_version]

    def rollback_to(self, timestamp: Timestamp) -> int:
        """Discard every version written after ``timestamp``.

        Returns the number of versions removed.  This supports the paper's
        recoverability story: after an audit flags a corruption at some
        version, the data can be reset to the last sanitised version.
        """
        kept = [v for v in self.versions if v.wts <= timestamp]
        removed = len(self.versions) - len(kept)
        if not kept:
            raise StorageError(
                f"rollback of {self.item_id!r} to {timestamp} would remove every version"
            )
        self.versions = kept
        return removed
