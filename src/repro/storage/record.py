"""Record versions and version chains, with read/write timestamps.

Every data item in Fides carries an associated read timestamp ``rts`` and
write timestamp ``wts`` -- the timestamps of the last committed transaction
that read / wrote the item (Section 3.1).  An item *is* its version chain: a
sequence of :class:`RecordVersion` objects, oldest first, which the
:class:`~repro.storage.datastore.DataStore` keeps by item id.  A
multi-versioned store keeps one version per committed write so that audits
can examine any historical version and the application can roll back to the
last sanitised version after a detected failure (Section 4.2.1); a
single-versioned store keeps only the latest.

Every item starts at :data:`INITIAL_VALUE` at the genesis stamp, so before
any write a shard holds one state many times over.  There is one version for
it, :data:`GENESIS_VERSION`, and one chain, :data:`GENESIS_CHAIN`: every item
that starts at the initial value holds that tuple itself, in a new datastore
and in one restored from a snapshot (:func:`initial_version`,
:func:`shared_version`, :func:`shared_chain`), until its first touch (a
write, a read that advances ``rts``, a corruption or a rollback) gives it a
chain of its own.  The version is picked by exact type and value, never by
``==``: ``False`` and ``0.0`` equal ``0`` but encode, and so hash,
differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.encoding import canonical_encode
from repro.common.timestamps import Timestamp
from repro.common.types import Value
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


def is_initial(value: Value) -> bool:
    """``value`` is the initial value, by exact type and value (not ``==``)."""
    return type(value) is type(INITIAL_VALUE) and value == INITIAL_VALUE


def initial_version(value: Value) -> RecordVersion:
    """The version an item starting at ``value`` holds: at the genesis stamp,
    and :data:`GENESIS_VERSION` itself for the initial value."""
    if is_initial(value):
        return GENESIS_VERSION
    return RecordVersion(value, _GENESIS_STAMP, _GENESIS_STAMP)


def shared_version(version: RecordVersion) -> RecordVersion:
    """``version``, or :data:`GENESIS_VERSION` when it holds exactly that state.

    The stamps are matched by identity: the wire readers hand back the one
    genesis stamp for every encoded ``(0, "")``.
    """
    stamp = _GENESIS_STAMP
    if version.wts is stamp and version.rts is stamp and is_initial(version.value):
        return GENESIS_VERSION
    return version


def shared_chain(versions: Tuple[RecordVersion, ...]) -> Tuple[RecordVersion, ...]:
    """``versions``, or :data:`GENESIS_CHAIN` itself when it is exactly
    :data:`GENESIS_VERSION` (by identity, as :func:`shared_version` gives it)."""
    if len(versions) == 1 and versions[0] is GENESIS_VERSION:
        return GENESIS_CHAIN
    return versions
