"""The trust boundary: where wire and WAL bytes become domain objects again.

The recovery subsystem is the one place where blocks and checkpoints cross a
*byte* boundary: the write-ahead log persists them across a crash, and the
catch-up protocol ships them from peers that may lie.  Anything a decoder
returns came from bytes an attacker could have chosen and **must** still pass
hash-chain, co-sign, and root-replay verification before it is believed (see
:mod:`repro.recovery.manager`).

No decoder is written here, or anywhere, by hand: each wire class declares
its form once, on the class, and :func:`repro.common.wire.wire_form` derives
its two strict readers -- ``from_wire`` for plain data (handler replies,
catch-up responses, a decoded export) and ``from_bytes`` for bytes at rest
(the write-ahead log); missing and undeclared fields, wrong types and
malformed nesting raise :class:`~repro.common.errors.ValidationError`.  This
module completes the registry :data:`repro.common.wire.WIRE_CLASSES` --
importing it imports every module that declares a wire class -- so the
round-trip and fuzz suites walk ``WIRE_CLASSES[name].from_wire`` once they
import it.  The two functions at the bottom are this layer's entry points
for callers outside the package: functions defined in this module, so that a
boundary tracer books a decoded block to ``recovery.wire``.
"""

from __future__ import annotations

# The modules that declare a wire class; importing them fills WIRE_CLASSES.
import repro.core.grouping  # noqa: F401
import repro.core.rounds  # noqa: F401
import repro.crypto.cosi  # noqa: F401
import repro.crypto.merkle  # noqa: F401
import repro.ledger.checkpoint  # noqa: F401
import repro.net.forms  # noqa: F401
import repro.obs.metrics  # noqa: F401
import repro.obs.trace  # noqa: F401
import repro.recovery.statestore  # noqa: F401
import repro.storage.datastore  # noqa: F401
import repro.storage.record  # noqa: F401
import repro.txn.operations  # noqa: F401
import repro.txn.transaction  # noqa: F401
from repro.ledger.anchor import EpochAnchor
from repro.ledger.block import Block


def block_from_wire(wire) -> Block:
    """``Block.from_wire``, entered through this layer."""
    return Block.from_wire(wire)


def epoch_anchor_from_wire(wire) -> EpochAnchor:
    """``EpochAnchor.from_wire``, entered through this layer."""
    return EpochAnchor.from_wire(wire)
