"""Crash recovery: durable server state, verified catch-up, rejoin.

The subsystem behind ``DatabaseServer.crash()`` / ``recover()``:

* :mod:`repro.recovery.statestore` -- the durable state layer (in-memory and
  append-only file WAL with snapshot compaction); its two records are
  declared wire forms, written by their derived ``wire_bytes()`` and read
  back by their derived ``from_bytes()``;
* :mod:`repro.recovery.wire` -- the byte trust boundary: every wire class's
  derived strict decoder, by name (the classes declare their own wire forms,
  see :mod:`repro.common.wire`);
* :mod:`repro.recovery.manager` -- restore-and-verify plus the
  ``STATE_REQUEST`` catch-up protocol against untrusted peers (each peer's
  :class:`~repro.net.forms.StateResponse` travels as the RPC return payload
  and is read back strictly by :func:`~repro.net.forms.read_reply`).

See DESIGN.md section 6 for the recovery state machine and the trust
argument.
"""

from repro.recovery.manager import (
    RecoveryResult,
    catch_up_from_peers,
    recover_server_state,
    restore_from_state,
    verify_and_apply_catchup,
)
from repro.recovery.statestore import (
    FileStateStore,
    MemoryStateStore,
    PersistedState,
    StateStore,
)

__all__ = [
    "RecoveryResult",
    "catch_up_from_peers",
    "recover_server_state",
    "restore_from_state",
    "verify_and_apply_catchup",
    "FileStateStore",
    "MemoryStateStore",
    "PersistedState",
    "StateStore",
]
