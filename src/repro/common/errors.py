"""Exception hierarchy for the Fides reproduction.

All library-raised exceptions derive from :class:`FidesError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish protocol failures from storage or audit failures.
"""

from __future__ import annotations


class FidesError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class ConfigurationError(FidesError):
    """A :class:`~repro.common.config.SystemConfig` (or similar) is invalid."""


class SignatureError(FidesError):
    """A digital signature, collective signature, or MAC failed verification."""


class ValidationError(FidesError):
    """A message, block, or transaction failed structural validation."""


class ProtocolError(FidesError):
    """A protocol participant received a message it cannot process.

    Raised, for example, when a cohort receives a challenge whose hash does not
    match the block it was asked to sign, or when a coordinator receives a vote
    for an unknown transaction.
    """


class ProtocolInvariantError(ProtocolError):
    """An internal protocol invariant that must always hold was violated.

    Unlike :class:`ProtocolError` (a peer sent something we cannot process),
    this means *our own* state machine reached a configuration the protocol
    proofs rule out -- a non-monotone commit frontier, a dependency-violating
    ordering decision, a conflicting batch.  These checks used to be debug
    ``assert`` statements; raising keeps them active under ``python -O`` and
    lets the model checker surface them as first-class counterexamples.
    """


class StorageError(FidesError):
    """A datastore or shard operation failed (unknown item, bad version...)."""


class UnreachableError(ProtocolError):
    """A message was addressed to a participant that is currently down.

    Raised when sending to a server that crashed (its handler was
    unregistered) or that crashes while processing the message.  Protocol
    drivers treat it as a *liveness* event -- the round fails and is retried
    after recovery -- never as a safety violation.
    """


class ServerCrashed(FidesError):
    """Control-flow signal: a fault policy decided the server crashes *now*.

    Raised inside a server's message handler when its
    :meth:`~repro.server.faults.FaultPolicy.crash_now` hook fires; the server
    front-end catches it, drops its volatile state, and surfaces
    :class:`UnreachableError` to the sender.
    """


class RecoveryError(FidesError):
    """Crash recovery failed: corrupt persisted state or no usable peer.

    Also raised (and caught internally) when a peer's catch-up response fails
    verification -- broken hash chain, invalid co-sign, or a replay that does
    not reproduce the advertised shard roots.
    """


class AuditError(FidesError):
    """The auditor could not complete an audit (e.g. no correct log exists)."""

