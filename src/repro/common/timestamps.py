"""Lamport-style commit timestamps.

Fides identifies every transaction by a client-assigned commit timestamp
(Section 4.1, Table 1).  The paper only requires a timestamp scheme that
supports a total order and that all clients use the same mechanism; it
suggests a Lamport clock of the form ``<client_id : client_time>``.  That is
exactly what :class:`Timestamp` implements: a ``(counter, client_id)`` pair
ordered lexicographically, so two clients can never produce the same
timestamp and the order is total.

Every item starts at the *genesis stamp* ``(0, "")``, so it is by far the most
common timestamp in a datastore, a snapshot and a read reply.  There is one
such object: :meth:`Timestamp.zero` returns it, and the wire readers
(:data:`repro.common.wire.TIMESTAMP`) hand it back for every encoded
``(0, "")`` instead of minting another one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from typing import Optional

from repro.common.types import ClientId


@total_ordering
@dataclass(frozen=True, slots=True)
class Timestamp:
    """A totally ordered Lamport timestamp ``(counter, client_id)``.

    The counter is the primary sort key; the client id breaks ties so
    timestamps from distinct clients are never equal.  The counter is exactly
    an ``int`` and the client id exactly a ``str``: ``True`` or ``2.0`` would
    compare equal to an int stamp yet encode as a different one, which no
    reader accepts back.
    """

    counter: int
    client_id: ClientId = ""

    def __post_init__(self) -> None:
        if type(self.counter) is not int:
            raise ValueError(f"timestamp counter must be an int, got {self.counter!r}")
        if type(self.client_id) is not str:
            raise ValueError(f"timestamp client id must be a str, got {self.client_id!r}")
        if self.counter < 0:
            raise ValueError(f"timestamp counter must be >= 0, got {self.counter}")

    def __lt__(self, other: "Timestamp") -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return (self.counter, self.client_id) < (other.counter, other.client_id)

    def __str__(self) -> str:
        return f"ts-{self.counter}@{self.client_id}" if self.client_id else f"ts-{self.counter}"

    def advance(self, observed: Optional["Timestamp"] = None) -> "Timestamp":
        """Return the next timestamp for the same client.

        If ``observed`` is given (a timestamp seen from another participant),
        the new counter jumps past it, mirroring Lamport clock merging.
        """
        base = self.counter
        if observed is not None and observed.counter > base:
            base = observed.counter
        return Timestamp(base + 1, self.client_id)

    def as_tuple(self) -> tuple:
        """Return the ``(counter, client_id)`` pair used for ordering."""
        return (self.counter, self.client_id)

    @staticmethod
    def zero() -> "Timestamp":
        """Return the genesis stamp ``(0, "")``, always the same object."""
        return _GENESIS


#: The genesis stamp ``(0, "")`` every item starts at; :meth:`Timestamp.zero`.
_GENESIS = Timestamp(0, "")


@dataclass
class TimestampGenerator:
    """Per-client monotonic timestamp source.

    Every client owns one generator; :meth:`next` produces strictly
    increasing timestamps and :meth:`observe` merges in timestamps returned
    by servers so that a client never assigns a commit timestamp smaller
    than data it has already read (required for the timestamp-ordering
    concurrency control of Section 4.3.1).
    """

    client_id: ClientId
    _counter: int = field(default=0)

    def observe(self, other: Timestamp) -> None:
        """Merge an externally observed timestamp into the local clock."""
        if other.counter > self._counter:
            self._counter = other.counter

    def next(self) -> Timestamp:
        """Return a fresh timestamp strictly larger than anything observed."""
        self._counter += 1
        return Timestamp(self._counter, self.client_id)

    def current(self) -> Timestamp:
        """Return the latest timestamp handed out (or the zero timestamp)."""
        return Timestamp(self._counter, self.client_id)
