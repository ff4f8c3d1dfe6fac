"""The recorded virtual timeline: a makespan and a running digest.

Protocol handlers execute synchronously; the scheduler computes when each
activity (a protocol phase starting or completing, an ordered block
delivery, a network message) happens in virtual time and records it here.
Nothing is kept per event: each record raises :attr:`Timeline.horizon` (the
run's makespan) and folds one canonical line into a SHA-256, so two runs
that record the same activities in the same order give the same
:meth:`Timeline.fingerprint` -- the property the determinism suites and the
model checker's dedup rely on -- while recording costs no memory.
"""

from __future__ import annotations

import hashlib

from repro.common.errors import ProtocolInvariantError


class Timeline:
    """Folds every recorded event into a running digest; keeps no events."""

    def __init__(self) -> None:
        #: Largest event time ever recorded -- the run's makespan.
        self.horizon: float = 0.0
        self._digest = hashlib.sha256()

    def record(
        self,
        time: float,
        kind: str,
        resource: str = "",
        label: str = "",
        detail: str = "",
    ) -> None:
        """Record one event at an absolute virtual time.

        ``kind`` is e.g. ``"phase_start"``, ``"block_end"`` or ``"message"``;
        ``resource`` is the machine or service the event belongs to, ``label``
        names the activity (``"block-3/get_vote"``) and ``detail`` is free
        text (``"status=committed"``).
        """
        if time < 0:
            raise ProtocolInvariantError(f"cannot record an event at negative time {time}")
        if time > self.horizon:
            self.horizon = float(time)
        line = f"{time:.9f} {kind} {resource} {label} {detail}".rstrip()
        self._digest.update(f"{line}\n".encode("utf-8"))

    def fingerprint(self) -> str:
        """SHA-256 over every line recorded so far, in record order.

        Reading it does not disturb later records.
        """
        return self._digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline(horizon={self.horizon:.6f})"
