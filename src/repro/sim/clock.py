"""The virtual clock of the discrete-event simulation core.

Simulated time is decoupled from both wall-clock time and Python execution
order: the protocol code still *executes* sequentially (one synchronous call
tree per block round), but each phase is assigned a window on a shared
virtual timeline by the :mod:`repro.sim.scheduler`.  The clock holds "the
virtual time of the activity currently executing", so code running inside a
phase handler -- fault hooks, round timers -- can read when it happens
without knowing anything about the scheduler.

Because execution order and timeline order differ once rounds pipeline or
coordinators interleave, the clock is *not* globally monotone: scheduling
coordinator B's first phase after coordinator A's third may legitimately move
it backwards.  Consumers must treat ``now`` as "the time at which the current
activity occurs", never as a monotone sequence number.  What *is* monotone
is :attr:`VirtualClock.high_water`, the latest time the clock was ever set or
advanced to: every activity's start and end passes through the clock, so it
is the run's makespan.
"""

from __future__ import annotations

from repro.common.errors import ProtocolInvariantError


class VirtualClock:
    """Holds the virtual time of the currently executing activity."""

    def __init__(self) -> None:
        self._now = 0.0
        #: The latest time the clock has been set or advanced to.
        self.high_water = self._now

    @property
    def now(self) -> float:
        return self._now

    def set(self, time: float) -> None:
        """Jump to ``time`` (backwards jumps are legal; see module docstring)."""
        if time < 0:
            raise ProtocolInvariantError(f"cannot set the clock to negative time {time}")
        self._now = float(time)
        if self._now > self.high_water:
            self.high_water = self._now

    def advance(self, delta: float) -> float:
        """Move forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ProtocolInvariantError(f"cannot advance the clock by a negative delta ({delta})")
        self.set(self._now + delta)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f})"
