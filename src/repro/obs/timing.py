"""The sanctioned compute-measurement primitive for protocol code.

Protocol packages may not call ``time.perf_counter()`` directly (the
``adhoc-timing`` lint rule, DESIGN.md section 12): raw deltas scattered
through handlers are invisible to the observability layer and tempt code
into treating wall time as protocol state.  They use a :class:`Stopwatch`
instead -- the one place in the library that reads the process clock for
duration measurement.  The measured values feed ``compute_time`` fields
and metrics only; virtual time (the scheduler's clock) remains the sole notion
of *protocol* time.
"""

from __future__ import annotations

from time import perf_counter


class Stopwatch:
    """Measures elapsed wall-clock compute time; started on construction."""

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return perf_counter() - self._started

    def split(self) -> float:
        """Seconds since the last mark, and restart the watch."""
        now = perf_counter()
        elapsed = now - self._started
        self._started = now
        return elapsed
