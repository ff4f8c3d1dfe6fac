"""Counters, gauges, and bucketed histograms -- the numeric half of ``obs``.

Metric names are dotted ``subsystem.measurement[.unit]`` strings
(``crypto.envelope_sign.s``, ``net.bytes_total``, ``storage.mht_hashes``;
the full naming scheme is DESIGN.md section 12).  The registry is a plain
dict-of-floats: recording is an ``O(1)`` dict update with no locking, no
export thread, and no sampling, so it stays enabled even when tracing is
off -- the near-zero-overhead budget is one dict write per instrument
point.  A deployment's registry is its only traffic ledger: the network
counts each delivery in it once (``net.messages``, ``net.messages.<type>``,
``net.delivered.<id>``, ...) and keeps no second copy, and a family of
counters reads back by key with :meth:`MetricsRegistry.breakdown`.

Histograms use fixed power-of-four bucket bounds (1us .. ~1s for the
default seconds-scale) so two runs of the same workload always produce
structurally identical snapshots; only the *values* differ when compute
is measured rather than fixed.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.common.wire import INT, NUMBER, extra, list_of, optional, wire_form

#: Default histogram bucket upper bounds, in seconds: 1us * 4^k up to ~1s.
DEFAULT_BUCKETS = tuple(1e-6 * (4.0**k) for k in range(11))


@wire_form(
    ("count", INT),
    ("sum", NUMBER, "total"),
    ("min", optional(NUMBER), "minimum"),
    ("max", optional(NUMBER), "maximum"),
    extra("mean"),
    ("bounds", list_of(NUMBER)),
    ("buckets", list_of(INT)),
)
class Histogram:
    """Fixed-bound bucketed histogram with count/sum/min/max.

    The keyword arguments past ``bounds`` restore a recorded histogram (its
    wire form); ``mean`` is derived, so it travels but is never read back.
    """

    __slots__ = ("bounds", "buckets", "count", "total", "minimum", "maximum")

    def __init__(
        self,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
        buckets: Optional[Sequence[int]] = None,
        count: int = 0,
        total: float = 0.0,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
    ) -> None:
        self.bounds = bounds
        self.buckets: List[int] = [0] * (len(bounds) + 1) if buckets is None else list(buckets)
        if len(self.buckets) != len(bounds) + 1:
            raise ValidationError("histogram bucket count does not match its bounds")
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            tuple(self.bounds) == tuple(other.bounds)
            and self.buckets == other.buckets
            and self.count == other.count
            and self.total == other.total
            and self.minimum == other.minimum
            and self.maximum == other.maximum
        )


class MetricsRegistry:
    """All counters, gauges, and histograms for one run, by dotted name."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------------

    def counter(self, name: str, delta: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    # -- reading --------------------------------------------------------------

    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def counters_matching(self, prefix: str) -> Dict[str, float]:
        return {
            name: value
            for name, value in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def breakdown(self, family: str) -> Dict[str, float]:
        """The counters named ``<family>.<key>``, by key: ``breakdown("net.bytes")``
        is the wire bytes per message type."""
        prefix = family + "."
        return {
            name[len(prefix):]: value
            for name, value in self.counters_matching(prefix).items()
        }

    def snapshot(self) -> Dict:
        """One JSON-ready dict holding every metric recorded so far."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: histogram.to_wire()
                for name, histogram in sorted(self._histograms.items())
            },
        }
