"""Causally-linked span tracing keyed on the virtual clock.

A :class:`Tracer` records **spans** (half-open windows of virtual time with
an explicit parent link) and **instants** (zero-width events).  The span
tree mirrors the protocol's causal structure::

    round (coordinator resource)
      txn:<id>            -- one child per transaction, covering the round
      <phase>             -- get_vote / aggregate / challenge / finalize /
        rpc:<msg type>    --   decision / prepare / order; one RPC child
                          --   per cohort, ending at that peer's round trip
      order (delivery)    -- scaled deployment only: the OrderingService
                          --   window, parented across the handoff

Parent links cross the coordinator -> cohort boundary (RPC spans carry the
cohort's server id as their resource) and the coordinator -> OrderingService
boundary (a published ``Round`` keeps its span open, and it is closed
only when the ordered block is delivered).  Fault injections and
detections appear as instants, so a trace shows *when* a campaign fired
relative to the round that caught it.

All span times are **virtual** (scheduler/loop seconds), which is what
makes the trace deterministic: under ``FixedCompute`` the same seed yields
the same event schedule, hence the same spans, hence the same
:meth:`Tracer.fingerprint`.  Measured wall-clock values (MHT sweep time,
crypto micro-timers) ride along in ``attrs``, which the fingerprint
deliberately excludes.

Tracing is off by default; every recording method starts with an
``enabled`` check and returns ``None`` without allocating.  The export is
JSONL, one :class:`Span` record per line, which :meth:`Tracer.from_records`
reads back span for span.

Invariants checked at export time (the executed-path twin of the round
lifecycle tables, DESIGN.md sections 10 and 12):

* every opened span was closed;
* every parent link resolves to a recorded span;
* children are well-nested inside their parent's window;
* every span has ``start <= end``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.common.wire import INT, MAPPING, NUMBER, STR, optional, wire_form

#: Nesting tolerance: virtual times are exact floats, but allow rounding
#: noise from summed latency samples.
_NEST_EPSILON = 1e-9

KIND_SPAN = "span"
KIND_INSTANT = "instant"


@wire_form(
    ("id", INT, "span_id"),
    ("parent", optional(INT)),
    ("kind", STR),
    ("name", STR),
    ("cat", STR, "category"),
    ("resource", STR),
    ("pid", INT),
    ("start", NUMBER),
    ("end", optional(NUMBER)),
    ("status", STR),
    ("attrs", MAPPING),
)
@dataclass
class Span:
    """One recorded span or instant (``end == start`` for instants)."""

    span_id: int
    parent: Optional[int]
    kind: str
    name: str
    category: str
    resource: str
    pid: int
    start: float
    end: Optional[float]
    status: str = "ok"
    attrs: Dict = field(default_factory=dict)


class Tracer:
    """Span recorder; every method is a no-op while ``enabled`` is False."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._pid = 0
        self._next_id = 0
        self._open: Dict[int, Span] = {}

    # -- recording ------------------------------------------------------------

    def begin_process(self) -> int:
        """Start attributing spans to a new logical process (bench system)."""
        if not self.enabled:
            return 0
        self._pid += 1
        return self._pid

    def _record(
        self,
        kind: str,
        name: str,
        category: str,
        resource: str,
        start: float,
        end: Optional[float],
        parent: Optional[int],
        status: str,
        attrs: Dict,
    ) -> int:
        span = Span(
            span_id=self._next_id,
            parent=parent,
            kind=kind,
            name=name,
            category=category,
            resource=resource,
            pid=self._pid,
            start=start,
            end=end,
            status=status,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span.span_id

    def open_span(
        self,
        name: str,
        category: str,
        resource: str,
        start: float,
        **attrs,
    ) -> Optional[int]:
        """Open a root span whose end is not yet known; pair with :meth:`close_span`."""
        if not self.enabled:
            return None
        span_id = self._record(
            KIND_SPAN, name, category, resource, start, None, None, "open", attrs
        )
        self._open[span_id] = self.spans[-1]
        return span_id

    def close_span(
        self, span_id: Optional[int], end: float, status: str = "ok", **attrs
    ) -> None:
        """Close an open span; round spans fan out one txn child each."""
        if not self.enabled or span_id is None:
            return
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end = end
        span.status = status
        span.attrs.update(attrs)
        for txn_id in span.attrs.get("txns", ()):
            self._record(
                KIND_SPAN,
                f"txn:{txn_id}",
                "txn",
                span.resource,
                span.start,
                end,
                span_id,
                status,
                {},
            )

    def add_span(
        self,
        name: str,
        category: str,
        resource: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        status: str = "ok",
        **attrs,
    ) -> Optional[int]:
        """Record a span whose full window is already known."""
        if not self.enabled:
            return None
        return self._record(
            KIND_SPAN, name, category, resource, start, end, parent, status, attrs
        )

    def instant(
        self,
        name: str,
        category: str,
        resource: str,
        ts: float,
        **attrs,
    ) -> Optional[int]:
        """Record a zero-width root event (fault injected, culprit detected, ...)."""
        if not self.enabled:
            return None
        return self._record(
            KIND_INSTANT, name, category, resource, ts, ts, None, "ok", attrs
        )

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> List[str]:
        """All trace-structure violations (empty list = well-formed)."""
        problems: List[str] = []
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            where = f"span {span.span_id} ({span.category}:{span.name})"
            if span.end is None:
                problems.append(f"{where} was opened but never closed")
                continue
            if span.end < span.start - _NEST_EPSILON:
                problems.append(
                    f"{where} ends before it starts ({span.end} < {span.start})"
                )
            if span.parent is None:
                continue
            parent = by_id.get(span.parent)
            if parent is None:
                problems.append(f"{where} links to unknown parent {span.parent}")
            elif parent.end is not None and (
                span.start < parent.start - _NEST_EPSILON
                or span.end > parent.end + _NEST_EPSILON
            ):
                problems.append(
                    f"{where} [{span.start}, {span.end}] escapes parent "
                    f"{parent.span_id} [{parent.start}, {parent.end}]"
                )
        return problems

    # -- analysis --------------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 over the deterministic span fields.

        ``attrs`` is excluded on purpose: it carries measured wall-clock
        values (MHT sweep time, crypto micro-timers) that differ run to
        run even when the virtual-time schedule is identical.
        """
        digest = hashlib.sha256()
        for span in self.spans:
            digest.update(
                "|".join(
                    (
                        span.kind,
                        span.name,
                        span.category,
                        span.resource,
                        str(span.pid),
                        str(span.parent),
                        repr(span.start),
                        repr(span.end),
                        span.status,
                    )
                ).encode("utf-8")
            )
            digest.update(b"\n")
        return digest.hexdigest()

    def makespan(self) -> Optional[float]:
        """Latest span end time on the virtual clock (``None`` when empty)."""
        ends = [
            span.end
            for span in self.spans
            if span.kind == KIND_SPAN and span.end is not None
        ]
        return max(ends) if ends else None

    def coverage(self, makespan: float) -> float:
        """Fraction of ``[0, makespan]`` covered by the union of all spans."""
        if makespan <= 0:
            return 1.0
        windows = sorted(
            (span.start, span.end)
            for span in self.spans
            if span.kind == KIND_SPAN and span.end is not None and span.end > span.start
        )
        covered = 0.0
        cursor = 0.0
        for start, end in windows:
            start = max(start, cursor)
            if end > start:
                covered += min(end, makespan) - min(start, makespan)
                cursor = max(cursor, end)
        return covered / makespan

    def phase_attribution(self) -> Dict[str, float]:
        """Summed virtual-time duration per phase/delivery span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.category in ("phase", "delivery") and span.end is not None:
                totals[span.name] = totals.get(span.name, 0.0) + (
                    span.end - span.start
                )
        return dict(sorted(totals.items()))

    def span_count(self, category: Optional[str] = None) -> int:
        if category is None:
            return len(self.spans)
        return sum(1 for span in self.spans if span.category == category)

    # -- export ----------------------------------------------------------------

    def to_jsonl_lines(self) -> List[str]:
        return [
            json.dumps(span.to_wire(), sort_keys=True, default=str)
            for span in self.spans
        ]

    def export_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line + "\n")

    @classmethod
    def from_records(cls, records: Iterable[Dict]) -> "Tracer":
        tracer = cls(enabled=True)
        for record in records:
            span = Span.from_wire(record)
            tracer.spans.append(span)
            tracer._next_id = max(tracer._next_id, span.span_id + 1)
        return tracer
