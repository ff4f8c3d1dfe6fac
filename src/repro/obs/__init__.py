"""Zero-dependency observability: causal tracing + metrics (DESIGN.md §12).

One :class:`Observability` bundle rides on every :class:`~repro.sim.context.
SimContext` as ``sim.obs``, which is how all protocol layers reach it,
each from its constructor -- the network and coordinators via their ``sim``
argument, servers and the ordering service via their ``obs`` argument.
Metrics are always on (one
dict write per instrument point); span tracing is off by default and
enabled per run (``Observability(tracing=True)``), keeping the disabled-path cost to
a single attribute check.

The module also runs as a CLI: ``python -m repro.obs summarize|validate|
fingerprint|diff <trace.jsonl>``, over the tracer's one export format.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.timing import Stopwatch
from repro.obs.trace import Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Stopwatch",
    "Tracer",
]


class Observability:
    """The per-run tracer + metrics pair every subsystem reports through."""

    def __init__(self, tracing: bool = False) -> None:
        self.tracer = Tracer(enabled=tracing)
        self.metrics = MetricsRegistry()

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def crypto_wall_s(self) -> float:
        """Wall seconds inside the isolated micro-timers around every
        sign/verify/aggregate call: the sum of the ``crypto.*.s`` counters."""
        return sum(
            value
            for name, value in self.metrics.counters_matching("crypto.").items()
            if name.endswith(".s")
        )

    def attribution(self, makespan: Optional[float] = None) -> Dict:
        """The bench report's per-phase / per-subsystem attribution block.

        Phase totals are virtual-time seconds from the span tree;
        subsystem totals mix virtual time (network) with measured wall
        time (crypto, storage) -- each entry says which it is by its
        metric name (DESIGN.md section 12).
        """
        block: Dict = {
            "phases_s": self.tracer.phase_attribution(),
            "subsystems": {
                "crypto_wall_s": self.crypto_wall_s(),
                "net_bytes_total": self.metrics.counter_value("net.bytes_total"),
                "net_bytes_per_type": self.metrics.breakdown("net.bytes"),
                "net_messages": self.metrics.counter_value("net.messages"),
                "storage_mht_hashes": self.metrics.counter_value(
                    "storage.mht_hashes"
                ),
                "recovery_wal_appends": self.metrics.counter_value(
                    "recovery.wal_appends"
                ),
            },
            "metrics": self.metrics.snapshot(),
        }
        if makespan is not None:
            block["makespan_s"] = makespan
            if self.tracer.enabled:
                block["coverage"] = self.tracer.coverage(makespan)
        if self.tracer.enabled:
            block["fingerprint"] = self.tracer.fingerprint()
            block["spans"] = self.tracer.span_count()
        return block
