"""The simulation context: one bundle of clock + timeline + scheduler.

A :class:`SimContext` is created per deployment (one per
:class:`~repro.core.fides.FidesSystem`) and threaded through everything that
touches simulated time: protocol coordinators schedule their phases on it,
the network stamps message records with its clock, fault hooks read the
clock to fire time-based triggers, and the benchmark harness reads the
makespan off it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import ConfigurationError
from repro.obs import Observability
from repro.sim.clock import VirtualClock
from repro.sim.events import Timeline
from repro.sim.scheduler import PipelinedRoundScheduler

#: A compute model maps ``(phase, measured_seconds)`` to the compute charge
#: actually used for scheduling.  ``None`` keeps the measured value (the
#: default hybrid simulated-time model).
ComputeModel = Callable[[str, float], float]


class FixedCompute:
    """Deterministic compute model: every phase costs a fixed time.

    Replaces the *measured* (wall-clock, hence noisy) compute charges with a
    constant so that two runs with the same seed record identical
    timelines -- the determinism test suite runs under this model.  Network
    latency stays governed by the (already deterministic) seeded
    ``LatencyModel``.
    """

    def __init__(self, seconds: float = 0.0) -> None:
        if seconds < 0:
            raise ConfigurationError("fixed compute time must be >= 0")
        self.seconds = seconds

    def __call__(self, phase: str, measured: float) -> float:
        return self.seconds


class SimContext:
    """Everything one deployment needs to live on a shared virtual timeline."""

    def __init__(
        self,
        pipeline_depth: int = 1,
        compute_model: Optional[ComputeModel] = None,
    ) -> None:
        self.timeline = Timeline()
        self.clock = VirtualClock()
        self.scheduler = PipelinedRoundScheduler(
            self.timeline, clock=self.clock, pipeline_depth=pipeline_depth
        )
        self.compute_model = compute_model
        #: The observability bundle every sim-threaded component reports
        #: through (metrics always on, tracing off until enabled); the
        #: deployment layer may replace it with a shared bench-run bundle.
        self.obs = Observability()

    @property
    def pipeline_depth(self) -> int:
        return self.scheduler.pipeline_depth

    @property
    def makespan(self) -> float:
        """Virtual duration of everything recorded so far, in seconds."""
        return self.timeline.horizon

    def effective_compute(self, phase: str, measured: float) -> float:
        """The compute charge used for scheduling (model-overridden if set)."""
        if self.compute_model is None:
            return measured
        return self.compute_model(phase, measured)

    def fingerprint(self) -> str:
        """Determinism fingerprint of the recorded timeline (see Timeline)."""
        return self.timeline.fingerprint()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimContext(depth={self.pipeline_depth}, makespan={self.makespan:.6f})"
