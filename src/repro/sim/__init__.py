"""Discrete-event simulation core: virtual clock and round scheduler.

This package replaces the ad-hoc "sum of per-block latencies" accounting with
a deterministic virtual timeline: the scheduler assigns each protocol phase a
window, consecutive block rounds pipeline where the dependency rules allow,
and per-group coordinators plus the ordering service interleave on one shared
virtual clock.  Nothing records the events: the makespan is the clock's
high-water mark.  See DESIGN.md section 7.
"""

from repro.sim.clock import VirtualClock
from repro.sim.context import FixedCompute, SimContext
from repro.sim.scheduler import (
    KIND_BROADCAST,
    KIND_COMPUTE,
    KIND_TERMINAL,
    ORDSERV_RESOURCE,
    BlockTask,
    PipelinedRoundScheduler,
)

__all__ = [
    "VirtualClock",
    "SimContext",
    "FixedCompute",
    "BlockTask",
    "PipelinedRoundScheduler",
    "KIND_BROADCAST",
    "KIND_COMPUTE",
    "KIND_TERMINAL",
    "ORDSERV_RESOURCE",
]
