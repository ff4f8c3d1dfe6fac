"""Discrete-event simulation core: virtual clock, timeline, round scheduler.

This package replaces the ad-hoc "sum of per-block latencies" accounting with
a deterministic virtual timeline: the scheduler assigns each protocol phase a
window, consecutive block rounds pipeline where the dependency rules allow,
and per-group coordinators plus the ordering service interleave on one shared
virtual clock.  The :class:`Timeline` only records: it keeps the makespan and
a running digest of every event, never the events.  See DESIGN.md section 7.
"""

from repro.sim.clock import VirtualClock
from repro.sim.context import FixedCompute, SimContext
from repro.sim.events import Timeline
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
    "Timeline",
    "SimContext",
    "FixedCompute",
    "BlockTask",
    "PipelinedRoundScheduler",
    "KIND_BROADCAST",
    "KIND_COMPUTE",
    "KIND_TERMINAL",
    "ORDSERV_RESOURCE",
]
