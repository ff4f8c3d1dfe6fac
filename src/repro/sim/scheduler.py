"""The pipelined round scheduler: protocol phases as discrete events.

The protocol implementations still *execute* one synchronous round at a time
(block N's five phases run to completion in Python before block N+1's
begin), but their *timing* is decided here: every phase of every block round
is an activity with a start and an end on the shared virtual timeline, and
consecutive blocks overlap exactly as far as the dependency rules allow.

Dependency rules (documented in DESIGN.md section 7):

* **Intra-block order** -- phase ``i`` of a block starts no earlier than
  phase ``i-1`` of the same block ends.
* **Chain rule** (classic chained blocks only) -- phase 1 of block ``N+1``
  starts no earlier than block ``N``'s ``aggregate`` phase ends: that is when
  block ``N``'s body (decision + roots) is complete, so its hash -- block
  ``N+1``'s ``h_prev`` -- exists.  Dynamic-group blocks carry no chain
  metadata at proposal time (the ordering service assigns it), so the rule
  does not apply to them.
* **Commit-frontier rule** -- if any transaction of block ``N+1`` carries a
  commit timestamp at or below the largest commit timestamp of an earlier
  in-flight block, its staleness check depends on that block's decision, so
  block ``N+1`` waits for the earlier block to finish.
* **Conflict rule** -- a block whose read/write footprint intersects an
  earlier in-flight block's footprint (with a write on either side) waits
  for that block to finish: its speculative roots must reflect the earlier
  writes.
* **Depth rule** -- at most ``pipeline_depth`` blocks of one coordinator may
  be in flight; depth 1 reproduces the sequential model exactly.
* **Coordinator serialization** -- a coordinator is one machine: its compute
  phases (``aggregate``, ``finalize``) never overlap each other, even across
  pipelined blocks.  Cohort compute inside broadcast phases is treated as
  parallel-capable (multi-core servers), as in the sequential model.
* **In-order apply** -- terminal phases (``decision`` broadcasts, ordered
  ``order`` deliveries) serialize per delivering resource and therefore
  reach cohorts in block order; the ordering service is a single shared
  resource, so ordered deliveries additionally serialize *across* group
  coordinators.
* **Cross-group rule** -- a new group round starts no earlier than the last
  ordered delivery whose item footprint *conflicts* with its own ended: its
  OCC validation and speculative roots depend on that delivery's applied
  writes.  Non-conflicting deliveries (even of the same group) do not gate
  -- pipelined cohorts chain speculative state over in-flight blocks, just
  as the classic conflict rule allows within one coordinator.  Gating on
  *completed* deliveries suffices even under a reorder window: an item
  conflict implies a shared shard server, hence overlapping groups, and a
  group coordinator force-lands every pending overlapping block
  (``OrderingService.flush_conflicting``) before its round begins -- so a
  conflicting block is always delivered (and recorded here) by the time the
  dependent round's ``begin_block`` computes its frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ProtocolInvariantError
from repro.sim.clock import VirtualClock

#: Phase kinds: how an activity occupies its resource.
KIND_BROADCAST = "broadcast"  # network round trip + parallel cohort compute
KIND_COMPUTE = "compute"  # coordinator-local compute; serializes per resource
KIND_TERMINAL = "terminal"  # decision/apply delivery; serializes per resource

#: The identity under which ordered deliveries occupy the shared timeline.
ORDSERV_RESOURCE = "ordserv"

#: How many finished tasks each resource keeps for dependency checks.  Tasks
#: older than the window are complete long before any new block could start
#: (their terminal phases serialize in order), so dropping them is safe.
_TASK_WINDOW = 64
#: How many ordered deliveries the cross-group frontier remembers.
_DELIVERY_WINDOW = 64


@dataclass
class BlockTask:
    """One block round's activities on the virtual timeline."""

    label: str
    resource: str
    ready_at: float
    started_at: float
    chained: bool = True
    read_items: FrozenSet[str] = frozenset()
    write_items: FrozenSet[str] = frozenset()
    min_commit_ts: Optional[tuple] = None
    max_commit_ts: Optional[tuple] = None
    group_members: Optional[FrozenSet[str]] = None
    #: phase name -> (start, end) once the phase completed.
    phases: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    chain_ready_at: Optional[float] = None
    done_at: Optional[float] = None
    status: str = "in-flight"
    #: The ordering resource(s) the task's delivery occupied (per-shard
    #: lanes under a sharded sequencer); None until the delivery closes.
    delivery_resources: Optional[Tuple[str, ...]] = None
    _pending_phase: Optional[Tuple[str, float, str]] = None

    @property
    def gate_at(self) -> float:
        """The time this task stops gating its coordinator's next block.

        A task awaiting its ordered delivery (reorder window) has finished
        all coordinator-side work at ``ready_at``; the pending ``order``
        phase occupies the ordering service, not the coordinator.
        """
        return self.done_at if self.done_at is not None else self.ready_at


def _footprints_clash(
    reads: FrozenSet[str], writes: FrozenSet[str], accessed: FrozenSet[str], written: FrozenSet[str]
) -> bool:
    """Whether the footprint ``(reads, writes)`` conflicts with one that
    accesses ``accessed`` (its reads and writes) and writes ``written``: a
    shared item with a write on either side.  The caller builds ``accessed``
    once for every footprint it compares against."""
    return not (
        writes.isdisjoint(accessed)
        and written.isdisjoint(reads)
        and written.isdisjoint(writes)
    )


class PipelinedRoundScheduler:
    """Assigns every protocol phase a window on the shared virtual timeline."""

    #: The phase whose completion makes a chained block's hash available.
    CHAIN_PHASE = "aggregate"

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        pipeline_depth: int = 1,
    ) -> None:
        if pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        self.clock = clock or VirtualClock()
        self.pipeline_depth = pipeline_depth
        self._tasks: Dict[str, List[BlockTask]] = {}
        self._compute_free: Dict[str, float] = {}
        self._terminal_free: Dict[str, float] = {}
        #: Completed ordered deliveries: (read items, write items, end time).
        self._deliveries: List[Tuple[FrozenSet[str], FrozenSet[str], float]] = []
        #: Cumulative busy seconds per ordering resource (saturation metric).
        self._delivery_busy: Dict[str, float] = {}

    # -- block life-cycle ----------------------------------------------------------

    def begin_block(
        self,
        resource: str,
        label: str,
        read_items: FrozenSet[str] = frozenset(),
        write_items: FrozenSet[str] = frozenset(),
        min_commit_ts: Optional[tuple] = None,
        max_commit_ts: Optional[tuple] = None,
        chained: bool = True,
        group_members: Optional[FrozenSet[str]] = None,
    ) -> BlockTask:
        """Admit a new block round and compute its earliest start."""
        history = self._tasks.setdefault(resource, [])
        earliest = 0.0
        if history:
            previous = history[-1]
            if chained:
                chain_ready = (
                    previous.chain_ready_at
                    if previous.chain_ready_at is not None
                    else previous.gate_at
                )
                earliest = max(earliest, chain_ready)
            if len(history) >= self.pipeline_depth:
                earliest = max(earliest, history[-self.pipeline_depth].gate_at)
            accessed = read_items | write_items
            for prior in history:
                # A prior that frees its coordinator by ``earliest`` cannot
                # delay the block, so its footprint is not compared.
                if prior.gate_at > earliest and (
                    _footprints_clash(prior.read_items, prior.write_items, accessed, write_items)
                    or (
                        min_commit_ts is not None
                        and prior.max_commit_ts is not None
                        and min_commit_ts <= prior.max_commit_ts
                    )
                ):
                    earliest = prior.gate_at
        if group_members is not None:
            earliest = max(earliest, self.delivery_frontier(read_items, write_items))
        task = BlockTask(
            label=label,
            resource=resource,
            ready_at=earliest,
            started_at=earliest,
            chained=chained,
            read_items=frozenset(read_items),
            write_items=frozenset(write_items),
            min_commit_ts=min_commit_ts,
            max_commit_ts=max_commit_ts,
            group_members=frozenset(group_members) if group_members is not None else None,
        )
        history.append(task)
        del history[:-_TASK_WINDOW]
        self.clock.set(earliest)
        return task

    def begin_phase(self, task: BlockTask, phase: str, kind: str = KIND_BROADCAST) -> float:
        """Assign the phase's start time and point the clock at it.

        Called *before* the phase's messages are sent, so fault hooks and
        round timers that run inside the handlers observe the phase's
        virtual start time.
        """
        if task._pending_phase is not None:
            raise ProtocolInvariantError(
                f"{task.label}: phase {task._pending_phase[0]!r} is still open"
            )
        start = task.ready_at
        if kind == KIND_COMPUTE:
            start = max(start, self._compute_free.get(task.resource, 0.0))
        elif kind == KIND_TERMINAL:
            start = max(start, self._terminal_free.get(task.resource, 0.0))
        task._pending_phase = (phase, start, kind)
        self.clock.set(start)
        return start

    def end_phase(self, task: BlockTask, phase: str, duration: float) -> Tuple[float, float]:
        """Close the open phase with its measured/sampled duration."""
        if task._pending_phase is None or task._pending_phase[0] != phase:
            raise ProtocolInvariantError(
                f"{task.label}: end_phase({phase!r}) without a matching begin_phase"
            )
        _, start, kind = task._pending_phase
        task._pending_phase = None
        end = start + max(0.0, duration)
        task.phases[phase] = (start, end)
        task.ready_at = end
        if kind == KIND_COMPUTE:
            self._compute_free[task.resource] = end
        elif kind == KIND_TERMINAL:
            self._terminal_free[task.resource] = end
        if phase == self.CHAIN_PHASE:
            task.chain_ready_at = end
        self.clock.set(end)
        return start, end

    def end_block(self, task: BlockTask, status: str = "committed") -> float:
        """Mark the round finished; its last phase's end is the block's end."""
        if task._pending_phase is not None:
            # A round that failed mid-phase (e.g. coordinator crash) closes
            # the phase at zero additional cost.
            self.end_phase(task, task._pending_phase[0], 0.0)
        task.done_at = task.ready_at
        task.status = status
        return task.done_at

    # -- ordered deliveries (scaled deployment) ---------------------------------------

    def begin_delivery(
        self,
        task: Optional[BlockTask],
        resources: Sequence[str] = (ORDSERV_RESOURCE,),
    ) -> float:
        """Start an ordered-stream delivery on the given ordering resource(s).

        With the single sequencer all deliveries share ``ORDSERV_RESOURCE``
        and serialize globally (the ordering service emits one stream).  A
        sharded sequencer passes one ``ordserv/s<i>`` resource per involved
        ordering shard: single-shard deliveries serialize only within their
        lane, so shards genuinely interleave on the timeline, while a
        cross-shard delivery names every involved lane and acts as a
        barrier (it starts once *all* of them are free).  Either way a block
        cannot be delivered before its own co-signing finished
        (``task.ready_at``).
        """
        if not resources:
            resources = (ORDSERV_RESOURCE,)
        start = max(self._terminal_free.get(resource, 0.0) for resource in resources)
        if task is not None:
            if task._pending_phase is not None:
                raise ProtocolInvariantError(
                    f"{task.label}: delivery while a phase is open"
                )
            start = max(start, task.ready_at)
        self.clock.set(start)
        return start

    def end_delivery(
        self,
        task: Optional[BlockTask],
        start: float,
        duration: float,
        read_items: FrozenSet[str] = frozenset(),
        write_items: FrozenSet[str] = frozenset(),
        resources: Sequence[str] = (ORDSERV_RESOURCE,),
    ) -> Tuple[float, float]:
        """Close an ordered delivery and record the cross-group frontier (the
        publishing round's block, ``task``, is the caller's to end; its
        ``order`` phase is the delivery window)."""
        if not resources:
            resources = (ORDSERV_RESOURCE,)
        end = start + max(0.0, duration)
        for resource in resources:
            self._terminal_free[resource] = end
            self._delivery_busy[resource] = (
                self._delivery_busy.get(resource, 0.0) + (end - start)
            )
        self._deliveries.append((frozenset(read_items), frozenset(write_items), end))
        del self._deliveries[:-_DELIVERY_WINDOW]
        self.clock.set(end)
        if task is not None:
            task.delivery_resources = tuple(resources)
            task.phases["order"] = (start, end)
            task.ready_at = end
        return start, end

    def delivery_frontier(
        self, read_items: FrozenSet[str], write_items: FrozenSet[str]
    ) -> float:
        """When the last ordered delivery conflicting with the footprint ended."""
        accessed = read_items | write_items
        return max(
            (
                end
                for reads, writes, end in self._deliveries
                if _footprints_clash(reads, writes, accessed, write_items)
            ),
            default=0.0,
        )

    # -- introspection -----------------------------------------------------------------

    def resources(self) -> List[str]:
        """Every resource that ever hosted a block task, sorted."""
        return sorted(self._tasks)

    def delivery_busy(self) -> Dict[str, float]:
        """Cumulative busy virtual-seconds per ordering resource.

        The scale-out sweep divides the busiest lane by the makespan to
        report how saturated the ordering layer is pre- vs post-sharding.
        """
        return dict(self._delivery_busy)

    def all_tasks(self) -> Dict[str, List[BlockTask]]:
        """Task histories by resource (bounded by the retention window).

        The model checker's pipelining-conformance invariant replays the
        dependency rules over these windows after a run; within the window
        the history is complete, so every rule is checkable against it.
        """
        return {resource: list(history) for resource, history in self._tasks.items()}

    @property
    def makespan(self) -> float:
        """The end of the last scheduled activity -- the run's virtual duration
        (the clock's high-water mark: every start and end passes through it)."""
        return self.clock.high_water
