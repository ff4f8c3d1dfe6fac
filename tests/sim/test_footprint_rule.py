"""``begin_block``'s start times against the per-prior footprint rule.

The scheduler builds a new block's ``read | write`` union once per call and
compares it with every prior task and ordered delivery.  The reference below
decides each prior the way ``BlockTask.conflicts_with`` did, with both unions
built per prior; over random footprints, commit-timestamp ranges, chained and
group blocks and ordered deliveries, the two must give every block the same
start.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import PipelinedRoundScheduler
from repro.sim.scheduler import KIND_COMPUTE, KIND_TERMINAL

PHASES = (
    ("get_vote", "broadcast"),
    ("aggregate", KIND_COMPUTE),
    ("challenge", "broadcast"),
    ("finalize", KIND_COMPUTE),
    ("decision", KIND_TERMINAL),
)


def per_prior_conflict(prior_reads, prior_writes, reads, writes) -> bool:
    return bool((prior_writes & (reads | writes)) or (writes & (prior_reads | prior_writes)))


def per_prior_start(scheduler, deliveries, resource, reads, writes, min_ts, chained, group):
    """The earliest start of a new block, every prior decided on its own."""
    history = scheduler.all_tasks().get(resource, [])
    earliest = 0.0
    if history:
        previous = history[-1]
        if chained:
            ready = previous.chain_ready_at
            earliest = max(earliest, ready if ready is not None else previous.gate_at)
        if len(history) >= scheduler.pipeline_depth:
            earliest = max(earliest, history[-scheduler.pipeline_depth].gate_at)
        for prior in history:
            if per_prior_conflict(prior.read_items, prior.write_items, reads, writes) or (
                prior.max_commit_ts is not None and min_ts <= prior.max_commit_ts
            ):
                earliest = max(earliest, prior.gate_at)
    if group:
        earliest = max(
            [earliest]
            + [end for r, w, end in deliveries if per_prior_conflict(r, w, reads, writes)]
        )
    return earliest


_items = st.frozensets(st.sampled_from("abcde"), max_size=3)
_block = st.fixed_dictionaries(
    {
        "resource": st.sampled_from(("c0", "c1")),
        "reads": _items,
        "writes": _items,
        "stamps": st.tuples(st.integers(1, 12), st.integers(0, 3)),
        "chained": st.booleans(),
        "group": st.booleans(),
        "durations": st.lists(st.integers(0, 3), min_size=6, max_size=6),
        "ended": st.booleans(),
    }
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.lists(_block, min_size=1, max_size=14))
def test_every_block_starts_where_the_per_prior_rule_says(depth, blocks):
    scheduler = PipelinedRoundScheduler(pipeline_depth=depth)
    deliveries = []
    for index, spec in enumerate(blocks):
        reads, writes = spec["reads"], spec["writes"]
        low, span = spec["stamps"]
        group = frozenset({spec["resource"]}) if spec["group"] else None
        expected = per_prior_start(
            scheduler, deliveries, spec["resource"], reads, writes, (low,), spec["chained"], group
        )
        task = scheduler.begin_block(
            resource=spec["resource"],
            label=f"b{index}",
            read_items=reads,
            write_items=writes,
            min_commit_ts=(low,),
            max_commit_ts=(low + span,),
            chained=spec["chained"],
            group_members=group,
        )
        assert task.started_at == expected, index
        for (phase, kind), duration in zip(PHASES, spec["durations"]):
            scheduler.begin_phase(task, phase, kind=kind)
            scheduler.end_phase(task, phase, float(duration))
        if group is not None:
            start = scheduler.begin_delivery(task)
            _, end = scheduler.end_delivery(
                task, start, float(spec["durations"][-1]), reads, writes
            )
            deliveries.append((reads, writes, end))
        if spec["ended"]:
            scheduler.end_block(task)
