"""Unit tests for the pipelined round scheduler's dependency rules."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError, ProtocolInvariantError
from repro.sim import PipelinedRoundScheduler, Timeline
from repro.sim.scheduler import KIND_COMPUTE, KIND_TERMINAL


def make_scheduler(depth: int = 1) -> PipelinedRoundScheduler:
    return PipelinedRoundScheduler(Timeline(), pipeline_depth=depth)


def run_round(scheduler, resource="c0", label="b", **kwargs):
    """Drive one classic five-phase round with unit-duration phases."""
    task = scheduler.begin_block(resource=resource, label=label, **kwargs)
    for phase, kind in (
        ("get_vote", "broadcast"),
        ("aggregate", KIND_COMPUTE),
        ("challenge", "broadcast"),
        ("finalize", KIND_COMPUTE),
        ("decision", KIND_TERMINAL),
    ):
        scheduler.begin_phase(task, phase, kind=kind)
        scheduler.end_phase(task, phase, 1.0)
    scheduler.end_block(task)
    return task


class TestSequentialDepthOne:
    def test_blocks_run_back_to_back(self):
        scheduler = make_scheduler(depth=1)
        first = run_round(scheduler, label="b1")
        second = run_round(scheduler, label="b2")
        assert first.done_at == 5.0
        assert second.started_at == first.done_at
        assert second.done_at == 10.0
        assert scheduler.makespan == 10.0

    def test_phases_are_contiguous(self):
        scheduler = make_scheduler(depth=1)
        task = run_round(scheduler)
        ends = [task.phases[p][1] for p in ("get_vote", "aggregate", "challenge", "finalize", "decision")]
        assert ends == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestPipelining:
    def test_chain_rule_overlaps_from_aggregate_end(self):
        scheduler = make_scheduler(depth=2)
        first = run_round(scheduler, label="b1")
        second = run_round(scheduler, label="b2")
        # Block 2's phase 1 starts when block 1's aggregate ends (its hash
        # pointer exists), overlapping block 1's phases 3-5.
        assert second.started_at == first.phases["aggregate"][1] == 2.0
        assert scheduler.makespan < first.done_at + 5.0

    def test_depth_limits_inflight_blocks(self):
        scheduler = make_scheduler(depth=2)
        first = run_round(scheduler, label="b1")
        second = run_round(scheduler, label="b2")
        third = run_round(scheduler, label="b3")
        # At depth 2 the third block cannot start before the first finished.
        assert third.started_at >= first.done_at
        assert second.started_at < first.done_at

    def test_conflict_rule_serializes(self):
        scheduler = make_scheduler(depth=4)
        first = run_round(scheduler, label="b1", write_items=frozenset({"x"}))
        second = run_round(scheduler, label="b2", read_items=frozenset({"x"}))
        assert second.started_at == first.done_at

    def test_disjoint_footprints_do_overlap(self):
        scheduler = make_scheduler(depth=4)
        first = run_round(scheduler, label="b1", write_items=frozenset({"x"}))
        second = run_round(scheduler, label="b2", write_items=frozenset({"y"}))
        assert second.started_at < first.done_at

    def test_commit_frontier_rule_serializes(self):
        scheduler = make_scheduler(depth=4)
        first = run_round(scheduler, label="b1", max_commit_ts=(7, "c1"))
        second = run_round(scheduler, label="b2", min_commit_ts=(5, "c0"))
        # A transaction at or below the in-flight block's frontier depends on
        # its decision (it may become stale), so the rounds serialize.
        assert second.started_at == first.done_at

    def test_unchained_blocks_skip_the_chain_rule(self):
        scheduler = make_scheduler(depth=2)
        first = run_round(scheduler, label="g1", chained=False)
        second = run_round(scheduler, label="g2", chained=False)
        # Group blocks have no proposal-time hash pointer: only the depth
        # rule applies, so block 2 starts immediately.
        assert second.started_at == 0.0
        assert first.started_at == 0.0

    def test_coordinator_compute_serializes_across_blocks(self):
        scheduler = make_scheduler(depth=2)
        first = run_round(scheduler, label="b1")
        second = run_round(scheduler, label="b2")
        windows = sorted([first.phases["aggregate"], first.phases["finalize"],
                          second.phases["aggregate"], second.phases["finalize"]])
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert s2 >= e1  # one machine: compute segments never overlap

    def test_terminal_phases_apply_in_block_order(self):
        scheduler = make_scheduler(depth=2)
        first = run_round(scheduler, label="b1")
        second = run_round(scheduler, label="b2")
        assert second.phases["decision"][0] >= first.phases["decision"][1]


class TestDeliveries:
    def test_deliveries_serialize_on_the_ordering_resource(self):
        scheduler = make_scheduler(depth=2)
        start_a = scheduler.begin_delivery(None, "d1")
        scheduler.end_delivery(None, "d1", start_a, 2.0, write_items=frozenset({"x"}))
        start_b = scheduler.begin_delivery(None, "d2")
        assert start_b == start_a + 2.0

    def test_frontier_gates_only_conflicting_footprints(self):
        scheduler = make_scheduler(depth=2)
        start = scheduler.begin_delivery(None, "d1")
        scheduler.end_delivery(None, "d1", start, 2.0, write_items=frozenset({"x"}))
        blocked = scheduler.begin_block(
            resource="c1", label="g1", read_items=frozenset({"x"}),
            chained=False, group_members=frozenset({"s0"}),
        )
        free = scheduler.begin_block(
            resource="c2", label="g2", read_items=frozenset({"y"}),
            chained=False, group_members=frozenset({"s0"}),
        )
        assert blocked.started_at == 2.0
        assert free.started_at == 0.0


class TestLifecycleGuards:
    def test_begin_phase_twice_raises(self):
        scheduler = make_scheduler()
        task = scheduler.begin_block(resource="c0", label="b")
        scheduler.begin_phase(task, "get_vote")
        with pytest.raises(ProtocolInvariantError):
            scheduler.begin_phase(task, "aggregate")

    def test_end_phase_without_begin_raises(self):
        scheduler = make_scheduler()
        task = scheduler.begin_block(resource="c0", label="b")
        with pytest.raises(ProtocolInvariantError):
            scheduler.end_phase(task, "get_vote", 1.0)

    def test_end_block_closes_an_open_phase(self):
        # A round that dies mid-phase (coordinator crash) still finishes its
        # task; the open phase closes at zero additional cost.
        scheduler = make_scheduler()
        task = scheduler.begin_block(resource="c0", label="b")
        start = scheduler.begin_phase(task, "get_vote")
        done = scheduler.end_block(task, status="failed")
        assert done == start
        assert task.status == "failed"

    def test_depth_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler(depth=0)
