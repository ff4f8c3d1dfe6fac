"""Each invariant fires on a hand-built violating state (and only then).

The checkers are duck-typed over the final run state, so these tests drive
them with minimal stub systems: one mutated field per test, asserting the
specific violation appears.  End-to-end evaluation over *real* systems is
covered by the explorer and mutation self-tests.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

from repro.bench import harness
from repro.check import invariants
from repro.check.invariants import (
    INVARIANTS,
    RunRecord,
    Violation,
    check_agreement,
    check_decided_once,
    check_frontier_monotonic,
    check_hash_chain,
    check_no_commit_lost,
    check_ordering_consistent,
    check_pipeline_conformance,
    check_round_state_released,
    check_workload_accounting,
    evaluate,
)
from repro.check.scenarios import SCENARIOS, TINY
from repro.common.timestamps import Timestamp
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import TransactionSpec


def _txn(txn_id, commit_ts=None):
    return SimpleNamespace(txn_id=txn_id, commit_ts=commit_ts)


def _block(txns, *, is_commit=True, height=1, group=None):
    return SimpleNamespace(
        is_commit=is_commit, transactions=tuple(txns), height=height, group=group
    )


def _server(blocks=(), pending_rounds=0, crashed=False):
    return SimpleNamespace(
        log=list(blocks),
        crashed=crashed,
        commitment=SimpleNamespace(pending_round_count=lambda: pending_rounds),
        latest_checkpoint=None,
    )


def _system(servers):
    return SimpleNamespace(
        servers=servers,
        config=SimpleNamespace(server_ids=sorted(servers)),
        network=SimpleNamespace(public_key_directory=lambda: {}),
        sim=None,
    )


def _record(servers, **kwargs):
    return RunRecord(system=_system(servers), **kwargs)


class TestAgreement:
    def test_divergent_decisions_fire(self):
        record = _record(
            {
                "s0": _server([_block([_txn("t1")], is_commit=True)]),
                "s1": _server([_block([_txn("t1")], is_commit=False)]),
            }
        )
        violations = check_agreement(record)
        assert [v.invariant for v in violations] == ["agreement"]
        assert "t1" in violations[0].message

    def test_byzantine_servers_are_excluded(self):
        record = _record(
            {
                "s0": _server([_block([_txn("t1")], is_commit=True)]),
                "s1": _server([_block([_txn("t1")], is_commit=False)]),
            },
            byzantine=frozenset({"s1"}),
        )
        assert check_agreement(record) == []


class TestDecidedOnce:
    def test_double_decision_fires(self):
        # A re-proposed round deciding alongside the original: same txn in
        # two blocks of one log, even with agreeing decisions.
        record = _record(
            {
                "s0": _server(
                    [
                        _block([_txn("t1")], height=1),
                        _block([_txn("t1")], height=2),
                    ]
                )
            }
        )
        violations = check_decided_once(record)
        assert [v.invariant for v in violations] == ["decided-once"]
        assert "block 1 and again in block 2" in violations[0].message

    def test_distinct_transactions_are_clean(self):
        record = _record(
            {
                "s0": _server(
                    [
                        _block([_txn("t1")], height=1),
                        _block([_txn("t2")], height=2),
                    ]
                )
            }
        )
        assert check_decided_once(record) == []

    def test_byzantine_logs_are_excluded(self):
        record = _record(
            {"s0": _server([_block([_txn("t1")], height=1)] * 2)},
            byzantine=frozenset({"s0"}),
        )
        assert check_decided_once(record) == []


class TestHashChain:
    def test_invalid_log_fires(self):
        bad = _server()
        bad.log = SimpleNamespace(
            verify=lambda directory, servers, checkpoint=None: SimpleNamespace(
                valid=False, first_invalid_height=3, reason="hash mismatch"
            )
        )
        record = _record({"s0": bad})
        violations = check_hash_chain(record)
        assert [v.invariant for v in violations] == ["hash-chain"]
        assert "height 3" in violations[0].message


class TestFrontierMonotonic:
    def test_stale_commit_fires(self):
        early = Timestamp(5, "c0")
        stale = Timestamp(5, "c0")  # equal to the frontier: not strictly above
        record = _record(
            {
                "s0": _server(
                    [
                        _block([_txn("t1", early)], height=1),
                        _block([_txn("t2", stale)], height=2),
                    ]
                )
            }
        )
        violations = check_frontier_monotonic(record)
        assert [v.invariant for v in violations] == ["frontier-monotonic"]

    def test_per_group_frontiers_are_independent(self):
        ts = Timestamp(5, "c0")
        record = _record(
            {
                "s0": _server(
                    [
                        _block([_txn("t1", ts)], height=1, group=("s0", "s1")),
                        _block([_txn("t2", ts)], height=2, group=("s0", "s2")),
                    ]
                )
            }
        )
        assert check_frontier_monotonic(record) == []


class TestNoCommitLost:
    def test_missing_committed_txn_fires(self):
        workload = SimpleNamespace(
            outcomes=[SimpleNamespace(txn_id="t1", committed=True)]
        )
        record = _record({"s0": _server([])}, slices=[workload])
        violations = check_no_commit_lost(record)
        assert [v.invariant for v in violations] == ["no-commit-lost"]
        assert "absent" in violations[0].message

    def test_aborted_outcomes_are_not_required(self):
        workload = SimpleNamespace(
            outcomes=[SimpleNamespace(txn_id="t1", committed=False)]
        )
        record = _record({"s0": _server([])}, slices=[workload])
        assert check_no_commit_lost(record) == []


class TestRoundStateReleased:
    def test_leaked_round_state_fires(self):
        record = _record({"s0": _server(pending_rounds=2)})
        violations = check_round_state_released(record)
        assert [v.invariant for v in violations] == ["round-state-released"]
        assert "2 round(s)" in violations[0].message

    def test_crashed_servers_are_skipped(self):
        record = _record({"s0": _server(pending_rounds=2, crashed=True)})
        assert check_round_state_released(record) == []


class TestWorkloadAccounting:
    def _workload(self, block_results, outcomes):
        return SimpleNamespace(block_results=block_results, outcomes=outcomes)

    def test_double_counted_block_result_fires(self):
        shared = SimpleNamespace(status="committed", outcomes=[])
        record = _record(
            {"s0": _server()},
            slices=[self._workload([shared], []), self._workload([shared], [])],
        )
        violations = check_workload_accounting(record)
        assert "appears again in run 1" in violations[0].message

    def test_client_block_commit_mismatch_fires(self):
        block = SimpleNamespace(
            status="committed",
            outcomes=[SimpleNamespace(txn_id="t1", status="committed")],
        )
        record = _record(
            {"s0": _server()},
            slices=[self._workload([block], [])],  # client saw no commit
        )
        violations = check_workload_accounting(record)
        assert [v.invariant for v in violations] == ["workload-accounting"]


class TestPipelineConformance:
    def _scheduler_record(self, tasks, depth=1):
        scheduler = SimpleNamespace(
            all_tasks=lambda: {"coordinator": tasks}, pipeline_depth=depth
        )
        system = SimpleNamespace(sim=SimpleNamespace(scheduler=scheduler), servers={})
        return RunRecord(system=system)

    def _task(self, label, phases, started_at=0.0, done_at=None, chained=False):
        return SimpleNamespace(
            label=label,
            phases=dict(phases),
            started_at=started_at,
            done_at=done_at,
            chained=chained,
        )

    def test_overlapping_phases_within_a_task_fire(self):
        task = self._task("block-1", {"vote": (0.0, 2.0), "aggregate": (1.0, 3.0)})
        violations = check_pipeline_conformance(self._scheduler_record([task]))
        assert any("starts at" in v.message for v in violations)

    def test_overlapping_compute_phases_across_tasks_fire(self):
        tasks = [
            self._task("block-1", {"aggregate": (0.0, 2.0)}),
            self._task("block-2", {"aggregate": (1.0, 3.0)}),
        ]
        violations = check_pipeline_conformance(self._scheduler_record(tasks))
        assert any("overlap" in v.message for v in violations)

    def test_depth_one_chained_task_must_wait(self):
        tasks = [
            self._task("block-1", {"decision": (0.0, 1.0)}, started_at=0.0, done_at=2.0),
            self._task(
                "block-2",
                {"decision": (3.0, 4.0)},
                started_at=1.0,
                done_at=4.0,
                chained=True,
            ),
        ]
        violations = check_pipeline_conformance(self._scheduler_record(tasks, depth=1))
        assert any("inside its predecessor" in v.message for v in violations)

    def test_system_without_sim_is_skipped(self):
        record = RunRecord(system=SimpleNamespace(sim=None, servers={}))
        assert check_pipeline_conformance(record) == []


class TestOrderingConsistent:
    """A real stream passes; the same stream tampered after the run does not."""

    def test_an_honest_sharded_stream_is_clean(self):
        assert check_ordering_consistent(SCENARIOS["sharded-ordering"].run()) == []

    def test_a_tampered_lane_head_is_reported(self):
        record = SCENARIOS["sharded-ordering"].run()
        record.system.ordering._lanes[0].head = bytes(32)
        [violation] = check_ordering_consistent(record)
        assert "lane" in violation.message

    def test_two_swapped_dependent_blocks_are_reported(self):
        system, _ = harness.build(replace(TINY, deployment="scaled"))
        x = system.shard_map.items_of("s0")[0]
        y = system.shard_map.items_of("s1")[0]
        # Groups {s0} and {s0, s1} overlap, and the second reads what the
        # first wrote: the stream must keep them in publication order.
        system.run_workload(
            [
                TransactionSpec(0, (WriteOp(x, 1),)),
                TransactionSpec(1, (ReadOp(x), WriteOp(y, 2))),
            ]
        )
        record = RunRecord(system=system)
        assert check_ordering_consistent(record) == []
        stream = system.ordering._ordered
        stream[0], stream[1] = stream[1], stream[0]
        [violation] = check_ordering_consistent(record)
        assert "depends on" in violation.message

    def test_a_deployment_without_an_ordering_service_is_skipped(self):
        assert check_ordering_consistent(RunRecord(system=SimpleNamespace(ordering=None))) == []


class TestEvaluate:
    def test_runs_every_checker_in_catalogue_order(self, monkeypatch):
        def planted(name):
            return lambda record: [Violation(name, "planted")]

        monkeypatch.setattr(invariants, "INVARIANTS", {"b": planted("b"), "a": planted("a")})
        assert [v.invariant for v in evaluate(_record({}))] == ["b", "a"]

    def test_a_checker_reports_only_its_own_invariant(self):
        record = _record({"s0": _server(pending_rounds=1)})
        assert INVARIANTS["agreement"](record) == []
        assert [v.invariant for v in INVARIANTS["round-state-released"](record)] == [
            "round-state-released"
        ]

    def test_catalogue_is_complete(self):
        assert set(INVARIANTS) == {
            "agreement",
            "decided-once",
            "hash-chain",
            "frontier-monotonic",
            "no-commit-lost",
            "cosign-consistency",
            "round-state-released",
            "workload-accounting",
            "pipeline-conformance",
            "ordering-consistent",
        }
