"""Scheduler determinism: same seed => identical state, blocks, timings.

These tests run whole deployments twice under the deterministic
:class:`~repro.sim.context.FixedCompute` model (measured wall-clock compute
is the one intentionally non-deterministic input; the model replaces it) and
assert that the protocol state each run ends in (the model checker's
:func:`~repro.check.explorer.run_fingerprint`), block orders, per-phase
timings and makespans are bit-identical -- including under crash/recovery
faults.
"""

from __future__ import annotations

from repro.check.explorer import run_fingerprint
from repro.check.invariants import RunRecord
from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.net.latency import lan_latency
from repro.server.faults import FaultPlan
from repro.sim import FixedCompute
from repro.workload.ycsb import YcsbWorkload


def classic_config(depth: int = 2, seed: int = 2020) -> SystemConfig:
    return SystemConfig(
        num_servers=3,
        items_per_shard=60,
        txns_per_block=2,
        ops_per_txn=2,
        multi_versioned=False,
        message_signing="hash",
        pipeline_depth=depth,
        seed=seed,
    )


def run_classic(depth: int = 2, seed: int = 2020, crash: bool = False):
    config = classic_config(depth=depth, seed=seed)
    system = FidesSystem(
        config=config,
        latency=lan_latency(seed=seed),
        compute_model=FixedCompute(0.001),
    )
    if crash:
        # A cohort crashes in the vote phase of the round at height >= 1:
        # that round fails, the workload continues on retry semantics, and
        # the server recovers mid-run -- all of it on the virtual timeline.
        vote_at_or_after_1 = {
            "kind": "all",
            "of": [{"kind": "phase", "phases": ["vote"]}, {"kind": "at-height", "height": 1}],
        }
        system.inject_fault("s2", [FaultPlan("crash", "s2", vote_at_or_after_1)])
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(),
        ops_per_txn=2,
        conflict_free_window=2 * config.txns_per_block,
        seed=seed,
    )
    outcome = system.run_workload(workload.generate(8))
    if crash:
        assert system.crashed_servers() == ["s2"]
        system.recover_server("s2")
        outcome2 = system.run_workload(workload.generate(4))
        return system, (outcome, outcome2)
    return system, (outcome,)


def state_of(system, outcomes) -> str:
    return run_fingerprint(RunRecord(system=system, slices=list(outcomes)))


def timings_of(outcomes):
    """Per block its status, height and phase durations; per transaction the
    virtual time its decision landed, which pipelining moves."""
    blocks = [
        (r.status, None if r.block is None else r.block.height, sorted(r.timing.phases.items()))
        for outcome in outcomes
        for r in outcome.block_results
    ]
    decided = [o.decided_at for outcome in outcomes for o in outcome.outcomes]
    return blocks, decided


class TestClassicDeterminism:
    def test_same_seed_same_state_timings_and_makespan(self):
        a_system, a_outcomes = run_classic()
        b_system, b_outcomes = run_classic()
        assert state_of(a_system, a_outcomes) == state_of(b_system, b_outcomes)
        assert timings_of(a_outcomes) == timings_of(b_outcomes)
        assert a_system.sim.makespan == b_system.sim.makespan

    def test_different_seed_different_state_timings_and_makespan(self):
        a_system, a_outcomes = run_classic(seed=2020)
        b_system, b_outcomes = run_classic(seed=2021)
        assert state_of(a_system, a_outcomes) != state_of(b_system, b_outcomes)
        assert timings_of(a_outcomes) != timings_of(b_outcomes)
        assert a_system.sim.makespan != b_system.sim.makespan

    def test_depth_changes_timings_but_not_the_protocol_state(self):
        a_system, a_outcomes = run_classic(depth=1)
        b_system, b_outcomes = run_classic(depth=2)
        assert timings_of(a_outcomes) != timings_of(b_outcomes)
        a_blocks = [(s, h) for s, h, _ in timings_of(a_outcomes)[0]]
        b_blocks = [(s, h) for s, h, _ in timings_of(b_outcomes)[0]]
        assert a_blocks == b_blocks
        assert b_system.sim.makespan < a_system.sim.makespan
        # Pipelining moves when things happen, never what the servers hold
        # or what the clients are told: the checker sees one state.
        assert state_of(a_system, a_outcomes) == state_of(b_system, b_outcomes)

    def test_deterministic_under_crash_and_recovery(self):
        a_system, a_outcomes = run_classic(crash=True)
        b_system, b_outcomes = run_classic(crash=True)
        assert any(r.status == "failed" for out in a_outcomes for r in out.block_results)
        assert state_of(a_system, a_outcomes) == state_of(b_system, b_outcomes)
        assert timings_of(a_outcomes) == timings_of(b_outcomes)
        assert a_system.sim.makespan == b_system.sim.makespan
        assert a_system.audit().ok and b_system.audit().ok


class TestScaledDeterminism:
    def run_scaled(self, seed: int = 2020):
        config = SystemConfig(
            num_servers=4,
            items_per_shard=50,
            txns_per_block=2,
            ops_per_txn=2,
            multi_versioned=False,
            message_signing="hash",
            pipeline_depth=2,
            seed=seed,
        )
        system = ScaledFidesSystem(
            config, latency=lan_latency(seed=seed), compute_model=FixedCompute(0.001)
        )
        from repro.bench.harness import locality_partitions
        from repro.workload.ycsb import PartitionedWorkload

        workload = PartitionedWorkload(
            partitions=locality_partitions(system, 2),
            ops_per_txn=2,
            locality=1.0,
            conflict_free_window=4,
            seed=seed,
        )
        outcome = system.run_workload(workload.generate(12), num_clients=2)
        return system, outcome

    def test_same_seed_same_interleaved_run(self):
        a_system, a_outcome = self.run_scaled()
        b_system, b_outcome = self.run_scaled()
        assert state_of(a_system, [a_outcome]) == state_of(b_system, [b_outcome])
        assert timings_of([a_outcome]) == timings_of([b_outcome])
        assert a_outcome.committed == b_outcome.committed
        assert a_system.sim.makespan == b_system.sim.makespan
        # The shared timeline genuinely interleaves distinct coordinators and
        # the ordering service.
        scheduler = a_system.sim.scheduler
        assert len([r for r in scheduler.resources() if r.startswith("s")]) >= 2
        assert "ordserv" in scheduler.delivery_busy()
