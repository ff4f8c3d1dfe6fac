"""Trace determinism over real runs: same seed, same fingerprint.

Every test here builds two *fresh* deployments with identical seeds under
:class:`~repro.sim.context.FixedCompute` (measured compute would leak wall
clock into the virtual schedule) and asserts the exported traces are
byte-identical -- including runs that crash servers, fail over the
coordinator, and run the fault campaign.
"""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.net.latency import ConstantLatency
from repro.obs import Observability
from repro.server.faults import FaultPlan
from repro.sim.context import FixedCompute
from repro.workload.ycsb import YcsbWorkload


def _config(num_servers: int = 3, txns_per_block: int = 2) -> SystemConfig:
    return SystemConfig(
        num_servers=num_servers,
        items_per_shard=40,
        txns_per_block=txns_per_block,
        ops_per_txn=2,
        multi_versioned=False,
        message_signing="hash",
        seed=7,
    )


def _workload(system, count: int):
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(),
        ops_per_txn=2,
        conflict_free_window=2,
        seed=3,
    )
    return workload.generate(count)


def _traced_classic_run() -> tuple:
    obs = Observability(tracing=True)
    system = FidesSystem(
        _config(),
        latency=ConstantLatency(0.0002),
        compute_model=FixedCompute(0.001),
        obs=obs,
    )
    system.run_workload(_workload(system, 6))
    return obs, system


def _traced_scaled_run() -> tuple:
    obs = Observability(tracing=True)
    system = ScaledFidesSystem(
        _config(num_servers=4),
        latency=ConstantLatency(0.0002),
        compute_model=FixedCompute(0.001),
        obs=obs,
    )
    system.run_workload(_workload(system, 6), num_clients=2)
    return obs, system


def _traced_failover_run() -> tuple:
    obs = Observability(tracing=True)
    system = FidesSystem(
        _config(),
        latency=ConstantLatency(0.0002),
        compute_model=FixedCompute(0.001),
        obs=obs,
    )
    system.run_workload(_workload(system, 2))
    system.inject_fault("s0", [FaultPlan("crash", "s0", {"kind": "phase", "phases": ["vote"]})])
    system.run_workload(_workload(system, 2))
    system.recover_server("s0")
    system.fail_over()
    system.run_workload(_workload(system, 2))
    return obs, system


class TestSameSeedSameTrace:
    def test_classic_run_fingerprints_are_identical(self):
        first, _ = _traced_classic_run()
        second, _ = _traced_classic_run()
        assert first.tracer.span_count() > 0
        assert first.tracer.fingerprint() == second.tracer.fingerprint()
        assert [s.to_wire() for s in first.tracer.spans] != []

    def test_classic_jsonl_exports_are_byte_identical(self, tmp_path):
        first, _ = _traced_classic_run()
        second, _ = _traced_classic_run()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first.tracer.export_jsonl(a)
        second.tracer.export_jsonl(b)
        assert a.read_bytes() == b.read_bytes()

    def test_scaled_run_fingerprints_are_identical(self):
        first, _ = _traced_scaled_run()
        second, _ = _traced_scaled_run()
        assert first.tracer.fingerprint() == second.tracer.fingerprint()
        # The scaled deployment hands round spans through the ordering
        # service: the delivery windows must be part of the trace.
        assert first.tracer.span_count("delivery") > 0

    def test_crash_and_failover_run_fingerprints_are_identical(self):
        first, _ = _traced_failover_run()
        second, _ = _traced_failover_run()
        assert first.tracer.fingerprint() == second.tracer.fingerprint()
        names = [s.name for s in first.tracer.spans]
        assert any(name.startswith("view-change:") for name in names)


class TestTraceQuality:
    def test_classic_run_invariants_hold(self):
        obs, _ = _traced_classic_run()
        assert obs.tracer.check_invariants() == []

    def test_scaled_run_invariants_hold(self):
        obs, _ = _traced_scaled_run()
        assert obs.tracer.check_invariants() == []

    def test_failover_run_invariants_hold(self):
        obs, _ = _traced_failover_run()
        assert obs.tracer.check_invariants() == []

    def test_spans_cover_the_makespan(self):
        obs, system = _traced_classic_run()
        assert obs.tracer.coverage(system.sim.makespan) >= 0.95

    def test_scaled_spans_cover_the_makespan(self):
        obs, system = _traced_scaled_run()
        assert obs.tracer.coverage(system.sim.makespan) >= 0.95

    def test_detection_instants_recorded_for_crash(self):
        obs, _ = _traced_failover_run()
        detections = [s for s in obs.tracer.spans if s.category == "fault-detect"]
        assert detections, "crashed cohort must surface as a detection instant"
        assert obs.metrics.counter_value("faults.detected_unreachable") >= 1.0


class TestMetricsFromRuns:
    def test_round_and_crypto_counters_populate(self):
        obs, system = _traced_classic_run()
        blocks = obs.metrics.counter_value("rounds.committed")
        assert blocks > 0
        assert obs.metrics.counter_value("net.messages") > 0
        assert obs.metrics.counter_value("net.bytes_total") > 0
        assert obs.metrics.counter_value("crypto.envelope_sign.ops") > 0
        assert obs.metrics.counter_value("storage.mht_hashes") > 0
        per_type = obs.attribution()["subsystems"]["net_bytes_per_type"]
        assert per_type, "per-message-type byte accounting must be populated"
        assert sum(per_type.values()) == obs.metrics.counter_value("net.bytes_total")

    def test_fault_injection_instants_and_counter(self):
        obs = Observability(tracing=True)
        system = FidesSystem(
            _config(),
            latency=ConstantLatency(0.0002),
            compute_model=FixedCompute(0.001),
            obs=obs,
        )
        system.inject_fault("s1", [FaultPlan(fault="corrupt-commitment", target="s1")])
        system.run_workload(_workload(system, 2))
        assert obs.metrics.counter_value("faults.injected") >= 1.0
        injected = [s for s in obs.tracer.spans if s.category == "fault-inject"]
        assert injected and injected[0].name.startswith("inject:")

    def test_metrics_survive_crash_recovery_reattach(self):
        obs, system = _traced_failover_run()
        assert obs.metrics.counter_value("recovery.recoveries") >= 1.0
        assert obs.metrics.counter_value("viewchange.count") >= 1.0
        assert obs.metrics.counter_value("recovery.wal_appends") > 0
