"""The fault-campaign engine: run plans against live systems, measure detection.

A campaign takes declarative :class:`~repro.faultsim.plan.CampaignScenario`
rows, and for each one:

1. builds a fresh :class:`~repro.core.fides.FidesSystem`;
2. injects each misbehaving server's
   :class:`~repro.server.faults.FaultPlan` rows;
3. drives the multi-client background workload through
   ``FidesSystem.run_workload`` (the PR-1 engine), then the scenario's
   *probe* -- a short scripted transaction sequence on a reserved item that
   deterministically surfaces the fault;
4. runs the external auditor with wall-clock timing, and also scans the
   TFCommit round results for protocol-level detection (challenge refusals,
   faulty-signer identification);
5. produces a structured :class:`DetectionResult`: detected or not, by whom,
   whether the culprit attribution is correct, blocks-until-detection, and
   audit wall-time against an honest-run baseline.

One reserved item per shard (the first item) is excluded from the background
workload so probes cannot be clobbered by random traffic and detection stays
deterministic for deterministic triggers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.report import AuditReport
from repro.audit.violations import ViolationType
from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.scaled import build_system
from repro.core.sequencing import sharded_sequencer
from repro.faultsim.plan import RESERVED_ITEM, CampaignScenario, build_fault_matrix
from repro.net.latency import ConstantLatency
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import YcsbWorkload


@dataclass(frozen=True)
class CampaignConfig:
    """Sizing of the system and workload every scenario runs against."""

    num_servers: int = 3
    items_per_shard: int = 48
    txns_per_block: int = 2
    ops_per_txn: int = 2
    num_requests: int = 8
    num_clients: int = 2
    message_signing: str = "hash"
    latency_s: float = 0.0002
    seed: int = 2020

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            num_servers=self.num_servers,
            items_per_shard=self.items_per_shard,
            txns_per_block=self.txns_per_block,
            ops_per_txn=self.ops_per_txn,
            # Multi-versioned stores let the audit authenticate every block
            # exhaustively, which pinpoints the corrupted version (Lemma 2).
            multi_versioned=True,
            message_signing=self.message_signing,
            seed=self.seed,
        )

    @property
    def server_ids(self) -> List[str]:
        return self.system_config().server_ids


@dataclass
class DetectionResult:
    """Everything one scenario run produced."""

    scenario: str
    fault_kinds: Tuple[str, ...]
    targets: Tuple[str, ...]
    deterministic: bool
    expected_violation: Optional[ViolationType]
    expected_culprits: Tuple[str, ...]
    liveness: bool = False
    detected: bool = False
    detected_by: str = ""  # "audit", "protocol", "liveness", or ""
    violation_kinds: Tuple[str, ...] = ()
    culprits: Tuple[str, ...] = ()
    culprit_correct: bool = False
    #: Crash scenarios: servers the runner recovered before probing/auditing.
    recovered_servers: Tuple[str, ...] = ()
    #: Peers whose catch-up response a recovering server rejected.
    recovery_rejections: Tuple[str, ...] = ()
    #: True if the audit wrongly pinned a safety violation on a crash target
    #: (crashes are liveness events and must never be misclassified).
    misattributed: bool = False
    #: Failover scenarios: the successor elected by the view change, the new
    #: view number, how many blocks the successor committed after the view
    #: change (probe traffic; stalled-round re-proposals excluded), and
    #: whether the cluster fully recovered (post-view-change commits
    #: succeeded AND the audit came back clean).
    failover: bool = False
    failover_successor: str = ""
    new_view: Optional[int] = None
    post_failover_committed: int = 0
    recovered_after_failover: bool = False
    fault_height: Optional[int] = None
    detection_height: Optional[int] = None
    blocks_until_detection: Optional[int] = None
    audit_time_s: float = 0.0
    honest_audit_time_s: float = 0.0
    committed: int = 0
    aborted: int = 0
    failed: int = 0
    report: Optional[AuditReport] = field(default=None, repr=False)

    @property
    def audit_overhead(self) -> float:
        """Audit wall-time relative to the honest baseline (1.0 = no overhead)."""
        if self.honest_audit_time_s <= 0.0:
            return 0.0
        return self.audit_time_s / self.honest_audit_time_s

    def as_row(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "faults": "+".join(self.fault_kinds),
            "targets": "+".join(self.targets),
            "expected": (
                self.expected_violation.value
                if self.expected_violation
                else ("liveness" if self.liveness else "protocol")
            ),
            "detected": self.detected,
            "detected by": self.detected_by or "-",
            "culprit ok": self.culprit_correct,
            "culprits": ",".join(self.culprits) or "-",
            "fault@block": self.fault_height if self.fault_height is not None else "-",
            "blocks-to-detect": (
                self.blocks_until_detection if self.blocks_until_detection is not None else "-"
            ),
            "view change": (
                f"{self.failover_successor}@v{self.new_view}" if self.failover else "-"
            ),
            "recovered": self.recovered_after_failover if self.failover else "-",
            "audit (ms)": round(self.audit_time_s * 1000.0, 3),
            "audit overhead (x)": round(self.audit_overhead, 2),
            "committed": self.committed,
        }


class CampaignRunner:
    """Runs fault scenarios and reports detection outcomes."""

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()
        self._honest_audit_time: Optional[float] = None

    # -- system / workload plumbing ------------------------------------------

    def build_system(self, deployment: str = "classic") -> FidesSystem:
        """``"classic"``, or ``"sharded"``: the scaled deployment over a
        two-lane sequencer (the only one that seals epoch anchors)."""
        return build_system(
            "scaled" if deployment == "sharded" else deployment,
            self.config.system_config(),
            latency=ConstantLatency(self.config.latency_s),
            sequencer=sharded_sequencer(2, epoch_max_blocks=4),
        )

    @staticmethod
    def reserved_items(system: FidesSystem) -> Dict[str, str]:
        """server_id -> its reserved probe item (first item of the shard)."""
        return {
            server_id: system.shard_map.items_of(server_id)[0]
            for server_id in system.server_ids
        }

    def workload_specs(self, system: FidesSystem):
        reserved = set(self.reserved_items(system).values())
        universe = [item for item in system.shard_map.all_items() if item not in reserved]
        workload = YcsbWorkload(
            item_ids=universe,
            ops_per_txn=self.config.ops_per_txn,
            conflict_free_window=self.config.txns_per_block,
            seed=self.config.seed,
        )
        return workload.generate(self.config.num_requests)

    def _commit_now(self, system: FidesSystem, operations, client_index: int) -> None:
        """Run one probe transaction and force its block out immediately."""
        outcome = system.run_transaction(operations, client_index=client_index)
        if outcome.pending:
            system.flush()

    # -- probes ---------------------------------------------------------------

    def _probe_server(self, system: FidesSystem, scenario: CampaignScenario) -> str:
        """The server whose reserved item the probe exercises.

        For coordinator-side faults the probe must touch the *victim's* shard
        (fake/dropped roots) or any cohort shard (equivocation); for cohort
        faults it is the misbehaving server itself.
        """
        for plan in scenario.plans:
            victim = plan.params.get("victim")
            if victim is not None:
                return victim
        coordinator = system.server_ids[0]
        for plan in scenario.plans:
            if plan.target != coordinator:
                return plan.target
        return system.server_ids[1]

    def _run_probe(self, system: FidesSystem, scenario: CampaignScenario) -> None:
        if scenario.probe == "none":
            return
        reserved = self.reserved_items(system)
        item = reserved[self._probe_server(system, scenario)]
        if scenario.probe == "stale-txn":
            self._probe_stale_txn(system, item, reserved)
            return
        # Default "rw" probe: commit a known write, then read-modify-write it
        # from another client.  This surfaces read corruption (the second
        # read), dropped/corrupted state (both blocks), commitment-layer
        # crypto faults, and coordinator block assembly faults.
        self._commit_now(system, [ReadOp(item), WriteOp(item, 111_111)], client_index=0)
        self._commit_now(system, [ReadOp(item), WriteOp(item, 222_222)], client_index=1)

    def _probe_stale_txn(
        self, system: FidesSystem, item: str, reserved: Dict[str, str]
    ) -> None:
        """The Figure 10 dance: a stale read commits because validation is skipped.

        A helper item on another (honest) shard is written in the interfering
        transaction and read by the stale client, so the stale client's
        Lamport clock reaches the committed frontier and its termination
        request is not rejected as stale before validation would run.
        """
        helper_server = next(
            sid for sid in system.server_ids if reserved[sid] != item
        )
        helper = reserved[helper_server]
        self._commit_now(system, [ReadOp(item), WriteOp(item, 10)], client_index=0)
        client = system.client(1)
        session = client.begin()
        client.read(session, item)
        self._commit_now(
            system,
            [ReadOp(item), WriteOp(item, 20), ReadOp(helper), WriteOp(helper, 21)],
            client_index=0,
        )
        client.read(session, helper)
        client.write(session, item, 30)
        outcome = client.commit(session)
        if outcome.pending:
            system.flush()

    # -- detection ------------------------------------------------------------

    def _honest_baseline(self) -> float:
        """Audit wall-time of an honest run over the same workload (cached)."""
        if self._honest_audit_time is None:
            system = self.build_system()
            system.run_workload(self.workload_specs(system), num_clients=self.config.num_clients)
            report = system.audit(datastore_mode="all")
            if not report.ok:  # pragma: no cover - would mean a broken harness
                raise AssertionError(f"honest baseline not clean: {report.summary()}")
            self._honest_audit_time = report.audit_wall_time_s
        return self._honest_audit_time

    def run_scenario(self, scenario: CampaignScenario) -> DetectionResult:
        system = self.build_system(scenario.deployment)
        reserved = self.reserved_items(system)
        by_target: Dict[str, List[FaultPlan]] = {}
        # Anchor faults target the ordering service, which has no fault
        # hooks; the runner applies them after the workload.
        anchor_plans = [p for p in scenario.plans if p.fault == "anchor-tamper"]
        for plan in scenario.plans:
            if plan.fault == "anchor-tamper":
                continue
            by_target.setdefault(plan.target, []).append(self._resolve(plan, reserved))
        for target, plans in by_target.items():
            system.inject_fault(target, plans)

        workload_result = system.run_workload(
            self.workload_specs(system), num_clients=self.config.num_clients
        )
        recoveries = self._recover_crashed(system, scenario) if scenario.liveness else {}
        # Failover scenarios depose the faulty coordinator once it is back
        # up (or still lying): the view change re-proposes the stalled
        # rounds and the probe below must commit under the successor.
        failover_outcome = system.fail_over() if scenario.failover else None
        pre_probe_results = {
            server_id: len(coordinator.results)
            for server_id, coordinator in system.coordinators.items()
        }
        self._run_probe(system, scenario)
        if scenario.liveness:
            # A late trigger (height/phase not reached until the probe) can
            # crash the target mid-probe; recover again so the audit runs on
            # a live cluster.
            recoveries.update(self._recover_crashed(system, scenario))
        if anchor_plans:
            self._tamper_anchors(system)

        report = system.audit(datastore_mode="all")

        result = DetectionResult(
            scenario=scenario.name,
            fault_kinds=scenario.fault_kinds,
            targets=scenario.targets,
            deterministic=scenario.deterministic,
            expected_violation=scenario.expected_violation,
            expected_culprits=scenario.expected_culprits,
            liveness=scenario.liveness,
            audit_time_s=report.audit_wall_time_s,
            honest_audit_time_s=self._honest_baseline(),
            committed=workload_result.committed,
            aborted=workload_result.aborted,
            failed=workload_result.failed,
            report=report,
        )
        heights = [system.servers[target].faults.first_fired_height() for target in by_target]
        heights = [h for h in heights if h is not None]
        result.fault_height = min(heights) if heights else None

        if failover_outcome is not None:
            result.failover = True
            result.failover_successor = failover_outcome.successor
            result.new_view = failover_outcome.new_view
            result.post_failover_committed = sum(
                1
                for server_id, coordinator in system.coordinators.items()
                for block_result in coordinator.results[pre_probe_results.get(server_id, 0):]
                if block_result.status == "committed"
            )
            result.recovered_after_failover = (
                result.post_failover_committed > 0 and report.ok
            )

        if scenario.liveness:
            self._detect_liveness(system, scenario, result, recoveries, report)
        elif scenario.expected_violation is None:
            self._detect_protocol(system, scenario, result)
        else:
            self._detect_audit(report, scenario, result)
        return result

    def _recover_crashed(self, system: FidesSystem, scenario: CampaignScenario) -> Dict:
        """Recover every crashed server, consulting tampering peers *first*.

        Putting declared catch-up tamperers at the front of the peer order
        guarantees their doctored state response is actually exercised
        (and must be rejected) before an honest peer completes the recovery.
        """
        tamperers = [
            plan.target for plan in scenario.plans if plan.fault == "tamper-catchup"
        ]
        recoveries = {}
        for server_id in system.crashed_servers():
            peers = [peer for peer in tamperers if peer != server_id] + [
                peer
                for peer in system.server_ids
                if peer != server_id
                and peer not in tamperers
                and not system.servers[peer].crashed
            ]
            recoveries[server_id] = system.recover_server(server_id, peer_order=peers)
        return recoveries

    @staticmethod
    def _tamper_anchors(system) -> None:
        """Doctor the sharded sequencer's last epoch anchor (shard heads).

        The signed blocks themselves stay untouched -- only the service's
        anchor chain lies, which is exactly the misbehaviour the auditor's
        per-shard replay must pin on ``ordserv``.
        """
        from dataclasses import replace as dc_replace

        service = system.ordering
        if not service.epoch_anchors:
            system.flush()
        anchors = service._anchors
        last = anchors[-1]
        anchors[-1] = dc_replace(
            last, shard_heads=tuple(b"\x00" * 32 for _ in last.shard_heads)
        )

    @staticmethod
    def _resolve(plan: FaultPlan, reserved: Dict[str, str]) -> FaultPlan:
        """Substitute ``$reserved`` placeholders with the target's probe item."""
        params = dict(plan.params)
        for key in ("item",):
            if params.get(key) == RESERVED_ITEM:
                params[key] = reserved[plan.target]
        return FaultPlan(
            fault=plan.fault, target=plan.target, trigger=plan.trigger, params=params
        )

    def _detect_audit(
        self, report: AuditReport, scenario: CampaignScenario, result: DetectionResult
    ) -> None:
        result.violation_kinds = tuple(
            dict.fromkeys(v.kind.value for v in report.violations)
        )
        result.culprits = report.culprit_servers()
        matching = report.violations_of(scenario.expected_violation)
        if not matching:
            return
        result.detected = True
        result.detected_by = "audit"
        result.culprit_correct = all(
            any(v.involves(culprit) for v in matching)
            for culprit in scenario.expected_culprits
        )
        heights = [v.block_height for v in matching if v.block_height is not None]
        if heights:
            result.detection_height = min(heights)
            result.blocks_until_detection = report.detection_latency_blocks(
                result.detection_height
            )

    def _detect_protocol(
        self, system: FidesSystem, scenario: CampaignScenario, result: DetectionResult
    ) -> None:
        """Detection inside the TFCommit round: refusals and faulty signers.

        A cohort refusing the challenge phase implicates the *coordinator*
        (it assembled a block inconsistent with the votes, or equivocated);
        an invalid partial signature identifies the lying cohort directly
        (Lemma 4).
        """
        culprits: List[str] = []
        # Retired coordinators are scanned too: after a failover the lying
        # coordinator's failed rounds live in *its* result list, not the
        # successor's, and refusals implicate the server that drove the round.
        for coordinator in system.coordinators.values():
            for block_result in coordinator.results:
                if block_result.status != "failed":
                    continue
                for culprit in block_result.culprits:
                    if culprit not in culprits:
                        culprits.append(culprit)
                if block_result.refusals and coordinator.coordinator_id not in culprits:
                    culprits.append(coordinator.coordinator_id)
        result.culprits = tuple(culprits)
        if culprits:
            result.detected = True
            result.detected_by = "protocol"
            result.blocks_until_detection = 0
            result.culprit_correct = all(
                culprit in culprits for culprit in scenario.expected_culprits
            )

    def _detect_liveness(
        self,
        system: FidesSystem,
        scenario: CampaignScenario,
        result: DetectionResult,
        recoveries: Dict,
        report: AuditReport,
    ) -> None:
        """Crash/recovery detection: round failures and rejected catch-up.

        A crashed cohort surfaces as an *unreachable* refusal in a failed
        TFCommit round (the liveness signal); a tampering catch-up peer
        surfaces as a rejected state response during recovery.  Neither
        may appear in the audit report as a safety violation pinned on the
        target -- ``misattributed`` records whether that invariant held.
        """
        culprits: List[str] = []
        for coordinator in system.coordinators.values():
            for block_result in coordinator.results:
                for refusal in block_result.refusals:
                    if refusal.unreachable and refusal.server_id not in culprits:
                        culprits.append(refusal.server_id)
        for recovery in recoveries.values():
            for peer in recovery.rejected_peers:
                if peer not in culprits:
                    culprits.append(peer)
        result.culprits = tuple(culprits)
        result.recovered_servers = tuple(recoveries)
        result.recovery_rejections = tuple(
            sorted(
                {
                    peer
                    for recovery in recoveries.values()
                    for peer in recovery.rejected_peers
                }
            )
        )
        result.misattributed = any(
            violation.involves(target)
            for violation in report.violations
            for target in scenario.targets
        )
        if culprits:
            result.detected = True
            result.detected_by = "liveness"
            result.blocks_until_detection = 0
            # Liveness attribution covers the *crash* targets (seen as
            # unreachable by the failed rounds).  A catch-up tamperer only
            # becomes observable if its trigger fired during a recovery with
            # a non-empty gap, so it is asserted via ``recovery_rejections``
            # where the scenario makes it deterministic, not here.
            crash_targets = [
                plan.target
                for plan in scenario.plans
                if plan.fault in ("crash", "coordinator-crash")
            ]
            result.culprit_correct = all(
                target in culprits for target in crash_targets
            )

    # -- the matrix ------------------------------------------------------------

    def run_matrix(
        self, scenarios: Optional[Sequence[CampaignScenario]] = None
    ) -> List[DetectionResult]:
        if scenarios is None:
            scenarios = build_fault_matrix(self.config.server_ids)
        return [self.run_scenario(scenario) for scenario in scenarios]


def run_campaign(
    config: Optional[CampaignConfig] = None,
    scenarios: Optional[Sequence[CampaignScenario]] = None,
) -> List[DetectionResult]:
    """Convenience one-shot: build a runner and sweep the matrix."""
    return CampaignRunner(config).run_matrix(scenarios)
