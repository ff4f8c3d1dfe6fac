"""The ``faultmatrix`` sweep's script: run plans against live systems, measure detection.

:func:`fault_matrix` is the script of the sweep row (DESIGN.md §7); it runs
every :class:`~repro.faultsim.plan.CampaignScenario` of the grid through
:func:`run_scenario`, which:

1. builds a fresh deployment with :func:`repro.bench.harness.build`;
2. injects each misbehaving server's
   :class:`~repro.server.faults.FaultPlan` rows;
3. drives the multi-client background workload through
   ``FidesSystem.run_workload``, then the scenario's *probe* -- a short
   scripted transaction sequence on a reserved item that deterministically
   surfaces the fault;
4. runs the external auditor with wall-clock timing, and also scans the
   TFCommit round results for protocol-level detection (challenge refusals,
   faulty-signer identification);
5. returns the :class:`~repro.audit.report.AuditReport` and the table row:
   detected or not, by whom, whether the culprit attribution is correct,
   blocks-until-detection, and audit wall-time against an honest run of the
   same deployment.

One reserved item per shard (the first item) is excluded from the background
workload so probes cannot be clobbered by random traffic and detection stays
deterministic for deterministic triggers.  That workload is therefore built
here from the config's fields, the one workload not taken from ``build``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.audit.report import AuditReport
from repro.bench import harness
from repro.faultsim.plan import (
    DEFAULT_TRIGGER_VARIANTS,
    RESERVED_ITEM,
    CampaignScenario,
    build_fault_matrix,
)
from repro.net.latency import ConstantLatency
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import YcsbWorkload

#: What a detection rule found: ``(detected by, culprits, culprit ok,
#: blocks-to-detect)``; ``detected by`` is ``""`` when nothing was detected.
Detection = Tuple[str, Tuple[str, ...], bool, Optional[int]]


def fault_matrix(p, config: harness.ExperimentConfig) -> List[Tuple[AuditReport, Dict]]:
    """The whole fault x trigger grid: one ``(report, row)`` pair per scenario.

    ``smoke`` leaves ``p.trigger_variants`` = how many of the variants to
    keep; otherwise all of them run.  Each deployment the grid uses gets one
    honest run, the baseline of its scenarios' audit overhead.
    """
    variants = DEFAULT_TRIGGER_VARIANTS[: getattr(p, "trigger_variants", None)]
    scenarios = build_fault_matrix(config.system_config().server_ids, variants)
    honest_audit_s = {
        deployment: _honest_audit_time(replace(config, deployment=deployment))
        for deployment in dict.fromkeys(scenario.deployment for scenario in scenarios)
    }
    return [
        run_scenario(config, scenario, honest_audit_s[scenario.deployment])
        for scenario in scenarios
    ]


def run_scenario(
    config: harness.ExperimentConfig, scenario: CampaignScenario, honest_audit_s: float
) -> Tuple[AuditReport, Dict]:
    """One scenario on a fresh deployment: inject, drive, probe, audit, detect."""
    system = _build(replace(config, label=scenario.name, deployment=scenario.deployment))
    reserved = _reserved_items(system)
    by_target: Dict[str, List[FaultPlan]] = {}
    # Anchor faults target the ordering service, which has no fault
    # hooks; the script applies them after the workload.
    anchor_plans = [p for p in scenario.plans if p.fault == "anchor-tamper"]
    for plan in scenario.plans:
        if plan.fault == "anchor-tamper":
            continue
        by_target.setdefault(plan.target, []).append(_resolve(plan, reserved))
    for target, plans in by_target.items():
        system.inject_fault(target, plans)

    workload_result = _run_background(system, config)
    recoveries = _recover_crashed(system, scenario) if scenario.liveness else {}
    # Failover scenarios depose the faulty coordinator once it is back
    # up (or still lying): the view change re-proposes the stalled
    # rounds and the probe below must commit under the successor.
    failover = system.fail_over() if scenario.failover else None
    pre_probe_results = {
        server_id: len(coordinator.results)
        for server_id, coordinator in system.coordinators.items()
    }
    _run_probe(system, scenario)
    if scenario.liveness:
        # A late trigger (height/phase not reached until the probe) can
        # crash the target mid-probe; recover again so the audit runs on
        # a live cluster.
        recoveries.update(_recover_crashed(system, scenario))
    if anchor_plans:
        _tamper_anchors(system)

    report = system.audit(datastore_mode="all")

    if scenario.liveness:
        detected_by, culprits, culprit_ok, blocks = _detect_liveness(
            system, scenario, recoveries
        )
    elif scenario.expected_violation is None:
        detected_by, culprits, culprit_ok, blocks = _detect_protocol(system, scenario)
    else:
        detected_by, culprits, culprit_ok, blocks = _detect_audit(report, scenario)
    heights = [system.servers[target].faults.first_fired_height() for target in by_target]
    heights = [h for h in heights if h is not None]
    fault_height = min(heights) if heights else None
    recovered = "-"
    if failover is not None:
        # How many blocks committed after the view change (probe traffic;
        # stalled-round re-proposals excluded): the cluster recovered iff
        # some did and the audit came back clean.
        post_failover_committed = sum(
            1
            for server_id, coordinator in system.coordinators.items()
            for block_result in coordinator.results[pre_probe_results.get(server_id, 0):]
            if block_result.status == "committed"
        )
        recovered = post_failover_committed > 0 and report.ok
    audit_time_s = report.audit_wall_time_s
    row = {
        "scenario": scenario.name,
        "faults": "+".join(scenario.fault_kinds),
        "targets": "+".join(scenario.targets),
        "expected": (
            scenario.expected_violation.value
            if scenario.expected_violation
            else ("liveness" if scenario.liveness else "protocol")
        ),
        "detected": bool(detected_by),
        "detected by": detected_by or "-",
        "culprit ok": culprit_ok,
        "culprits": ",".join(culprits) or "-",
        "fault@block": fault_height if fault_height is not None else "-",
        "blocks-to-detect": blocks if blocks is not None else "-",
        "view change": (
            f"{failover.successor}@v{failover.new_view}" if failover is not None else "-"
        ),
        "recovered": recovered,
        "audit (ms)": round(audit_time_s * 1000.0, 3),
        # Audit wall-time relative to the honest baseline (1.0 = no overhead).
        "audit overhead (x)": (
            round(audit_time_s / honest_audit_s, 2) if honest_audit_s > 0.0 else 0.0
        ),
        "committed": workload_result.committed,
    }
    return report, row


# -- system / workload plumbing ------------------------------------------------


def _build(config: harness.ExperimentConfig):
    system, _ = harness.build(config, ConstantLatency(0.0002))
    return system


def _reserved_items(system) -> Dict[str, str]:
    """server_id -> its reserved probe item (first item of the shard)."""
    return {
        server_id: system.shard_map.items_of(server_id)[0]
        for server_id in system.server_ids
    }


def _run_background(system, config: harness.ExperimentConfig):
    """The config's workload over every item but the reserved ones."""
    reserved = set(_reserved_items(system).values())
    workload = YcsbWorkload(
        item_ids=[item for item in system.shard_map.all_items() if item not in reserved],
        ops_per_txn=config.ops_per_txn,
        conflict_free_window=config.conflict_free_window or config.txns_per_block,
        seed=config.seed,
    )
    return system.run_workload(
        workload.generate(config.num_requests), num_clients=config.num_clients
    )


def _honest_audit_time(config: harness.ExperimentConfig) -> float:
    """Audit wall-time of an honest run of the same deployment and workload."""
    system = _build(replace(config, label="honest"))
    _run_background(system, config)
    report = system.audit(datastore_mode="all")
    if not report.ok:  # pragma: no cover - would mean a broken harness
        raise AssertionError(f"honest baseline not clean: {report.summary()}")
    return report.audit_wall_time_s


def _commit_now(system, operations, client_index: int) -> None:
    """Run one probe transaction and force its block out immediately."""
    outcome = system.run_transaction(operations, client_index=client_index)
    if outcome.pending:
        system.flush()


def _resolve(plan: FaultPlan, reserved: Dict[str, str]) -> FaultPlan:
    """Substitute ``$reserved`` placeholders with the target's probe item."""
    params = dict(plan.params)
    if params.get("item") == RESERVED_ITEM:
        params["item"] = reserved[plan.target]
    return FaultPlan(fault=plan.fault, target=plan.target, trigger=plan.trigger, params=params)


# -- probes -----------------------------------------------------------------------


def _probe_server(system, scenario: CampaignScenario) -> str:
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


def _run_probe(system, scenario: CampaignScenario) -> None:
    if scenario.probe == "none":
        return
    reserved = _reserved_items(system)
    item = reserved[_probe_server(system, scenario)]
    if scenario.probe == "stale-txn":
        _probe_stale_txn(system, item, reserved)
        return
    # Default "rw" probe: commit a known write, then read-modify-write it
    # from another client.  This surfaces read corruption (the second
    # read), dropped/corrupted state (both blocks), commitment-layer
    # crypto faults, and coordinator block assembly faults.
    _commit_now(system, [ReadOp(item), WriteOp(item, 111_111)], client_index=0)
    _commit_now(system, [ReadOp(item), WriteOp(item, 222_222)], client_index=1)


def _probe_stale_txn(system, item: str, reserved: Dict[str, str]) -> None:
    """The Figure 10 dance: a stale read commits because validation is skipped.

    A helper item on another (honest) shard is written in the interfering
    transaction and read by the stale client, so the stale client's
    Lamport clock reaches the committed frontier and its termination
    request is not rejected as stale before validation would run.
    """
    helper_server = next(sid for sid in system.server_ids if reserved[sid] != item)
    helper = reserved[helper_server]
    _commit_now(system, [ReadOp(item), WriteOp(item, 10)], client_index=0)
    client = system.client(1)
    session = client.begin()
    client.read(session, item)
    _commit_now(
        system,
        [ReadOp(item), WriteOp(item, 20), ReadOp(helper), WriteOp(helper, 21)],
        client_index=0,
    )
    client.read(session, helper)
    client.write(session, item, 30)
    outcome = client.commit(session)
    if outcome.pending:
        system.flush()


def _recover_crashed(system, scenario: CampaignScenario) -> Dict:
    """Recover every crashed server, consulting tampering peers *first*.

    Putting declared catch-up tamperers at the front of the peer order
    guarantees their doctored state response is actually exercised
    (and must be rejected) before an honest peer completes the recovery.
    """
    tamperers = [plan.target for plan in scenario.plans if plan.fault == "tamper-catchup"]
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


def _tamper_anchors(system) -> None:
    """Doctor the sharded sequencer's last epoch anchor (shard heads).

    The signed blocks themselves stay untouched -- only the service's
    anchor chain lies, which is exactly the misbehaviour the auditor's
    per-shard replay must pin on ``ordserv``.
    """
    service = system.ordering
    if not service.epoch_anchors:
        system.flush()
    anchors = service._anchors
    last = anchors[-1]
    anchors[-1] = replace(last, shard_heads=tuple(b"\x00" * 32 for _ in last.shard_heads))


# -- detection ----------------------------------------------------------------------


def _detect_audit(report: AuditReport, scenario: CampaignScenario) -> Detection:
    culprits = report.culprit_servers()
    matching = report.violations_of(scenario.expected_violation)
    if not matching:
        return "", culprits, False, None
    culprit_ok = all(
        any(v.involves(culprit) for v in matching) for culprit in scenario.expected_culprits
    )
    heights = [v.block_height for v in matching if v.block_height is not None]
    blocks = report.detection_latency_blocks(min(heights)) if heights else None
    return "audit", culprits, culprit_ok, blocks


def _detect_protocol(system, scenario: CampaignScenario) -> Detection:
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
    if not culprits:
        return "", (), False, None
    culprit_ok = all(culprit in culprits for culprit in scenario.expected_culprits)
    return "protocol", tuple(culprits), culprit_ok, 0


def _detect_liveness(system, scenario: CampaignScenario, recoveries: Dict) -> Detection:
    """Crash/recovery detection: round failures and rejected catch-up.

    A crashed cohort surfaces as an *unreachable* refusal in a failed
    TFCommit round (the liveness signal); a tampering catch-up peer
    surfaces as a rejected state response during recovery.  Neither
    may appear in the audit report as a safety violation pinned on the
    target.
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
    if not culprits:
        return "", (), False, None
    # Liveness attribution covers the *crash* targets (seen as
    # unreachable by the failed rounds).  A catch-up tamperer only
    # becomes observable if its trigger fired during a recovery with
    # a non-empty gap, so it shows in ``culprits`` where the scenario
    # makes it deterministic, not here.
    crash_targets = [
        plan.target for plan in scenario.plans if plan.fault in ("crash", "coordinator-crash")
    ]
    culprit_ok = all(target in culprits for target in crash_targets)
    return "liveness", tuple(culprits), culprit_ok, 0
