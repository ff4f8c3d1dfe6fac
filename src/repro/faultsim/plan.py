"""Campaign scenarios and the fault x trigger matrix.

A :class:`CampaignScenario` composes one or more
:class:`~repro.server.faults.FaultPlan` rows (multi-server collusion needs
two) with the probe that surfaces the fault and the
*expectation*: the :class:`~repro.audit.violations.ViolationType` the auditor
must report (or ``None`` for faults the TFCommit round itself must catch)
and the culprit attribution the detection must pin.

:func:`build_fault_matrix` enumerates the full fault x trigger grid -- the
sweepable artifact behind ``python -m repro.bench faultmatrix`` and the
detection-matrix test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.audit.violations import ViolationType
from repro.common.errors import ConfigurationError
from repro.server.faults import FaultPlan

#: Placeholder resolved by the fault-matrix script to the target server's
#: reserved probe item (the first item of its shard, excluded from the
#: background workload so probes stay deterministic).
RESERVED_ITEM = "$reserved"


@dataclass(frozen=True, slots=True)
class CampaignScenario:
    """One row of the fault matrix: plans + probe + detection expectation."""

    name: str
    plans: Tuple[FaultPlan, ...]
    #: Probe driven after the background workload: "rw" (read-modify-write on
    #: the reserved item), "stale-txn" (the Figure 10 stale-read dance), or
    #: "none" (log faults manifest from the workload history alone).
    probe: str = "rw"
    #: ViolationType the audit must report; None when detection happens
    #: inside the TFCommit round (refusals / faulty-signer identification).
    expected_violation: Optional[ViolationType] = None
    expected_culprits: Tuple[str, ...] = ()
    #: True for crash/recovery scenarios: the fault-matrix script recovers every
    #: crashed server before probing and auditing, and detection is
    #: classified as a liveness event (round failure / rejected catch-up),
    #: never as a safety violation.
    liveness: bool = False
    #: True when the script must depose the (crashed or Byzantine)
    #: coordinator via ``system.fail_over()`` after recovery, then verify
    #: that post-view-change commits succeed under the elected successor.
    failover: bool = False
    #: Which deployment the scenario runs against: ``"classic"`` (the
    #: default single-coordinator FidesSystem) or ``"scaled"`` (a
    #: ScaledFidesSystem; the sweep row's two ordering shards make it seal
    #: epoch anchors, so only there do anchor faults exist).
    deployment: str = "classic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "plans", tuple(self.plans))
        object.__setattr__(self, "expected_culprits", tuple(self.expected_culprits))
        if not self.plans:
            raise ConfigurationError("a scenario needs at least one fault plan")

    @property
    def fault_kinds(self) -> Tuple[str, ...]:
        return tuple(plan.fault for plan in self.plans)

    @property
    def targets(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(plan.target for plan in self.plans))


def _base_scenarios(server_ids: Sequence[str]) -> List[CampaignScenario]:
    """The per-fault-kind scenarios with always-firing triggers.

    ``server_ids[0]`` is the designated coordinator (as built by
    :class:`~repro.core.fides.FidesSystem`); the standard malicious cohort is
    ``server_ids[1]`` and the coordinator's victim is also ``server_ids[1]``.
    """
    if len(server_ids) < 3:
        raise ConfigurationError("the fault matrix needs at least 3 servers")
    coordinator = server_ids[0]
    cohort = server_ids[1]
    victim = server_ids[1]

    def plan(fault: str, target: str, **params) -> FaultPlan:
        return FaultPlan(fault=fault, target=target, params=params)

    return [
        CampaignScenario(
            name="read-corruption",
            plans=(plan("read-corruption", cohort, item=RESERVED_ITEM),),
            probe="rw",
            expected_violation=ViolationType.INCORRECT_READ,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="drop-write",
            plans=(plan("drop-write", cohort, item=RESERVED_ITEM),),
            probe="rw",
            expected_violation=ViolationType.DATASTORE_CORRUPTION,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="skip-validation",
            plans=(plan("skip-validation", cohort),),
            probe="stale-txn",
            expected_violation=ViolationType.ISOLATION_VIOLATION,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="corrupt-root",
            plans=(plan("corrupt-root", cohort),),
            probe="rw",
            expected_violation=ViolationType.DATASTORE_CORRUPTION,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="post-commit-corruption",
            plans=(plan("post-commit-corruption", cohort, item=RESERVED_ITEM, value=-424242),),
            probe="rw",
            expected_violation=ViolationType.DATASTORE_CORRUPTION,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="corrupt-commitment",
            plans=(plan("corrupt-commitment", cohort),),
            probe="rw",
            expected_violation=None,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="corrupt-response",
            plans=(plan("corrupt-response", cohort),),
            probe="rw",
            expected_violation=None,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="equivocate",
            plans=(plan("equivocate", coordinator),),
            probe="rw",
            expected_violation=None,
            expected_culprits=(coordinator,),
        ),
        CampaignScenario(
            name="fake-root",
            plans=(plan("fake-root", coordinator, victim=victim),),
            probe="rw",
            expected_violation=None,
            expected_culprits=(coordinator,),
        ),
        CampaignScenario(
            # The coordinator drops the victim's root from the block and the
            # victim colludes by co-signing anyway: the only way a malformed
            # commit block enters the replicated log (Section 4.3.2).  The
            # auditor blames the server whose root is missing.
            name="drop-root-collusion",
            plans=(
                plan("drop-root", coordinator, victim=victim),
                plan("collude", victim),
            ),
            probe="rw",
            expected_violation=ViolationType.MALFORMED_BLOCK,
            expected_culprits=(victim,),
        ),
        CampaignScenario(
            name="log-tamper",
            plans=(plan("log-tamper", cohort, height=0),),
            probe="rw",
            expected_violation=ViolationType.LOG_TAMPERED,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="log-truncate",
            plans=(plan("log-truncate", cohort, keep=1),),
            probe="rw",
            expected_violation=ViolationType.LOG_INCOMPLETE,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="fork-decision",
            plans=(plan("fork-decision", cohort),),
            probe="rw",
            expected_violation=ViolationType.ATOMICITY_VIOLATION,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            name="forge-cosign",
            plans=(plan("forge-cosign", cohort),),
            probe="rw",
            expected_violation=ViolationType.INVALID_COSIGN,
            expected_culprits=(cohort,),
        ),
        CampaignScenario(
            # The sharded ordering service publishes a doctored epoch anchor
            # (its sealed per-shard chain heads do not match the blocks it
            # delivered).  The auditor replays the reference log's per-shard
            # chains and pins the mismatch on the ordering service itself --
            # the one participant whose misbehaviour no server co-sign covers.
            name="anchor-tamper",
            plans=(plan("anchor-tamper", "ordserv"),),
            probe="none",
            expected_violation=ViolationType.ANCHOR_MISMATCH,
            expected_culprits=("ordserv",),
            deployment="scaled",
        ),
        CampaignScenario(
            # The cohort crashes mid-round (vote phase, one-shot): the round
            # fails with the cohort unreachable, the script recovers it via
            # peer catch-up, and the probe + audit then succeed cleanly.
            name="crash",
            plans=(plan("crash", cohort),),
            probe="rw",
            expected_violation=None,
            expected_culprits=(cohort,),
            liveness=True,
        ),
        CampaignScenario(
            # One cohort crashes; another serves it doctored catch-up blocks
            # during recovery.  The recovering server must reject the
            # tampered state response (its verification catches the forgery)
            # and complete recovery from an honest peer.  The crash fires in
            # the *decision* phase so a block commits cluster-wide that the
            # crashed server missed -- in the classic full-cluster deployment
            # that is the only way a catch-up gap can exist (once a cohort is
            # down, no further round can commit), and a gap is what gives the
            # tamperer something to doctor.  The phase trigger is scenario
            # semantics, so the matrix's trigger variants leave it alone.
            name="tampered-catchup",
            plans=(
                FaultPlan(
                    fault="crash",
                    target=server_ids[2],
                    trigger={"kind": "phase", "phases": ["decision"]},
                ),
                plan("tamper-catchup", cohort),
            ),
            probe="rw",
            expected_violation=None,
            expected_culprits=(server_ids[2], cohort),
            liveness=True,
        ),
        CampaignScenario(
            # The *coordinator* crashes mid-round.  Unlike a cohort crash,
            # no ROUND_FAILED can be sent (the sender is the dead server), so
            # surviving cohorts keep their armed round state and the rounds
            # stall.  The script recovers the server, deposes it via the view
            # change, and the successor re-proposes the stalled rounds from
            # the certified frontier; the probe then commits under the new
            # coordinator and the audit must stay clean.
            name="coordinator-crash",
            plans=(plan("coordinator-crash", coordinator),),
            probe="rw",
            expected_violation=None,
            expected_culprits=(coordinator,),
            liveness=True,
            failover=True,
        ),
        CampaignScenario(
            # A Byzantine coordinator that equivocates *and is then deposed*:
            # the cohorts' challenge refusals detect it (protocol), the view
            # change elects an honest successor, and the probe verifies the
            # cluster commits again -- turning the paper's "malicious
            # coordinators cost liveness, never safety" into "...and the
            # liveness loss is bounded by one view change".
            name="byzantine-coordinator",
            plans=(plan("byzantine-coordinator", coordinator),),
            probe="rw",
            expected_violation=None,
            expected_culprits=(coordinator,),
            failover=True,
        ),
    ]


#: Trigger variants swept by the full matrix.  ``at-height`` activates the
#: fault only from block 2 on (the first blocks commit honestly, giving the
#: blocks-until-detection metric something to measure); ``probability`` draws
#: per consultation with a fixed seed and latches once fired (it may never
#: draw, so the sweep reports those rows rather than asserting on them).
DEFAULT_TRIGGER_VARIANTS: Tuple[Tuple[str, Mapping], ...] = (
    ("always", {}),
    ("at-height-2", {"kind": "at-height", "height": 2}),
    ("p50", {"kind": "probability", "probability": 0.5, "seed": 77}),
)


def build_fault_matrix(
    server_ids: Sequence[str],
    trigger_variants: Optional[Sequence[Tuple[str, Mapping]]] = None,
) -> List[CampaignScenario]:
    """Enumerate the full fault x trigger grid as concrete scenarios."""
    variants = DEFAULT_TRIGGER_VARIANTS if trigger_variants is None else trigger_variants
    matrix: List[CampaignScenario] = []
    for suffix, trigger_spec in variants:
        for scenario in _base_scenarios(server_ids):
            plans = tuple(
                FaultPlan(
                    fault=plan.fault,
                    target=plan.target,
                    # A plan whose base scenario already pins a trigger keeps
                    # it (the trigger is part of the scenario's semantics,
                    # e.g. the decision-phase crash of tampered-catchup);
                    # only open triggers are swept across the variants.
                    trigger=plan.trigger if plan.trigger else trigger_spec,
                    params=plan.params,
                )
                for plan in scenario.plans
            )
            matrix.append(
                CampaignScenario(
                    name=f"{scenario.name}@{suffix}",
                    plans=plans,
                    probe=scenario.probe,
                    expected_violation=scenario.expected_violation,
                    expected_culprits=scenario.expected_culprits,
                    liveness=scenario.liveness,
                    failover=scenario.failover,
                    deployment=scenario.deployment,
                )
            )
    return matrix
