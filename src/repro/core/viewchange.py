"""Coordinator failover: the per-group view-change protocol.

The paper's threat model lets *any* server misbehave, coordinators included
(Section 4.1: the coordinator "is itself an untrusted database server").
Crash recovery handles cohorts, but a dead or Byzantine coordinator stalls
its group's whole queue: rounds it armed never decide, and its pending
transactions wait forever.  The view change turns that permanent loss into a
bounded one:

1. Cohorts arm a **round timer** when they first see ``GET_VOTE``/``PREPARE``
   (:class:`repro.server.commitment.RoundState.deadline`) and refresh it on
   each later phase message.  A round past its deadline with no decision is
   *stalled*.
2. The next-smallest live group member becomes the **successor**.  It
   broadcasts ``VIEW_CHANGE``; every surviving cohort answers with a
   :class:`~repro.net.forms.FrontierCertificate` -- its commit frontier, an
   untrusted claim -- plus the stalled rounds the deposed coordinator left armed.
3. The successor **verifies** each certificate (the reply's strict decode,
   head-block co-sign, hash and height consistency) and adopts the *maximum
   certified frontier*.  Certificates that fail verification are discarded:
   a lying cohort cannot drag the new view backwards (the frontier is
   monotone) or forwards (a frontier above the successor's own log height is
   discarded, so the adopted one never exceeds it).
4. The successor broadcasts ``NEW_VIEW``.  Cohorts bump their per-group view
   gate -- proposals from the deposed view are refused from here on -- and
   release pre-new-view round state.
5. The successor **re-proposes** each distinct stalled round at ``view + 1``.
   Re-proposals cannot double-commit: a round whose decision *did* land is
   already in every live log (the successor skips it via
   :func:`already_committed`), and even a racing re-proposal aborts at OCC
   validation because the original commit advanced the write timestamps the
   re-proposed transactions read.

This module implements steps 2-4 (the wire protocol and the certificate
trust argument); :meth:`repro.core.fides.FidesSystem.fail_over` owns
election, the coordinator table, and the re-proposal loop, because those
touch routing state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.check.choices import choose_order
from repro.common.errors import ProtocolError, ValidationError
from repro.core.rounds import ROUND_TIMEOUT_S, TimingBreakdown, timed_broadcast
from repro.ledger.block import Block
from repro.ledger.log import TransactionLog, verify_block_cosign
from repro.net.forms import FrontierCertificate, ViewChange
from repro.net.message import MessageType


@dataclass
class ViewChangeOutcome:
    """Everything one completed view change produced."""

    group: Optional[Tuple[str, ...]]
    deposed: str
    successor: str
    new_view: int
    #: Certificates that survived verification, by reporting cohort.
    certificates: Dict[str, FrontierCertificate] = field(default_factory=dict)
    #: Cohorts that answered, but not with a certificate that verifies
    #: (discarded, reported).
    rejected_certificates: List[str] = field(default_factory=list)
    #: The maximum certified frontier height.
    frontier_height: int = 0
    #: Distinct stalled rounds to re-propose: ``(block, client_requests)``.
    stalled_rounds: List[Tuple[Block, list]] = field(default_factory=list)
    #: Simulated-time cost of the solicitation + announcement phases.
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)


def verify_certificate(
    cert: FrontierCertificate,
    public_keys,
    servers: Collection[str],
    expected_server: str,
    trusted: bool = False,
) -> bool:
    """Whether one cohort's (strictly decoded, still untrusted) certificate holds.

    The trust argument mirrors the recovery catch-up: anything crossing the
    wire may be attacker-chosen, so the certificate is believed only to the
    extent its head block backs it -- the head must decode, pass the
    ledger's co-sign rule (:func:`~repro.ledger.log.verify_block_cosign`),
    hash to the claimed ``head_hash`` and sit just below the claimed
    ``height``, and a non-empty frontier must carry a head at all.
    ``trusted`` (the 2PC baseline, whose blocks carry no collective
    signature) stops after the identity check.
    """
    if cert.server_id != expected_server:
        return False
    if trusted:
        return True
    if cert.height <= 0:
        return cert.height == 0 and cert.head is None
    if cert.head is None:
        return False
    try:
        head = Block.from_wire(cert.head)
    except ValidationError:
        return False
    return (
        head.height + 1 == cert.height
        and head.block_hash() == cert.head_hash
        and not verify_block_cosign(head, public_keys, servers)
    )


def elect_successor(members: Sequence[str], excluded: Sequence[str]) -> str:
    """The next-smallest live group member (deterministic, no extra round).

    Every cohort can compute the same answer locally, so election needs no
    leader race: it is the same min-rule that picked the original coordinator,
    restricted to members that are neither deposed nor crashed.
    """
    candidates = sorted(set(members) - set(excluded))
    if not candidates:
        raise ProtocolError(
            f"no live successor candidate among {sorted(members)} "
            f"(excluded: {sorted(set(excluded))})"
        )
    return candidates[0]


def already_committed(log: TransactionLog, block: Block) -> bool:
    """Whether any of ``block``'s transactions already decided in ``log``.

    The double-commit guard of re-proposal: if the deposed coordinator's
    decision *did* land before it died, every live server (the successor
    included) applied it, so the stalled-round report is a ghost and the
    round must not run again.
    """
    proposed = {txn.txn_id for txn in block.transactions}
    for committed in log:
        for txn in committed.transactions:
            if txn.txn_id in proposed:
                return True
    return False


def run_view_change(
    network,
    latency,
    successor_id: str,
    members: Sequence[str],
    deposed: str,
    group: Optional[Tuple[str, ...]],
    current_view: int,
    successor_log: TransactionLog,
    sim,
    trusted: bool = False,
) -> ViewChangeOutcome:
    """Drive one view change from the successor's side (steps 2-4 above).

    ``members`` is the cluster: the successor solicits every member but the
    deposed one, and a classic head block must be co-signed by every member.
    ``group`` is ``None`` for the classic full-cluster deployment (and for
    the scaled one, where it means "every group the deposed coordinator
    led").  The caller passes the view being left behind; the protocol
    installs ``current_view + 1`` everywhere it can reach and returns the
    verified frontier plus the deduplicated stalled rounds for the caller to
    re-propose.

    ``trusted=True`` is the 2PC baseline's mode: its blocks carry no
    collective signature, so certificates are strict-decoded but not
    co-sign-verified -- consistent with 2PC modelling the trusted
    infrastructure the paper compares against.
    """
    new_view = current_view + 1
    outcome = ViewChangeOutcome(
        group=tuple(group) if group is not None else None,
        deposed=deposed,
        successor=successor_id,
        new_view=new_view,
    )
    obs, clock = sim.obs, sim.clock
    started = clock.now
    live = [member for member in members if member != deposed]
    # Time the stalled rounds out for real: the cohorts' deadlines are
    # virtual-clock instants, and a view change begins only after the round
    # timer genuinely elapsed with no decision.
    clock.advance(ROUND_TIMEOUT_S)
    request = ViewChange(outcome.group, deposed, new_view)
    reports, refusals = timed_broadcast(
        network,
        latency,
        successor_id,
        live,
        MessageType.VIEW_CHANGE,
        request,
        outcome.timing,
        "view-change",
        sim=sim,
    )
    public_keys = network.public_key_directory()
    stalled: Dict[tuple, Tuple[Block, list]] = {}
    # A cohort that is down reports nothing; one that answered something
    # else than a report is a liar like one whose certificate does not hold.
    outcome.rejected_certificates = [r.server_id for r in refusals if not r.unreachable]
    for server_id, report in reports.items():
        # A frontier ahead of the successor's own log names blocks the
        # successor never applied, and every decision reaches every live
        # server, so such a claim is a lie even when its head verifies (a
        # group block's co-sign leaves its height out).
        if report.certificate.height > successor_log.height or not verify_certificate(
            report.certificate, public_keys, members, server_id, trusted
        ):
            outcome.rejected_certificates.append(server_id)
            continue
        outcome.certificates[server_id] = report.certificate
        for proposal in report.stalled:
            stalled.setdefault(
                proposal.block.round_key(), (proposal.block, list(proposal.client_requests))
            )
    outcome.frontier_height = max(
        (cert.height for cert in outcome.certificates.values()), default=0
    )
    timed_broadcast(
        network,
        latency,
        successor_id,
        live,
        MessageType.NEW_VIEW,
        request,
        outcome.timing,
        "new-view",
        sim=sim,
    )
    # Re-proposal order is a liveness-only freedom the model checker may
    # explore; committed rounds are skipped by the caller regardless.
    ordered_keys = choose_order(
        "view-change/repropose", sorted(stalled), feature="view-change"
    )
    outcome.stalled_rounds = [
        stalled[key]
        for key in ordered_keys
        if not already_committed(successor_log, stalled[key][0])
    ]
    obs.metrics.counter("viewchange.count")
    obs.metrics.counter(
        "viewchange.rejected_certificates", float(len(outcome.rejected_certificates))
    )
    obs.metrics.counter(
        "viewchange.stalled_reproposed", float(len(outcome.stalled_rounds))
    )
    # The span covers the timeout wait plus both broadcasts; it is top-level
    # (the stalled round it supersedes is a different coordinator's span tree).
    obs.tracer.add_span(
        f"view-change:v{new_view}",
        "viewchange",
        successor_id,
        started,
        clock.now,
        deposed=deposed,
        rejected=len(outcome.rejected_certificates),
    )
    return outcome
