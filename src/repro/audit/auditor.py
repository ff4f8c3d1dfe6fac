"""The external auditor (Sections 3.3, 4.2.2, 4.3.2, 4.4, 4.5).

The auditor is a powerful external entity that, during each audit:

1. gathers the tamper-proof logs from all servers;
2. identifies the correct and complete log (at least one server is correct,
   so verifying hash pointers and collective signatures and picking the
   longest valid copy always succeeds -- Lemmas 6 and 7);
3. replays that log to detect incorrect reads (Lemma 1), isolation
   violations (Lemma 3), malformed or forked blocks (Lemma 5), and, by
   requesting Verification Objects from the servers, datastore corruption
   (Lemma 2).

Every detected anomaly is reported as a
:class:`~repro.audit.violations.Violation` carrying the block height (the
precise point in the transaction history) and the culprit server(s).

Note on the datastore check (Lemma 2): the auditor asks the audited server
for the item's value *as stored at the audited version* together with the
Verification Object, recomputes the Merkle root from that value and the VO,
and compares it against the co-signed root in the block; it additionally
cross-checks the stored value against the value recorded in the block's write
set.  A server whose datastore diverges from the co-signed state cannot pass
both checks (collision-free hash functions), which is the guarantee Lemma 2
states.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.audit.report import AuditReport
from repro.audit.serialization_graph import SerializationGraph
from repro.audit.violations import Violation, ViolationType
from repro.common.encoding import canonical_encode
from repro.common.errors import AuditError
from repro.common.timestamps import Timestamp
from repro.crypto.keys import keypair_for
from repro.crypto.merkle import verify_inclusion
from repro.ledger.anchor import EpochAnchor, verify_anchor_chain
from repro.ledger.block import Block, BlockDecision
from repro.ledger.log import TransactionLog, verify_copies
from repro.net.forms import AuditLogRequest, AuditVoRequest, Refusal, read_reply
from repro.net.message import MessageType
from repro.net.network import Network
from repro.obs.timing import Stopwatch
from repro.storage.shard import INITIAL_VALUE, ShardMap
from repro.txn.occ import classify_conflicts
from repro.txn.transaction import Transaction

#: Identity under which the auditor registers on the network.
AUDITOR_ID = "auditor"

#: Types whose ``==`` between two values of the type agrees with their
#: canonical encodings (not ``float``: ``0.0 == -0.0``, ``nan != nan``).
_PLAIN_SCALARS = frozenset({int, str, bytes, bool, type(None)})


def _same_value(left: object, right: object) -> bool:
    """Whether two item values encode alike (``False == 0 == 0.0`` do not)."""
    if type(left) is type(right) and type(left) in _PLAIN_SCALARS:
        return left == right
    return canonical_encode(left) == canonical_encode(right)


class Auditor:
    """Offline auditor for a Fides deployment."""

    def __init__(
        self,
        network: Network,
        server_ids: Sequence[str],
        shard_map: ShardMap,
    ) -> None:
        self.network = network
        self.server_ids = list(server_ids)
        self.shard_map = shard_map
        #: Checkpoints the last :meth:`collect_logs` gathered, by server.
        self.collected_checkpoints: Dict[str, object] = {}
        if AUDITOR_ID not in network.participants:
            network.register_observer(AUDITOR_ID, keypair_for(AUDITOR_ID))

    # -- log collection and selection (Lemmas 6 & 7) ---------------------------------

    def collect_logs(self) -> Dict[str, TransactionLog]:
        """Gather every server's log copy (and checkpoint, if any) over the network.

        Checkpoints ride along in ``self.collected_checkpoints``:
        a server whose log was truncated under Section 3.3's checkpointing
        optimisation presents the co-signed checkpoint in place of the
        dropped prefix, and :meth:`check_logs` verifies the pair together.
        """
        logs: Dict[str, TransactionLog] = {}
        self.collected_checkpoints = {}
        for server_id in self.server_ids:
            response = self.network.send(
                AUDITOR_ID, server_id, MessageType.AUDIT_LOG_REQUEST, AuditLogRequest()
            )
            logs[server_id] = response["log"]
            checkpoint = response.get("checkpoint")
            if checkpoint is not None:
                self.collected_checkpoints[server_id] = checkpoint
        return logs

    def check_logs(
        self,
        logs: Mapping[str, TransactionLog],
        report: AuditReport,
    ) -> Optional[TransactionLog]:
        """Verify every copy, pick the reference log, and record log-level violations.

        Copies are compared by *effective* height -- a checkpoint-truncated
        copy vouches for its dropped prefix with the checkpoint's collective
        signature, so it competes on equal footing with full copies when the
        longest correct log is selected (Lemma 7 across the truncation
        boundary).  Each copy is verified on its own, except that a co-sign
        every copy holds is checked once per call (:func:`verify_copies`).
        A copy's checkpoint is the one :meth:`collect_logs` gathered for it.
        """
        results = verify_copies(
            logs,
            self.network.public_key_directory(),
            self.server_ids,
            self.collected_checkpoints,
        )
        report.log_results = dict(results)

        valid = {
            server_id: logs[server_id] for server_id, result in results.items() if result.valid
        }
        if not valid:
            raise AuditError(
                "no server produced a verifiable log copy; the failure model assumes at "
                "least one correct server"
            )
        reference_server = max(valid, key=lambda sid: (valid[sid].height, sid))
        reference = valid[reference_server]
        report.reference_log_server = reference_server
        report.reference_log_length = reference.height

        for server_id, result in results.items():
            if not result.valid:
                block_height = result.first_invalid_height
                kind = ViolationType.LOG_TAMPERED
                description = f"log copy failed verification: {result.reason}"
                mine = (
                    logs[server_id].block_at_height(block_height)
                    if block_height is not None
                    else None
                )
                ref_block = (
                    reference.block_at_height(block_height)
                    if block_height is not None
                    else None
                )
                comparable = (
                    mine is not None and ref_block is not None and "signature" in result.reason
                )
                # A block at the same height with a *different decision* than
                # the reference points at a forked commit/abort outcome
                # (coordinator equivocation, Lemma 5) rather than plain
                # after-the-fact tampering (Lemma 6).  A block whose *content*
                # matches the reference but whose signature still fails means
                # the signature itself was forged or replaced (Lemma 4).
                if comparable and mine.body_digest() == ref_block.body_digest():
                    kind = ViolationType.INVALID_COSIGN
                    description = (
                        "block content matches the reference log but its collective "
                        "signature does not verify (forged or replaced co-sign)"
                    )
                elif comparable and mine.decision is not ref_block.decision:
                    kind = ViolationType.ATOMICITY_VIOLATION
                    description = (
                        "log copy holds a block with a conflicting decision that is not "
                        "covered by a valid collective signature (possible coordinator "
                        "equivocation)"
                    )
                report.add(
                    Violation(
                        kind=kind,
                        description=description,
                        culprits=(server_id,),
                        block_height=block_height,
                    )
                )
            elif logs[server_id].height < reference.height:
                report.add(
                    Violation(
                        kind=ViolationType.LOG_INCOMPLETE,
                        description=(
                            f"log copy ends at height {logs[server_id].height}, reference at "
                            f"{reference.height} (missing tail)"
                        ),
                        culprits=(server_id,),
                        block_height=logs[server_id].height,
                    )
                )
            elif not logs[server_id].is_prefix_of(reference):
                report.add(
                    Violation(
                        kind=ViolationType.ATOMICITY_VIOLATION,
                        description="log copy diverges from the reference log",
                        culprits=(server_id,),
                    )
                )
        return reference

    # -- replay checks (Lemmas 1, 3, 5) --------------------------------------------------

    def check_transactions(self, reference: TransactionLog, report: AuditReport) -> None:
        """Replay the reference log and detect read/isolation/structure anomalies.

        A log that starts at genesis says what an item holds before its first
        logged write: its initial value, at the genesis stamp.  A
        checkpoint-truncated log does not (its base state is the checkpoint's
        roots, not values), so a read of an item it has not written yet goes
        unchecked.
        """
        latest: Dict[str, Tuple[object, Timestamp]] = {}
        unwritten = (INITIAL_VALUE, Timestamp.zero()) if reference.base_height == 0 else None
        committed: List[Transaction] = []

        for block in reference:
            report.blocks_audited += 1
            self._check_block_structure(block, report)
            if not block.is_commit:
                continue
            for txn in sorted(block.transactions, key=lambda t: t.commit_ts):
                report.transactions_audited += 1
                committed.append(txn)
                self._check_reads(txn, block, latest, unwritten, report)
                self._check_timestamp_order(txn, block, report)
                for entry in txn.write_set:
                    latest[entry.item_id] = (entry.new_value, txn.commit_ts)

        graph = SerializationGraph.from_transactions(committed)
        cycle = graph.find_cycle()
        if cycle:
            report.add(
                Violation(
                    kind=ViolationType.ISOLATION_VIOLATION,
                    description=f"serialization graph contains a cycle: {' -> '.join(cycle)}",
                    culprits=(),
                )
            )

    def _check_block_structure(self, block: Block, report: AuditReport) -> None:
        """A commit block must carry a root from every involved server (Section 4.3.2)."""
        involved = set()
        for txn in block.transactions:
            involved.update(self.shard_map.servers_for(txn.items_accessed()))
        recorded = set(block.roots)
        if block.group is not None and not involved <= set(block.group):
            # A dynamic-group block (Section 4.6) must have been terminated by
            # a group covering every server its transactions touch; a smaller
            # group means uninvolved-in-signing servers were skipped for
            # validation and co-signing.
            outside = sorted(involved - set(block.group))
            report.add(
                Violation(
                    kind=ViolationType.MALFORMED_BLOCK,
                    description=(
                        f"group block's recorded group omits involved servers {outside}"
                    ),
                    # The omitted servers are the victims (their validation
                    # and co-sign were bypassed); the members who formed and
                    # signed the undersized group are the culprits.
                    culprits=tuple(block.group),
                    block_height=block.height,
                )
            )
        if block.decision is BlockDecision.COMMIT and not involved <= recorded:
            missing = sorted(involved - recorded)
            report.add(
                Violation(
                    kind=ViolationType.MALFORMED_BLOCK,
                    description=f"commit block is missing MHT roots from {missing}",
                    culprits=tuple(missing),
                    block_height=block.height,
                )
            )
        if block.decision is BlockDecision.ABORT and involved and involved <= recorded:
            report.add(
                Violation(
                    kind=ViolationType.MALFORMED_BLOCK,
                    description="abort block carries roots from every involved server",
                    culprits=(),
                    block_height=block.height,
                )
            )

    def _check_reads(
        self,
        txn: Transaction,
        block: Block,
        latest: Dict[str, Tuple[object, Timestamp]],
        unwritten: Optional[Tuple[object, Timestamp]],
        report: AuditReport,
    ) -> None:
        """Lemma 1: every read must reflect the latest logged write of that item
        (``unwritten`` before the first one; ``None``: not known)."""
        for entry in txn.read_set:
            expected = latest.get(entry.item_id, unwritten)
            if expected is None:
                continue
            value, wts = expected
            source = "last committed write" if entry.item_id in latest else "initial value"
            if not _same_value(entry.value, value):
                report.add(
                    Violation(
                        kind=ViolationType.INCORRECT_READ,
                        description=(
                            f"transaction {txn.txn_id} read {entry.value!r} for "
                            f"{entry.item_id} but the {source} was {value!r}"
                        ),
                        culprits=(self.shard_map.server_for(entry.item_id),),
                        block_height=block.height,
                        item_id=entry.item_id,
                        txn_id=txn.txn_id,
                    )
                )
            if entry.wts != wts:
                report.add(
                    Violation(
                        kind=ViolationType.ISOLATION_VIOLATION,
                        description=(
                            f"transaction {txn.txn_id} read {entry.item_id} with write "
                            f"timestamp {entry.wts} but the {source} was at {wts} "
                            f"(stale or fabricated timestamp)"
                        ),
                        culprits=(self.shard_map.server_for(entry.item_id),),
                        block_height=block.height,
                        item_id=entry.item_id,
                        txn_id=txn.txn_id,
                    )
                )

    def _check_timestamp_order(
        self, txn: Transaction, block: Block, report: AuditReport
    ) -> None:
        """Lemma 3: conflicting accesses must respect the commit-timestamp order."""
        for conflict in classify_conflicts(txn):
            report.add(
                Violation(
                    kind=ViolationType.ISOLATION_VIOLATION,
                    description=f"transaction {txn.txn_id}: {conflict.describe()}",
                    culprits=(self.shard_map.server_for(conflict.item_id),),
                    block_height=block.height,
                    item_id=conflict.item_id,
                    txn_id=txn.txn_id,
                )
            )

    # -- epoch-anchor verification (sharded ordering, DESIGN.md section 5) -----------------

    def check_epoch_anchors(
        self,
        reference: TransactionLog,
        anchors: Sequence[EpochAnchor],
        ordering_shard_map,
        report: AuditReport,
    ) -> None:
        """Hold the reference log to the anchor chain (the ledger's replay rule).

        A sharded ordering service never sees the whole log through one
        sequencer; its epoch anchors are what vouch for the merge, so any
        way they fail to vouch for the reference log is the ordering
        service's fault.
        """
        reason, height = verify_anchor_chain(
            anchors,
            reference,
            ordering_shard_map.num_shards,
            lambda block: ordering_shard_map.shards_of(block.group or ()),
        )
        if reason:
            report.add(
                Violation(
                    kind=ViolationType.ANCHOR_MISMATCH,
                    description=reason,
                    culprits=("ordserv",),
                    block_height=height,
                )
            )

    # -- datastore authentication (Lemma 2) -------------------------------------------------

    def check_datastores(
        self,
        reference: TransactionLog,
        report: AuditReport,
        mode: str = "latest",
    ) -> None:
        """Authenticate each server's datastore against the co-signed MHT roots.

        ``mode`` is ``"latest"`` (audit each server at the latest block where
        it recorded a root -- the single-versioned policy of Section 4.2.2) or
        ``"all"`` (exhaustively audit every commit block -- the multi-versioned
        policy, which also pinpoints the precise version at which corruption
        started).
        """
        if mode not in ("latest", "all"):
            raise AuditError(f"unknown datastore audit mode {mode!r}")
        per_server_blocks: Dict[str, List[Block]] = {}
        for block in reference:
            if not block.is_commit:
                continue
            for server_id in block.roots:
                per_server_blocks.setdefault(server_id, []).append(block)
        for server_id, blocks in per_server_blocks.items():
            targets = blocks if mode == "all" else [blocks[-1]]
            for block in targets:
                if block.group is not None and block is not blocks[-1]:
                    # Dynamic-group blocks (Section 4.6) carry speculative
                    # roots that are a function of *log order*, not of a
                    # commit-timestamp cutoff: per-group frontiers let commit
                    # timestamps interleave across groups, so a shard's
                    # intermediate state cannot be reconstructed by a
                    # timestamp-indexed version lookup.  Intermediate group
                    # blocks are covered by the hash chain + group co-sign;
                    # the datastore itself is authenticated at the shard's
                    # latest root, where log order and store state coincide.
                    continue
                live = block.group is not None
                self.audit_datastore_block(server_id, block, report, live=live)

    def audit_datastore_block(
        self, server_id: str, block: Block, report: AuditReport, live: bool = False
    ) -> bool:
        """Audit one server's shard at one block; returns True if it authenticated.

        ``live`` requests the server's *current* tree instead of the version
        at the block's commit timestamp -- used for dynamic-group blocks,
        whose state is indexed by log order rather than timestamps.
        """
        expected_root = block.roots.get(server_id)
        if expected_root is None:
            return True
        audited_ok = True
        audit_ts = block.max_commit_ts
        at = None if live else audit_ts
        for txn in block.transactions:
            for entry in txn.write_set:
                if self.shard_map.server_for(entry.item_id) != server_id:
                    continue
                data = self.network.send(
                    AUDITOR_ID,
                    server_id,
                    MessageType.AUDIT_VO_REQUEST,
                    AuditVoRequest(entry.item_id, at),
                )
                inclusion = read_reply(MessageType.AUDIT_VO_REQUEST, server_id, data)
                if type(inclusion) is Refusal:
                    audited_ok = False
                    report.add(
                        Violation(
                            kind=ViolationType.DATASTORE_CORRUPTION,
                            description=(
                                f"server refused to produce a verification object for "
                                f"{entry.item_id}: {inclusion.reason}"
                            ),
                            culprits=(server_id,),
                            block_height=block.height,
                            item_id=entry.item_id,
                        )
                    )
                    continue
                stored_value = inclusion.value
                proof_ok = verify_inclusion(
                    entry.item_id, stored_value, inclusion.vo, expected_root
                )
                if not proof_ok or not _same_value(stored_value, entry.new_value):
                    audited_ok = False
                    report.add(
                        Violation(
                            kind=ViolationType.DATASTORE_CORRUPTION,
                            description=(
                                f"datastore state for {entry.item_id} at version "
                                f"{audit_ts} does not authenticate against the co-signed "
                                f"MHT root (stored {stored_value!r}, logged "
                                f"{entry.new_value!r})"
                            ),
                            culprits=(server_id,),
                            block_height=block.height,
                            item_id=entry.item_id,
                            txn_id=txn.txn_id,
                        )
                    )
        return audited_ok

    # -- the full audit -----------------------------------------------------------------------

    def run_audit(
        self,
        logs: Optional[Mapping[str, TransactionLog]] = None,
        datastore_mode: str = "latest",
        epoch_anchors: Optional[Sequence] = None,
        ordering_shard_map=None,
    ) -> AuditReport:
        """Run a complete offline audit and return the report.

        Unless ``logs`` are given, logs are fetched over the network, and
        verification objects always are, so the audit exercises the same
        signed message paths a real external auditor would.
        ``epoch_anchors`` + ``ordering_shard_map``
        (sharded ordering deployments) additionally run
        :meth:`check_epoch_anchors` against the reference log.
        """
        watch = Stopwatch()
        report = AuditReport()
        if logs is not None:
            collected = dict(logs)
            # Caller-supplied logs come without checkpoints; do not let a
            # previous collection's checkpoints leak into this audit.
            self.collected_checkpoints = {}
        else:
            collected = self.collect_logs()
        reference = self.check_logs(collected, report)
        if reference is None:
            report.audit_wall_time_s = watch.elapsed()
            return report
        self.check_transactions(reference, report)
        if epoch_anchors is not None and ordering_shard_map is not None:
            self.check_epoch_anchors(reference, epoch_anchors, ordering_shard_map, report)
        self.check_datastores(reference, report, mode=datastore_mode)
        report.audit_wall_time_s = watch.elapsed()
        return report
