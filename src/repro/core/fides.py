"""Fides: assembling servers, clients, coordinators, and auditor into a system.

:class:`FidesSystem` is the top-level convenience API of the library: it
builds the whole deployment of Figure 4 from a
:class:`~repro.common.config.SystemConfig` -- the sharded servers, the signed
network, the termination coordinators (running either TFCommit or the 2PC
baseline), and client handles -- and exposes the operations examples,
tests, and benchmarks need: executing transactions, injecting faults,
failing a leader over, collecting logs, and running audits.

It is the *one* deployment.  What a deployment chooses -- who leads a round,
with what coordinator, whether one server is the designated coordinator,
whether an ordering service stamps the chain -- is set in a single hook,
:meth:`FidesSystem._wire_termination`, and
:class:`~repro.core.scaled.ScaledFidesSystem` overrides nothing else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.check.mutations import mutation_enabled
from repro.client.client import CommitOutcome, FidesClient
from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError, UnreachableError
from repro.common.timestamps import Timestamp
from repro.common.types import ClientId, ServerId, make_client_id
from repro.core.rounds import STALE_TIMESTAMP_REASON, BlockCommitResult, SimScheduledRounds
from repro.core.tfcommit import TFCommitCoordinator
from repro.core.twopc import TwoPhaseCommitCoordinator
from repro.core.viewchange import ViewChangeOutcome, elect_successor, run_view_change
from repro.crypto.keys import keypair_for
from repro.crypto.signing import make_signing_scheme
from repro.ledger.checkpoint import Checkpoint, build_checkpoint, cosign_checkpoint
from repro.ledger.log import TransactionLog
from repro.net.forms import Termination
from repro.net.latency import LatencyModel, lan_latency
from repro.net.network import Network
from repro.recovery.manager import RecoveryResult
from repro.server.faults import FaultPlan
from repro.server.server import DatabaseServer
from repro.sim.context import ComputeModel, SimContext
from repro.storage.shard import build_uniform_partition
from repro.txn.operations import Operation
from repro.txn.transaction import Transaction
from repro.workload.ycsb import TransactionSpec


#: Supported commit protocols.
PROTOCOL_TFCOMMIT = "tfcommit"
PROTOCOL_2PC = "2pc"


@dataclass
class WorkloadResult:
    """Aggregate outcome of executing a list of transaction specs."""

    outcomes: List[CommitOutcome] = field(default_factory=list)
    block_results: List[BlockCommitResult] = field(default_factory=list)
    #: ``client_id -> committed transaction count`` for multi-client runs.
    committed_by_client: Dict[ClientId, int] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.committed)

    @property
    def aborted(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == "aborted")

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == "failed")


class FidesSystem:
    """A complete in-process Fides deployment."""

    #: How many times a transaction failed for a stale commit timestamp is
    #: re-issued before the failure is surfaced to the caller.
    STALE_RETRY_LIMIT = 3

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        protocol: str = PROTOCOL_TFCOMMIT,
        latency: Optional[LatencyModel] = None,
        state_store_factory=None,
        compute_model: Optional[ComputeModel] = None,
        obs=None,
    ) -> None:
        """``state_store_factory`` maps a server id to the durable
        :class:`~repro.recovery.statestore.StateStore` backing that server's
        crash recovery; the default gives every server an in-memory store
        (pass a :class:`~repro.recovery.statestore.FileStateStore` factory to
        measure real WAL overhead).  ``compute_model`` overrides the measured
        per-phase compute charges on the simulated timeline (pass
        :class:`~repro.sim.context.FixedCompute` for bit-identical repeated
        runs; see DESIGN.md section 7).  ``obs`` replaces the simulation
        context's default :class:`~repro.obs.Observability` bundle -- the
        benchmark harness passes a shared, tracing-enabled bundle so one
        trace covers the whole run."""
        self.config = config or SystemConfig()
        if protocol not in (PROTOCOL_TFCOMMIT, PROTOCOL_2PC):
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self.latency = latency or lan_latency(seed=self.config.seed)
        #: The deployment's virtual timeline: every protocol phase is
        #: scheduled on it, and the benchmark harness reads the run's
        #: makespan off it (DESIGN.md section 7).
        self.sim = SimContext(
            pipeline_depth=self.config.pipeline_depth,
            compute_model=compute_model,
        )
        if obs is not None:
            self.sim.obs = obs
        self.network = Network(
            self.sim,
            signing_scheme=make_signing_scheme(self.config.message_signing),
            latency=self.latency,
        )

        per_server_items, self.shard_map = build_uniform_partition(self.config)
        self.servers: Dict[ServerId, DatabaseServer] = {}
        for server_id in self.config.server_ids:
            server = DatabaseServer(
                server_id=server_id,
                keypair=keypair_for(server_id, seed=self.config.seed),
                items=per_server_items[server_id],
                clock=self.sim.clock,
                obs=self.sim.obs,
                cluster=self.config.server_ids,
                multi_versioned=self.config.multi_versioned,
                state_store=(
                    state_store_factory(server_id) if state_store_factory else None
                ),
            )
            server.attach(self.network)
            self.servers[server_id] = server

        #: Servers deposed by a view change: they keep serving as cohorts but
        #: never lead rounds again (routing and group formation skip them).
        self._deposed: set = set()
        #: The view the latest failover installed: a designated coordinator is
        #: created in it, group coordinators propose every round in it.
        self.view = 0
        #: Completed view changes, newest last.
        self.view_changes: List = []
        #: ``server_id -> coordinator`` for every server that ever led a round,
        #: in the order they first did (:meth:`coordinator_for`).  A deposed
        #: leader's entry stays: its block results still count.
        self.coordinators: Dict[ServerId, SimScheduledRounds] = {}
        self._wire_termination()

        self._clients: Dict[ClientId, FidesClient] = {}

    # -- the deployment: who leads, with what, under which ordering ---------------------

    def _wire_termination(self) -> None:
        """Install the termination layer: one designated coordinator for all servers.

        The one place a deployment is defined.  It sets ``coordinator_id``
        (the designated coordinator; ``None`` when any server may lead),
        ``ordering`` (the ordering service; ``None`` when the coordinator
        stamps the chain itself), ``_route`` (a round's transactions -> the
        server leading it) and ``_new_coordinator`` (that server -> its
        coordinator).
        """
        self.coordinator_id: Optional[ServerId] = self.config.server_ids[0]
        self.ordering = None
        self._route = lambda transactions: self.coordinator_id
        self._new_coordinator = self._designated_coordinator
        self.coordinator_for(self.coordinator_id)

    def _designated_coordinator(self, server_id: ServerId) -> SimScheduledRounds:
        """A full-cluster coordinator in the current view."""
        coordinator_cls = (
            TFCommitCoordinator
            if self.protocol == PROTOCOL_TFCOMMIT
            else TwoPhaseCommitCoordinator
        )
        coordinator = coordinator_cls(
            server=self.servers[server_id],
            network=self.network,
            server_ids=self.config.server_ids,
            sim=self.sim,
            txns_per_block=self.config.txns_per_block,
            latency=self.latency,
            view=self.view,
        )
        # It chains onto its own log, so its committed frontier is the log's:
        # empty at deployment time, the certified one when a successor takes over.
        for block in coordinator.server.log:
            if block.is_commit:
                coordinator.observe_frontier(block.max_commit_ts)
        return coordinator

    def coordinator_for(self, server_id: ServerId) -> SimScheduledRounds:
        """The coordinator ``server_id`` leads rounds with, created (and given
        the server's termination role, Section 4.1) on first use."""
        if server_id not in self.coordinators:
            self.coordinators[server_id] = self._new_coordinator(server_id)
            self.servers[server_id].set_coordinator_role(self.coordinators[server_id])
        return self.coordinators[server_id]

    def _lead(self, transactions: Sequence[Transaction]) -> SimScheduledRounds:
        """The one router: the coordinator leading a round over ``transactions``
        (asked per round, so clients follow a view change without being told)."""
        return self.coordinator_for(self._route(transactions))

    @property
    def coordinator(self) -> Optional[SimScheduledRounds]:
        """The designated coordinator; ``None`` in a deployment without one."""
        return self.coordinators.get(self.coordinator_id)

    def deposed_servers(self) -> frozenset:
        """Servers stripped of coordinator duty by a view change."""
        return frozenset(self._deposed)

    def _live_coordinators(self) -> Iterator[SimScheduledRounds]:
        """Coordinators whose server is up, checked as each is reached (a
        flush can crash the next one's server).  A crashed one's queue waits
        for recovery or failover and must not keep the workload loop spinning."""
        return (c for c in list(self.coordinators.values()) if c.available)

    def _flush_pending(self) -> Termination:
        """Flush every live coordinator's partial batch and merge the replies.

        The merged frontier is the maximum across coordinators -- observing a
        larger committed timestamp is always safe for a retrying client.
        """
        flushed = [coordinator.flush() for coordinator in self._live_coordinators()]
        return Termination(
            False,
            tuple(outcome for reply in flushed for outcome in reply.outcomes),
            max((reply.frontier for reply in flushed), default=None),
        )

    def _land_stream(self) -> None:
        """Have the ordering service (if any) finalise every block it holds."""
        if self.ordering is not None:
            self.ordering.flush()

    def _release_execution(self, txn_id: str) -> None:
        """Drop the execution state ``txn_id`` buffered on every live server
        (what their timeouts do for a transaction that will see no decision)."""
        for server in self.servers.values():
            if not server.crashed:
                server.execution.finish(txn_id)

    # -- clients ----------------------------------------------------------------------

    def client(self, index: int = 0) -> FidesClient:
        """Return (creating on first use) the client with the given index;
        its ``end_transaction``s go to the server :meth:`_lead` names."""
        client_id = make_client_id(index)
        if client_id not in self._clients:
            self._clients[client_id] = FidesClient(
                client_id=client_id,
                keypair=keypair_for(client_id, seed=self.config.seed),
                network=self.network,
                shard_map=self.shard_map,
                coordinator_id=self.config.server_ids[0],
                coordinator_router=lambda txn: self._lead([txn]).coordinator_id,
            )
        return self._clients[client_id]

    # -- transaction execution ----------------------------------------------------------

    def run_transaction(
        self, operations: Sequence[Operation], client_index: int = 0
    ) -> CommitOutcome:
        """Execute one transaction (a list of read/write operations) end to end."""
        outcome, _ = self._run_transaction_raw(operations, client_index)
        return outcome

    def _run_transaction_raw(self, operations: Sequence[Operation], client_index: int = 0):
        """``(outcome, reply)``: the coordinator's reply as the client read
        it, ``None`` when a server the transaction needed was unreachable."""
        client = self.client(client_index)
        session = client.begin()
        try:
            for op in operations:
                if op.is_read:
                    client.read(session, op.item_id)
                else:
                    client.write(session, op.item_id, op.value)
            return client.commit_with_response(session)
        except UnreachableError as exc:
            # A server this transaction touches is down (crashed mid-workload
            # or mid-round).  The transaction fails -- the client would retry
            # after recovery -- and the execution state it buffered on the
            # *reachable* servers is released, as their timeouts would.
            self._release_execution(session.txn_id)
            outcome = CommitOutcome(
                txn_id=session.txn_id,
                status="failed",
                reason=f"server unreachable: {exc}",
            )
            return outcome, None

    def run_workload(
        self,
        specs: Sequence[TransactionSpec],
        client_index: int = 0,
        num_clients: int = 1,
    ) -> WorkloadResult:
        """Execute a list of workload transaction specs and flush pending batches.

        ``num_clients`` distinct client sessions (indices ``client_index`` to
        ``client_index + num_clients - 1``) issue the transactions round-robin,
        each with its own Lamport clock and its own queued-outcome resolution,
        mirroring the paper's multi-client evaluation setup (Section 6).  With
        batching enabled most ``commit`` calls return ``queued``; their final
        outcomes arrive in the coordinator response that flushed the block
        containing them, and the runner resolves each against the client that
        issued it.
        """
        if num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        result = WorkloadResult()
        # Coordinators accumulate block results across their lifetime; snapshot
        # the per-coordinator lengths so this run reports only its own blocks
        # (a second run_workload must not double-count the first run's).
        results_marker = {
            server_id: len(coordinator.results)
            for server_id, coordinator in self.coordinators.items()
        }
        if mutation_enabled("pr3-double-count-blocks"):
            results_marker = {}
        clients = [self.client(client_index + i) for i in range(num_clients)]
        result.committed_by_client = {client.client_id: 0 for client in clients}
        #: Work items are ``(spec, client_slot, attempt)``; stale-failed
        #: transactions are re-enqueued with a bumped attempt count.
        work = deque(
            (spec, position % num_clients, 0) for position, spec in enumerate(specs)
        )
        #: txn_id -> (owning slot, spec, attempt), in issue order.
        queued: Dict[str, Tuple[int, TransactionSpec, int]] = {}

        def record(outcome: CommitOutcome, owner: FidesClient) -> None:
            result.outcomes.append(outcome)
            if outcome.committed:
                result.committed_by_client[owner.client_id] += 1

        def settle(
            outcome: CommitOutcome,
            slot: int,
            spec: TransactionSpec,
            attempt: int,
            frontier: Optional[Timestamp],
        ) -> None:
            """Record a terminal outcome, or re-enqueue a stale-failed txn.

            A commit timestamp can fall behind the committed frontier when
            other clients' blocks commit between this client's operations and
            its termination request; like any OCC client, it retries with a
            refreshed clock (the coordinator reports the ``frontier`` in its
            reply).
            """
            owner = clients[slot]
            stale = outcome.status == "failed" and outcome.reason == STALE_TIMESTAMP_REASON
            if stale:
                # The transaction never entered a block, so no decision
                # broadcast will release its buffered execution state; the
                # real system expires it by timeout, the in-process engine
                # releases it directly.
                self._release_execution(outcome.txn_id)
            if stale and attempt < self.STALE_RETRY_LIMIT:
                if frontier is not None:
                    owner.clock.observe(frontier)
                work.append((spec, slot, attempt + 1))
            else:
                record(outcome, owner)

        def resolve_from(reply: Termination) -> None:
            by_txn = {outcome.txn_id: outcome for outcome in reply.outcomes}
            for txn_id in [t for t in queued if t in by_txn]:
                slot, spec, attempt = queued.pop(txn_id)
                outcome = clients[slot].accept(by_txn[txn_id])
                settle(outcome, slot, spec, attempt, reply.frontier)

        while work or queued or any(c.pending_count for c in self._live_coordinators()):
            if work:
                spec, slot, attempt = work.popleft()
                outcome, reply = self._run_transaction_raw(spec.operations, client_index + slot)
                flushed = type(reply) is Termination and not reply.queued
                if outcome.pending:
                    queued[outcome.txn_id] = (slot, spec, attempt)
                else:
                    settle(outcome, slot, spec, attempt, reply.frontier if flushed else None)
                if flushed:
                    resolve_from(reply)
                continue
            # Drain the partially filled final batch (including transactions
            # left pending by earlier calls); resolutions may re-enqueue
            # stale retries, which keeps the loop running.
            unresolved_before = len(queued)
            resolve_from(self._flush_pending())
            if not work and len(queued) == unresolved_before:
                break
        for txn_id, (slot, _spec, _attempt) in queued.items():
            # Like the stale path: a never-flushed transaction terminated
            # without a decision broadcast, so its buffered execution state
            # must be released explicitly on every server.
            self._release_execution(txn_id)
            record(
                CommitOutcome(txn_id=txn_id, status="failed", reason="never flushed"),
                clients[slot],
            )
        self._land_stream()
        result.block_results = [
            block_result
            for server_id, coordinator in self.coordinators.items()
            for block_result in coordinator.results[results_marker.get(server_id, 0):]
        ]
        return result

    def flush(self) -> Termination:
        """Commit every coordinator's partial batch and finalise the ordered stream."""
        flushed = self._flush_pending()
        self._land_stream()
        return flushed

    # -- crash / recovery / checkpointing ------------------------------------------------

    def crash_server(self, server_id: ServerId) -> None:
        """Crash one server: volatile state dropped, handler unregistered."""
        self.servers[server_id].crash()

    def crashed_servers(self) -> List[ServerId]:
        return [sid for sid, server in self.servers.items() if server.crashed]

    def recover_server(
        self, server_id: ServerId, peer_order: Optional[Sequence[ServerId]] = None
    ) -> RecoveryResult:
        """Recover a crashed server: restore, verified peer catch-up, rejoin.

        ``peer_order`` controls which peers the catch-up consults first
        (default: every other live server, in id order) -- tests use it to
        put a malicious peer in front and assert its response is rejected.
        """
        peers = (
            list(peer_order)
            if peer_order is not None
            else [
                sid
                for sid in self.config.server_ids
                if sid != server_id and not self.servers[sid].crashed
            ]
        )
        return self.servers[server_id].recover(peers)

    def fail_over(
        self, server_id: Optional[ServerId] = None, reason: str = ""
    ) -> ViewChangeOutcome:
        """Depose a leading server and hand its work to whoever leads next.

        Runs the view-change protocol of :mod:`repro.core.viewchange`: the
        next-smallest live server solicits every surviving cohort's commit
        frontier and stalled rounds (``VIEW_CHANGE``), verifies the frontier
        certificates and announces the new view (``NEW_VIEW``).  One view
        change (``group=None``) fences the deposed server in every round it
        led; the router skips it from then on, and its queued transactions
        and each stalled round go -- at the new view -- to the coordinator
        the router now names.  The deposed server keeps serving as a cohort
        (recover it first if it crashed).  Only a designated coordinator can
        be deposed where there is one (the successor takes the role);
        otherwise name the server.  ``reason`` is informational.
        """
        deposed = server_id if server_id is not None else self.coordinator_id
        if deposed is None or self.coordinator_id not in (None, deposed):
            raise ConfigurationError(
                f"cannot depose {deposed}: the designated coordinator is "
                f"{self.coordinator_id} (None: name the leading server to depose)"
            )
        excluded = self._deposed | {deposed} | set(self.crashed_servers())
        successor = elect_successor(self.config.server_ids, excluded)
        outcome = run_view_change(
            self.network,
            self.latency,
            successor,
            members=self.config.server_ids,
            deposed=deposed,
            group=None,
            current_view=self.view,
            successor_log=self.servers[successor].log,
            sim=self.sim,
            trusted=(self.protocol == PROTOCOL_2PC),
        )
        self._deposed.add(deposed)
        self.view = outcome.new_view
        if self.coordinator_id is not None:
            self.coordinator_id = successor
            self.coordinator_for(successor)
        self.view_changes.append(outcome)
        if deposed in self.coordinators:
            # Transactions stranded in the deposed leader's queue re-route one
            # by one: their groups may now be led by different servers.
            for txn, envelope in self.coordinators[deposed].take_pending():
                self._lead([txn]).adopt_pending([(txn, envelope)])
        for block, client_requests in outcome.stalled_rounds:
            self._lead(block.transactions).commit_batch(
                list(zip(block.transactions, client_requests))
            )
        self._land_stream()
        return outcome

    def create_checkpoint(self, install: bool = True) -> Checkpoint:
        """Build, co-sign, and (by default) install a checkpoint of the full log.

        Mirrors the in-process CoSi round of
        :func:`~repro.ledger.checkpoint.cosign_checkpoint`: every server
        contributes its shard root and its signature.  ``install=True``
        truncates every server's log under the checkpoint and compacts its
        durable state store (Section 3.3's storage bound).

        A checkpoint verifies only if every server co-signed it (DESIGN.md
        section 5), and a crashed machine signs nothing, so none may be down.
        The ordered stream is landed first, as :meth:`flush` does, so a
        sharded deployment's checkpoint falls on an epoch-anchor boundary.
        """
        crashed = self.crashed_servers()
        if crashed:
            raise ConfigurationError(
                f"a checkpoint needs every server's co-sign, and {sorted(crashed)} are down"
            )
        self._land_stream()
        reference_server = next(iter(self.servers.values()))
        checkpoint = build_checkpoint(
            reference_server.log,
            {sid: server.store.merkle_root() for sid, server in self.servers.items()},
            previous=reference_server.latest_checkpoint,
        )
        checkpoint = cosign_checkpoint(
            checkpoint, {sid: server.keypair for sid, server in self.servers.items()}
        )
        if install:
            for server in self.servers.values():
                server.install_checkpoint(checkpoint)
        return checkpoint

    # -- fault injection and audits ---------------------------------------------------------

    def inject_fault(self, server_id: ServerId, plans: Sequence[FaultPlan]) -> None:
        """Make ``server_id`` misbehave as ``plans`` say from now on (none: honestly)."""
        self.servers[server_id].set_faults(plans)

    def collect_logs(self) -> Dict[ServerId, TransactionLog]:
        """Gather (copies of) every server's log, as the auditor would."""
        return {server_id: server.log.copy() for server_id, server in self.servers.items()}

    def auditor(self):
        """Build an :class:`~repro.audit.auditor.Auditor` for this system."""
        from repro.audit.auditor import Auditor

        return Auditor(
            network=self.network,
            server_ids=list(self.config.server_ids),
            shard_map=self.shard_map,
        )

    def audit(self, **options):
        """Run a full offline audit and return the report.

        ``options`` go to :meth:`~repro.audit.auditor.Auditor.run_audit`
        (e.g. ``datastore_mode``).  Where the ordering service has a shard
        map, the ordered stream is landed first and its anchor chain -- empty
        or not -- is replayed against the reference log as well (DESIGN.md §5).
        """
        if self.ordering is not None and self.ordering.shard_map is not None:
            self._land_stream()
            options.update(
                epoch_anchors=self.ordering.epoch_anchors,
                ordering_shard_map=self.ordering.shard_map,
            )
        return self.auditor().run_audit(**options)

    # -- introspection -------------------------------------------------------------------------

    @property
    def server_ids(self) -> List[ServerId]:
        return list(self.config.server_ids)

    def server(self, server_id: ServerId) -> DatabaseServer:
        return self.servers[server_id]

    def log_heights(self) -> Dict[ServerId, int]:
        """Global log height per server (immune to checkpoint truncation)."""
        return {
            server_id: server.log.height for server_id, server in self.servers.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FidesSystem(protocol={self.protocol!r}, servers={len(self.servers)}, "
            f"items_per_shard={self.config.items_per_shard}, "
            f"txns_per_block={self.config.txns_per_block})"
        )
