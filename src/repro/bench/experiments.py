"""The parameter sweeps behind every figure of the paper's evaluation (Section 6).

Each ``figureXX_*`` function reproduces one plot: it sweeps the same
parameter the paper sweeps, runs the experiment at each point, and returns a
list of result rows (plus the raw :class:`ExperimentResult` objects when
``return_results=True``).  The sweeps default to a reduced request count so
they finish quickly under pytest-benchmark; pass ``num_requests=1000`` (the
paper's size) for a full run via ``python -m repro.bench``.

Ablation sweeps (latency regime, signing scheme, Merkle maintenance strategy)
live here as well; they back the design-choice discussion in DESIGN.md.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    locality_partitions,
    run,
)
from repro.common.config import SystemConfig
from repro.core.fides import PROTOCOL_2PC, PROTOCOL_TFCOMMIT
from repro.core.scaled import ScaledFidesSystem, build_system
from repro.net.latency import ConstantLatency, lan_latency, wan_latency
from repro.obs.timing import Stopwatch
from repro.recovery import FileStateStore
from repro.server.faults import FaultPlan
from repro.workload.ycsb import PartitionedWorkload, YcsbWorkload


def _rows(results: Sequence[ExperimentResult]) -> List[Dict[str, object]]:
    return [result.as_row() for result in results]


def _ratio(result: ExperimentResult, reference: ExperimentResult) -> float:
    """``result``'s throughput over ``reference``'s (0 when there is none)."""
    if reference.throughput_tps <= 0:
        return 0.0
    return result.throughput_tps / reference.throughput_tps


# ---------------------------------------------------------------------------
# Figure 12: 2PC vs TFCommit (3-7 servers, one transaction per block)
# ---------------------------------------------------------------------------

def figure12_2pc_vs_tfcommit(
    server_counts: Iterable[int] = (3, 4, 5, 6, 7),
    num_requests: int = 60,
    items_per_shard: int = 1000,
    return_results: bool = False,
):
    """2PC vs TFCommit commit latency and throughput, one txn per block.

    The paper finds TFCommit ~1.8x slower and ~2.1x lower-throughput than 2PC
    because of the extra phase, the collective signature, and the MHT update.
    """
    results: List[ExperimentResult] = []
    for protocol in (PROTOCOL_2PC, PROTOCOL_TFCOMMIT):
        for servers in server_counts:
            config = ExperimentConfig(
                label=f"fig12-{protocol}-{servers}s",
                protocol=protocol,
                num_servers=servers,
                items_per_shard=items_per_shard,
                txns_per_block=1,
                num_requests=num_requests,
            )
            results.append(run(config))
    return (results, _rows(results)) if return_results else _rows(results)


# ---------------------------------------------------------------------------
# Figure 13: varying the number of transactions per block (5 servers)
# ---------------------------------------------------------------------------

def figure13_txns_per_block(
    batch_sizes: Iterable[int] = (2, 20, 40, 60, 80, 100, 120),
    num_requests: int = 240,
    items_per_shard: int = 1000,
    fixed_compute_ms: Optional[float] = None,
    return_results: bool = False,
):
    """Latency and throughput as the block batch grows from 2 to 120 (5 servers).

    The paper reports per-transaction latency dropping ~2.6x and throughput
    rising ~2.5x once >= 80 transactions share a block.
    ``fixed_compute_ms`` makes the sweep's simulated throughput
    deterministic (the CI baseline gate runs it that way).
    """
    results: List[ExperimentResult] = []
    for batch in batch_sizes:
        config = ExperimentConfig(
            label=f"fig13-batch-{batch}",
            protocol=PROTOCOL_TFCOMMIT,
            num_servers=5,
            items_per_shard=items_per_shard,
            txns_per_block=batch,
            num_requests=max(num_requests, batch),
            fixed_compute_ms=fixed_compute_ms,
        )
        results.append(run(config))
    return (results, _rows(results)) if return_results else _rows(results)


# ---------------------------------------------------------------------------
# Figure 14: varying the number of servers / shards (100 txns per block)
# ---------------------------------------------------------------------------

def figure14_number_of_servers(
    server_counts: Iterable[int] = (3, 4, 5, 6, 7, 8, 9),
    num_requests: int = 300,
    items_per_shard: int = 1000,
    txns_per_block: int = 100,
    return_results: bool = False,
):
    """Scalability with the number of database servers at 100 txns per block.

    The paper reports throughput up ~47% and latency down ~33% from 3 to 9
    servers, driven by the per-shard MHT update work shrinking as the block's
    operations spread over more shards.
    """
    results: List[ExperimentResult] = []
    for servers in server_counts:
        config = ExperimentConfig(
            label=f"fig14-{servers}s",
            protocol=PROTOCOL_TFCOMMIT,
            num_servers=servers,
            items_per_shard=items_per_shard,
            txns_per_block=txns_per_block,
            num_requests=num_requests,
        )
        results.append(run(config))
    return (results, _rows(results)) if return_results else _rows(results)


# ---------------------------------------------------------------------------
# Figure 15: varying the number of data items per shard (5 servers, 100/block)
# ---------------------------------------------------------------------------

def figure15_items_per_shard(
    shard_sizes: Iterable[int] = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000),
    num_requests: int = 200,
    txns_per_block: int = 100,
    return_results: bool = False,
):
    """Sensitivity to shard size: deeper Merkle trees make commits slightly slower.

    The paper reports latency rising ~15% and throughput dropping ~14% from
    1k to 10k items per shard (tree depth grows from ~10 to ~14 levels).
    """
    results: List[ExperimentResult] = []
    for items in shard_sizes:
        config = ExperimentConfig(
            label=f"fig15-{items}items",
            protocol=PROTOCOL_TFCOMMIT,
            num_servers=5,
            items_per_shard=items,
            txns_per_block=txns_per_block,
            num_requests=num_requests,
        )
        results.append(run(config))
    return (results, _rows(results)) if return_results else _rows(results)


# ---------------------------------------------------------------------------
# Ablations (design-choice studies referenced in DESIGN.md)
# ---------------------------------------------------------------------------

def multiclient_scaling(
    client_counts: Iterable[int] = (1, 2, 4, 8),
    num_requests: int = 64,
    items_per_shard: int = 1000,
    txns_per_block: int = 8,
    fixed_compute_ms: Optional[float] = None,
    return_results: bool = False,
):
    """Throughput and latency as concurrent clients grow (Section 6 setup).

    The paper's evaluation drives every experiment with many concurrent
    clients; this sweep round-robins one conflict-free workload across 1-8
    client sessions.  Under a conflict-free workload every client count must
    commit the same number of transactions -- the sweep exposes the cost of
    interleaving independent Lamport clocks in one pending queue.
    """
    results: List[ExperimentResult] = []
    for clients in client_counts:
        config = ExperimentConfig(
            label=f"multiclient-{clients}c",
            protocol=PROTOCOL_TFCOMMIT,
            num_servers=5,
            items_per_shard=items_per_shard,
            txns_per_block=txns_per_block,
            num_requests=num_requests,
            num_clients=clients,
            fixed_compute_ms=fixed_compute_ms,
        )
        results.append(run(config))
    return (results, _rows(results)) if return_results else _rows(results)


def faultmatrix(
    num_requests: int = 8,
    num_clients: int = 2,
    num_servers: int = 3,
    items_per_shard: int = 48,
    txns_per_block: int = 2,
    smoke: bool = False,
    return_results: bool = False,
):
    """The detection matrix: sweep the full fault x trigger grid (Lemmas 1-7).

    Every scenario injects one declarative :class:`~repro.faultsim.FaultPlan`
    composition into a fresh deployment, drives the multi-client workload
    engine plus a deterministic probe, and reports whether the auditor (or
    the TFCommit round itself) detected the misbehaviour, whether the culprit
    attribution is correct, blocks-until-detection, and the audit wall-time
    against an honest-run baseline.  ``smoke=True`` restricts the grid to the
    always-firing trigger variant (the CI configuration).
    """
    from repro.faultsim import CampaignConfig, CampaignRunner, build_fault_matrix
    from repro.faultsim.plan import DEFAULT_TRIGGER_VARIANTS

    config = CampaignConfig(
        num_servers=num_servers,
        items_per_shard=items_per_shard,
        txns_per_block=txns_per_block,
        num_requests=num_requests,
        num_clients=num_clients,
    )
    variants = DEFAULT_TRIGGER_VARIANTS[:1] if smoke else DEFAULT_TRIGGER_VARIANTS
    scenarios = build_fault_matrix(config.server_ids, trigger_variants=variants)
    results = CampaignRunner(config).run_matrix(scenarios)
    rows = [result.as_row() for result in results]
    return (results, rows) if return_results else rows


def scaledgroups(
    server_counts: Iterable[int] = (4, 6),
    localities: Iterable[float] = (1.0, 0.75),
    batch_sizes: Iterable[int] = (2, 4),
    group_size: int = 2,
    num_requests: int = 40,
    num_clients: int = 2,
    items_per_shard: int = 120,
    smoke: bool = False,
    return_results: bool = False,
):
    """The Section 4.6 scale-out sweep: servers x group-locality x txns/block.

    Each point drives a locality-partitioned workload through a
    :class:`~repro.core.scaled.ScaledFidesSystem` (per-group TFCommit rounds
    merged by the ordering service) and through the classic single-coordinator
    deployment, reporting scaled vs baseline throughput.  Group coordinators
    are distinct machines whose rounds interleave on the shared timeline, so
    the scaled run's makespan is shorter than the baseline's sequential sum
    -- the speedup column quantifies how much the dynamic groups buy at each
    locality level.

    ``smoke=True`` restricts the grid to one point per axis (the CI
    configuration).
    """
    if smoke:
        server_counts = tuple(server_counts)[:1]
        localities = tuple(localities)[:1]
        batch_sizes = tuple(batch_sizes)[:1]
        num_requests = min(num_requests, 16)
    results: List[ExperimentResult] = []
    rows: List[Dict[str, object]] = []
    for servers in server_counts:
        for locality in localities:
            for batch in batch_sizes:
                config = ExperimentConfig(
                    label=f"scaled-{servers}s-loc{locality}-b{batch}",
                    deployment="scaled",
                    num_servers=servers,
                    items_per_shard=items_per_shard,
                    txns_per_block=batch,
                    ops_per_txn=2,
                    num_requests=num_requests,
                    num_clients=num_clients,
                    group_size=group_size,
                    locality=locality,
                )
                result = run(config)
                baseline = run(replace(config, deployment="classic"))
                results.append(result)
                rows.append(
                    {
                        **result.as_row(),
                        "baseline tps": round(baseline.throughput_tps, 1),
                        "speedup": round(_ratio(result, baseline), 2),
                    }
                )
    return (results, rows) if return_results else rows


def scaleout(
    shard_counts: Iterable[int] = (1, 4, 16),
    cross_shard_ratios: Iterable[float] = (0.0, 0.1),
    num_servers: int = 128,
    group_size: int = 1,
    items_per_shard: int = 64,
    txns_per_block: int = 16,
    ops_per_txn: int = 2,
    num_clients: int = 4,
    home_skew_theta: float = 0.6,
    epoch_max_blocks: int = 32,
    num_requests: Optional[int] = None,
    fixed_compute_ms: Optional[float] = None,
    smoke: bool = False,
    return_results: bool = False,
):
    """Hundreds-of-groups ordering scale-out: shards x cross-shard traffic.

    Every point drives a Zipfian-skewed (``home_skew_theta``)
    locality-partitioned workload through 128 single-server groups and the
    :class:`~repro.core.sequencing.OrderingService` with ``shard_counts``
    lanes: 1 is the classic single-lane sequencer (the pre-sharding
    saturation point), more order single-shard blocks independently per
    lane (DESIGN.md section 5).
    ``cross_shard_ratios`` sets the fraction of transactions spanning two
    home partitions; each ratio's 1-shard point is the reference for that
    ratio's ``speedup vs 1 shard`` column, and ``ordserv busy`` reports the
    busiest lane's utilisation (the saturation the sharding removes).
    There is deliberately no single-coordinator baseline run: dragging 128
    servers through one coordinator per block is not a useful reference at
    this scale -- the 1-shard scaled run is.

    The full sweep defaults to ~10^6 transactions (6 points x 170k);
    ``smoke=True`` keeps the three shard counts at one non-zero ratio and
    ~38k requests per point (>= 10^5 transactions and >= 128 distinct
    groups total, the CI configuration).  ``fixed_compute_ms`` makes the
    throughputs deterministic for the baseline gate.
    """
    shard_counts = tuple(sorted(shard_counts))
    cross_shard_ratios = tuple(cross_shard_ratios)
    if smoke:
        nonzero = tuple(r for r in cross_shard_ratios if r > 0)
        cross_shard_ratios = nonzero[:1] or cross_shard_ratios[:1]
        if num_requests is None:
            num_requests = 38_400
    if num_requests is None:
        num_requests = 170_000
    results: List[ExperimentResult] = []
    rows: List[Dict[str, object]] = []
    reference: Dict[float, ExperimentResult] = {}
    for ratio in cross_shard_ratios:
        for shards in shard_counts:
            config = ExperimentConfig(
                label=f"scaleout-{num_servers}s-sh{shards}-x{ratio}",
                deployment="scaled",
                num_servers=num_servers,
                items_per_shard=items_per_shard,
                txns_per_block=txns_per_block,
                ops_per_txn=ops_per_txn,
                num_requests=num_requests,
                num_clients=num_clients,
                group_size=group_size,
                locality=1.0 - ratio,
                home_skew_theta=home_skew_theta,
                ordering_shards=shards,
                epoch_max_blocks=epoch_max_blocks,
                fixed_compute_ms=fixed_compute_ms,
            )
            result = run(config)
            results.append(result)
            rows.append(
                {
                    "label": config.label,
                    "servers": num_servers,
                    "shards": shards,
                    "cross ratio": ratio,
                    "requests": num_requests,
                    "committed": result.committed_txns,
                    "groups": result.distinct_groups,
                    "epochs": result.epochs,
                    "throughput (txns/s)": round(result.throughput_tps, 1),
                    "ordserv busy": round(result.ordering_busy_frac, 3),
                    "speedup vs 1 shard": round(
                        _ratio(result, reference.setdefault(ratio, result)), 2
                    ),
                    "makespan (s)": round(result.total_time_s, 4),
                }
            )
    return (results, rows) if return_results else rows


def pipeline(
    depths: Iterable[int] = (1, 2, 4),
    deployments: Iterable[str] = ("classic", "scaled"),
    batch_sizes: Iterable[int] = (2, 4),
    num_servers: int = 4,
    group_size: int = 2,
    num_requests: int = 32,
    smoke: bool = False,
    return_results: bool = False,
    obs=None,
):
    """The event-driven pipelining sweep: depth x deployment x txns/block.

    Every point runs the same workload twice -- once at the given pipeline
    depth, once sequentially (depth 1) -- on the discrete-event timeline
    (DESIGN.md section 7) and reports the pipelined-vs-sequential speedup.
    Only ``pipeline_depth`` differs between the two runs: the workload's
    conflict-free window spans ``depth`` consecutive batches in both, so the
    comparison measures the scheduler, not workload-conflict luck.  At depth
    1 the speedup is exactly 1.0 by construction (the depth-1 schedule *is*
    the sequential schedule, so it is not run twice), and the dependency
    rules cap how far it can rise with depth.
    The ``classic`` deployment pipelines one coordinator's consecutive
    blocks (phase 1 of block N+1 overlapping phases 2-5 of block N); the
    ``scaled`` deployment additionally interleaves per-group coordinators
    and the ordering service on the shared timeline.  Runs use the
    deterministic fixed-compute model, so every number is reproducible
    bit-for-bit -- the CI baseline gate compares these throughputs exactly.

    The depth-1 points are sanity anchors (speedup 1.0 by construction);
    ``smoke=True`` restricts the grid to one depth >= 2 point per
    deployment (the CI configuration).  ``obs`` is the shared
    :class:`~repro.obs.Observability` bundle the traced CLI threads through
    every point's systems (``--trace``/``--metrics``).
    """
    depths = tuple(depths)
    deployments = tuple(deployments)
    batch_sizes = tuple(batch_sizes)
    if smoke:
        depths = tuple(d for d in depths if d >= 2)[:1] or (2,)
        batch_sizes = batch_sizes[:1]
        num_requests = min(num_requests, 16)
    results: List[ExperimentResult] = []
    rows: List[Dict[str, object]] = []
    for deployment in deployments:
        scaled = deployment == "scaled"
        for depth in depths:
            for batch in batch_sizes:
                config = ExperimentConfig(
                    label=f"pipeline-{deployment}-d{depth}-b{batch}",
                    deployment=deployment,
                    num_servers=num_servers,
                    items_per_shard=200,
                    txns_per_block=batch,
                    ops_per_txn=2,
                    num_requests=num_requests,
                    num_clients=2 if scaled else 1,
                    pipeline_depth=depth,
                    fixed_compute_ms=1.0,
                    audit=True,
                    group_size=group_size if scaled else 0,
                    conflict_free_window=max(1, depth) * batch,
                )
                result = run(config, obs=obs)
                sequential = (
                    result if depth == 1 else run(replace(config, pipeline_depth=1), obs=obs)
                )
                results.append(result)
                rows.append(
                    {
                        "label": config.label,
                        "servers": num_servers,
                        "deployment": deployment,
                        "depth": depth,
                        "txns/block": batch,
                        "committed": result.committed_txns,
                        "blocks": result.blocks,
                        "throughput (txns/s)": round(result.throughput_tps, 1),
                        "sequential tps": round(sequential.throughput_tps, 1),
                        "speedup": round(_ratio(result, sequential), 3),
                        "audit clean": result.auditor_clean and sequential.auditor_clean,
                    }
                )
    return (results, rows) if return_results else rows


def recovery(
    gap_requests: Iterable[int] = (8, 16, 32),
    checkpoint_intervals: Iterable[int] = (0, 1),
    store_kinds: Iterable[str] = ("memory", "wal"),
    warmup_requests: int = 8,
    num_servers: int = 4,
    group_size: int = 2,
    items_per_shard: int = 60,
    txns_per_block: int = 2,
    num_clients: int = 2,
    num_requests: Optional[int] = None,
    smoke: bool = False,
    return_results: bool = False,
):
    """Crash-recovery sweep: recovery latency vs missed-log length x checkpointing.

    Each point builds a :class:`~repro.core.scaled.ScaledFidesSystem` (the
    deployment where disjoint groups keep committing while one server is
    down, so a real catch-up gap accumulates), runs a warm-up workload,
    optionally installs a checkpoint (``checkpoint_intervals``: 0 = never,
    1 = after the warm-up -- the recovering server then restores from the
    checkpoint snapshot instead of replaying from genesis), crashes one
    server, commits ``gap_requests`` more transactions on the surviving
    groups, and times :meth:`recover_server` -- restore + verified peer
    catch-up + rejoin.

    ``store_kinds`` compares the in-memory state store against the real
    append-only file WAL (``wal``), whose fsync-per-block cost shows up both
    in the workload wall time and in the recovery restore phase.
    ``num_requests`` (the CLI's ``--requests``) overrides the largest gap
    size; ``smoke=True`` restricts the grid to one point per axis.
    """
    gap_requests = tuple(gap_requests)
    if num_requests is not None:
        gap_requests = tuple(g for g in gap_requests if g < num_requests) + (num_requests,)
    checkpoint_intervals = tuple(checkpoint_intervals)
    store_kinds = tuple(store_kinds)
    if smoke:
        gap_requests = gap_requests[:1]
        checkpoint_intervals = checkpoint_intervals[-1:]

    results = []
    for store_kind in store_kinds:
        for gap in gap_requests:
            for interval in checkpoint_intervals:
                tmpdir = tempfile.mkdtemp(prefix="fides-wal-") if store_kind == "wal" else None
                factory = (
                    (lambda sid, d=tmpdir: FileStateStore(f"{d}/{sid}.wal"))
                    if store_kind == "wal"
                    else None
                )
                config = SystemConfig(
                    num_servers=num_servers,
                    items_per_shard=items_per_shard,
                    txns_per_block=txns_per_block,
                    ops_per_txn=2,
                    multi_versioned=False,
                    message_signing="hash",
                    seed=2020,
                )
                system = ScaledFidesSystem(
                    config,
                    latency=ConstantLatency(0.0002),
                    state_store_factory=factory,
                )
                workload = PartitionedWorkload(
                    partitions=locality_partitions(system, group_size),
                    ops_per_txn=2,
                    locality=1.0,
                    conflict_free_window=txns_per_block,
                    seed=2020,
                )
                target = config.server_ids[-1]
                workload_watch = Stopwatch()
                warmup = system.run_workload(
                    workload.generate(warmup_requests), num_clients=num_clients
                )
                if interval:
                    system.create_checkpoint()
                system.crash_server(target)
                gap_result = system.run_workload(
                    workload.generate(gap), num_clients=num_clients
                )
                workload_time = workload_watch.elapsed()
                recovery_result = system.recover_server(target)
                wal_bytes = system.servers[target].state_store.size_bytes()
                if tmpdir is not None:
                    for server in system.servers.values():
                        server.state_store.close()
                    shutil.rmtree(tmpdir, ignore_errors=True)
                row = {
                    "label": f"recovery-{store_kind}-gap{gap}-ckpt{interval}",
                    "store": store_kind,
                    "checkpointed": bool(interval),
                    "warmup committed": warmup.committed,
                    "gap committed": gap_result.committed,
                    "restored blocks": recovery_result.restored_blocks,
                    "fetched blocks": recovery_result.fetched_blocks,
                    "recover (ms)": round(recovery_result.wall_time_s * 1000.0, 3),
                    "workload (s)": round(workload_time, 3),
                    "state store (KiB)": round(wal_bytes / 1024.0, 1),
                }
                results.append((recovery_result, row))
    rows = [row for _, row in results]
    return (results, rows) if return_results else rows


def failover(
    deployments: Iterable[str] = ("classic", "scaled"),
    stall_requests: Iterable[int] = (4, 8),
    warmup_requests: int = 4,
    post_requests: int = 4,
    num_servers: int = 4,
    group_size: int = 2,
    items_per_shard: int = 60,
    txns_per_block: int = 2,
    num_clients: int = 2,
    num_requests: Optional[int] = None,
    smoke: bool = False,
    return_results: bool = False,
):
    """Coordinator-failover sweep: view-change cost vs outage depth.

    Each point warms a deployment up, then crashes the coordinator *mid-round*
    (a declarative vote-phase crash plan): the in-flight round stalls on the
    surviving cohorts -- no ROUND_FAILED can arrive, the sender is dead.
    ``stall_requests`` more transactions are submitted into the outage
    (``classic``: they fail fast at the dead coordinator; ``scaled``: disjoint
    groups keep committing, deepening the frontier gap the successor must
    certify).  The server is then recovered and the view change timed:
    VIEW_CHANGE solicitation, frontier-certificate verification, NEW_VIEW,
    and the successor's re-proposal of every stalled round.  The virtual
    time is the protocol cost on the simulated network (the VIEW_CHANGE and
    NEW_VIEW broadcast round trips); the wall time is the Python cost of
    certificate verification and re-proposal.  ``post committed`` proves the
    cluster commits again under the successor.

    ``num_requests`` (the CLI's ``--requests``) overrides the largest stall
    depth; ``smoke=True`` restricts the grid to the smallest depth per
    deployment (the CI configuration).
    """
    deployments = tuple(deployments)
    stall_requests = tuple(stall_requests)
    if num_requests is not None:
        stall_requests = tuple(g for g in stall_requests if g < num_requests) + (num_requests,)
    if smoke:
        stall_requests = stall_requests[:1]

    results = []
    for deployment in deployments:
        for stall in stall_requests:
            config = SystemConfig(
                num_servers=num_servers,
                items_per_shard=items_per_shard,
                txns_per_block=txns_per_block,
                ops_per_txn=2,
                multi_versioned=False,
                message_signing="hash",
                seed=2020,
            )
            system = build_system(deployment, config, latency=ConstantLatency(0.0002))
            # Group-local transactions where groups exist, the plain YCSB
            # mix where every round spans the cluster anyway.
            workload = (
                PartitionedWorkload(
                    partitions=locality_partitions(system, group_size),
                    ops_per_txn=2,
                    locality=1.0,
                    conflict_free_window=txns_per_block,
                    seed=2020,
                )
                if deployment == "scaled"
                else YcsbWorkload(
                    item_ids=list(system.shard_map.all_items()),
                    ops_per_txn=2,
                    conflict_free_window=txns_per_block,
                    seed=2020,
                )
            )
            target = config.server_ids[0]
            warmup = system.run_workload(
                workload.generate(warmup_requests), num_clients=num_clients
            )
            # Crash mid-round: the plan fires at the target's first vote
            # observation of the outage workload, stranding that round on
            # the surviving cohorts.
            system.inject_fault(
                target,
                [
                    FaultPlan(
                        fault="coordinator-crash",
                        target=target,
                        trigger={"kind": "phase", "phases": ["vote"]},
                    )
                ],
            )
            stall_result = system.run_workload(
                workload.generate(stall), num_clients=num_clients
            )
            system.recover_server(target)
            view_change_watch = Stopwatch()
            outcome = system.fail_over(target)
            wall_time = view_change_watch.elapsed()
            post = system.run_workload(
                workload.generate(post_requests), num_clients=num_clients
            )
            row = {
                "label": f"failover-{deployment}-stall{stall}",
                "deployment": deployment,
                "stall requests": stall,
                "warmup committed": warmup.committed,
                "committed during outage": stall_result.committed,
                "reproposed rounds": len(outcome.stalled_rounds),
                "certificates": len(outcome.certificates),
                "frontier height": outcome.frontier_height,
                "successor": outcome.successor,
                "new view": outcome.new_view,
                "view change (virtual ms)": round(outcome.timing.total * 1000.0, 3),
                "view change (wall ms)": round(wall_time * 1000.0, 3),
                "post committed": post.committed,
            }
            results.append((outcome, row))
    rows = [row for _, row in results]
    return (results, rows) if return_results else rows


def ablation_latency_regime(
    num_requests: int = 60,
    return_results: bool = False,
):
    """LAN vs WAN latency: where TFCommit shifts from compute- to network-bound."""
    results: List[ExperimentResult] = []
    for name, latency in (("lan", lan_latency()), ("wan", wan_latency())):
        config = ExperimentConfig(
            label=f"ablation-latency-{name}",
            protocol=PROTOCOL_TFCOMMIT,
            num_servers=5,
            items_per_shard=1000,
            txns_per_block=20,
            num_requests=num_requests,
        )
        results.append(run(config, latency=latency))
    return (results, _rows(results)) if return_results else _rows(results)


def ablation_signing_scheme(
    num_requests: int = 40,
    return_results: bool = False,
):
    """Real Schnorr vs keyed-hash message envelopes (co-signing always Schnorr)."""
    results: List[ExperimentResult] = []
    for scheme in ("hash", "schnorr"):
        config = ExperimentConfig(
            label=f"ablation-signing-{scheme}",
            protocol=PROTOCOL_TFCOMMIT,
            num_servers=4,
            items_per_shard=500,
            txns_per_block=10,
            num_requests=num_requests,
            message_signing=scheme,
        )
        results.append(run(config))
    return (results, _rows(results)) if return_results else _rows(results)


#: Registry used by the CLI entry point.
EXPERIMENT_REGISTRY = {
    "figure12": figure12_2pc_vs_tfcommit,
    "figure13": figure13_txns_per_block,
    "figure14": figure14_number_of_servers,
    "figure15": figure15_items_per_shard,
    "multiclient": multiclient_scaling,
    "faultmatrix": faultmatrix,
    "pipeline": pipeline,
    "scaledgroups": scaledgroups,
    "scaleout": scaleout,
    "recovery": recovery,
    "failover": failover,
    "ablation-latency": ablation_latency_regime,
    "ablation-signing": ablation_signing_scheme,
}
