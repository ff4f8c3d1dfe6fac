"""The one experiment runner and the simulated-time performance model.

The paper measures two quantities (Section 6): *commit latency* -- the time
to terminate a transaction once the client sends ``end_transaction`` -- and
*throughput* -- committed transactions per second.  On the paper's testbed
those come from wall clocks on EC2 VMs; here they come from the
simulated-time model described in DESIGN.md:

* every TFCommit / 2PC phase costs one outbound network delay + the slowest
  participant's *measured* compute + one inbound delay (participants work in
  parallel on real hardware, so the max is the right aggregate);
* rounds are placed on a shared virtual timeline (DESIGN.md section 7), so
  the total run time is the timeline's makespan and the throughput is
  ``committed transactions / makespan``.

Commit latency per transaction is the block latency amortised over the
transactions batched in the block -- this is what Figure 13 reports when it
shows latency dropping as the batch grows.

:func:`build` is the only function that turns an :class:`ExperimentConfig`
into a system plus a workload, :func:`run` drives and measures the pair, and
:class:`ExperimentResult` is the only result type.  A comparison (scaled vs
the classic baseline, depth *d* vs depth 1) is two ``run`` calls whose
configs differ in the one compared field; the sweep's row of
:data:`repro.bench.experiments.SWEEPS` computes the ratio.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError
from repro.core.fides import PROTOCOL_TFCOMMIT, FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import sharded_sequencer, single_sequencer
from repro.net.latency import LatencyModel, lan_latency
from repro.sim.context import FixedCompute
from repro.workload.ycsb import PartitionedWorkload, YcsbWorkload


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One point in an evaluation sweep.

    Defaults mirror the paper's setup: 5 servers, 10 000 items per shard,
    5 operations per transaction, 100 transactions per block, 1000 client
    requests, and the Transactional-YCSB-like workload.  ``num_requests`` is
    deliberately configurable because the pure-Python crypto makes the full
    1000-request sweeps slow in CI; the benchmark defaults use a few hundred
    requests, and ``python -m repro.bench`` can run the full size.
    """

    label: str = "experiment"
    protocol: str = PROTOCOL_TFCOMMIT
    num_servers: int = 5
    items_per_shard: int = 10_000
    txns_per_block: int = 100
    ops_per_txn: int = 5
    num_requests: int = 1000
    num_clients: int = 1
    message_signing: str = "hash"
    multi_versioned: bool = False
    pipeline_depth: int = 1
    #: Per-phase compute charge in milliseconds; ``None`` (the default) uses
    #: the measured wall-clock compute of the hybrid simulated-time model.
    #: The sweeps whose throughput tier-1 pins set it, so that throughput is
    #: deterministic across machines (DESIGN.md section 7).
    fixed_compute_ms: Optional[float] = None
    seed: int = 2020
    #: ``"classic"`` (one coordinator) or ``"scaled"`` (dynamic groups +
    #: ordering service).
    deployment: str = "classic"
    #: Run the full offline audit after the workload and report its verdict.
    audit: bool = False
    # -- workload shape ------------------------------------------------------
    #: Servers per workload home partition; 0 draws every transaction from
    #: the whole item universe (the Transactional-YCSB-like default).  The
    #: workload depends on this and not on ``deployment``, so a scaled point
    #: and its classic baseline run the same generated transactions.
    group_size: int = 0
    #: Probability a transaction stays within its home partition.
    locality: float = 1.0
    #: Zipfian skew over home partitions (0.0 = uniform round-robin).
    home_skew_theta: float = 0.0
    #: Consecutive transactions kept conflict-free; ``None`` = one block's
    #: worth.  A depth-*d* pipelined point and its depth-1 reference both
    #: set it to *d* blocks, so they too run the same transactions.
    conflict_free_window: Optional[int] = None
    # -- ordering service (scaled deployment only) ---------------------------
    #: Ordering shards; > 1 gives each its own sequencer lane (DESIGN.md §5).
    ordering_shards: int = 1
    #: Per-lane buffer bound of the sharded sequencer.
    epoch_max_blocks: int = 32
    #: Blocks the single sequencer may hold back and release in any order
    #: (``ordering_shards == 1`` only; 0 releases in submission order).
    reorder_window: int = 0

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            num_servers=self.num_servers,
            items_per_shard=self.items_per_shard,
            txns_per_block=self.txns_per_block,
            ops_per_txn=self.ops_per_txn,
            multi_versioned=self.multi_versioned,
            message_signing=self.message_signing,
            pipeline_depth=self.pipeline_depth,
            seed=self.seed,
        )


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 for an empty list).

    The canonical benchmark schema reports p50/p95/p99 commit latencies; the
    nearest-rank definition keeps the value an actual observed sample, which
    keeps the pinned values stable at small smoke-sweep sizes.
    """
    if not samples:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError("percentile fraction must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * fraction))
    return ordered[rank - 1]


@dataclass
class ExperimentResult:
    """Measurements for one experiment configuration.

    ``total_time_s`` is the run's *makespan* on the simulated event timeline
    (the end of the last scheduled activity).  With one coordinator and
    ``pipeline_depth=1`` the blocks are produced sequentially and the
    makespan equals the sum of the per-block latencies; deeper pipelines and
    the scaled deployment's group coordinators (distinct machines whose
    rounds interleave, subject to the scheduler's cross-group and
    ordering-service rules) shrink it, which is exactly the throughput gain
    the ``pipeline`` / ``scaledgroups`` / ``scaleout`` sweeps quantify.
    """

    config: ExperimentConfig
    committed_txns: int = 0
    aborted_txns: int = 0
    blocks: int = 0
    total_time_s: float = 0.0
    throughput_tps: float = 0.0
    block_latency_ms: float = 0.0
    txn_latency_ms: float = 0.0
    txn_latency_p50_ms: float = 0.0
    txn_latency_p95_ms: float = 0.0
    txn_latency_p99_ms: float = 0.0
    mht_update_ms: float = 0.0
    mht_hashes_per_block: float = 0.0
    network_ms_per_block: float = 0.0
    #: Wall-clock spent in crypto (sign/verify/aggregate) amortised per
    #: block, read from the run's ``crypto.*.s`` metrics counters -- the
    #: isolated micro-timer, not a share of the coarse phase compute.
    crypto_ms_per_block: float = 0.0
    phase_ms: Dict[str, float] = field(default_factory=dict)
    #: ``config.audit`` runs only: the offline audit found no violation.
    auditor_clean: bool = False
    # -- scaled deployment only (0 on classic runs) --------------------------
    #: Servers that coordinated at least one round / distinct dynamic groups.
    group_coordinators: int = 0
    distinct_groups: int = 0
    #: Busiest ordering lane's busy time over the makespan -- how saturated
    #: the ordering layer is (the scale-out sweep's headline bottleneck metric).
    ordering_busy_frac: float = 0.0
    #: Epoch anchors sealed (0 without ordering shards).
    epochs: int = 0

    def as_row(self) -> Dict[str, object]:
        """Flatten into a table row for reporting."""
        config = self.config
        row = {
            "label": config.label,
            "protocol": config.protocol,
            "servers": config.num_servers,
            "items/shard": config.items_per_shard,
            "txns/block": config.txns_per_block,
            "requests": config.num_requests,
            "clients": config.num_clients,
            "committed": self.committed_txns,
            "throughput (txns/s)": round(self.throughput_tps, 1),
            "txn latency (ms)": round(self.txn_latency_ms, 3),
            "txn p50 (ms)": round(self.txn_latency_p50_ms, 3),
            "txn p95 (ms)": round(self.txn_latency_p95_ms, 3),
            "txn p99 (ms)": round(self.txn_latency_p99_ms, 3),
            "block latency (ms)": round(self.block_latency_ms, 3),
            "MHT update (ms)": round(self.mht_update_ms, 3),
            "MHT hashes/block": round(self.mht_hashes_per_block, 1),
            "crypto (ms)": round(self.crypto_ms_per_block, 3),
        }
        if config.deployment == "scaled":
            row.update(
                {
                    "group size": config.group_size,
                    "locality": config.locality,
                    "coordinators": self.group_coordinators,
                    "groups": self.distinct_groups,
                }
            )
        return row


def locality_partitions(system, group_size: int) -> List[List[str]]:
    """Split a system's item universe into per-``group_size``-servers pools."""
    server_ids = list(system.config.server_ids)
    partitions: List[List[str]] = []
    for start in range(0, len(server_ids), group_size):
        chunk = server_ids[start : start + group_size]
        items: List[str] = []
        for server_id in chunk:
            items.extend(system.shard_map.items_of(server_id))
        partitions.append(items)
    return partitions


def build(config: ExperimentConfig, latency: Optional[LatencyModel] = None, **options):
    """The configured deployment and its workload generator, not yet driven.

    Outside :mod:`repro.core` this is the only code that constructs a system.
    ``latency`` defaults to a LAN model seeded from the config -- every call
    gets its own, since sharing one instance between two runs would let the
    first advance the RNG stream the second samples from.  ``options`` are
    the constructor arguments both deployments share (``obs``,
    ``state_store_factory``).  :func:`run` drives and measures the pair; a
    sweep's event script (crash, recover, fail over) or a checker scenario
    drives it itself.
    """
    options.update(
        latency=latency or lan_latency(seed=config.seed),
        compute_model=(
            FixedCompute(config.fixed_compute_ms / 1000.0)
            if config.fixed_compute_ms is not None
            else None
        ),
    )
    if config.deployment == "classic":
        system = FidesSystem(config.system_config(), protocol=config.protocol, **options)
    elif config.deployment == "scaled":
        sequencer = (
            sharded_sequencer(config.ordering_shards, config.epoch_max_blocks)
            if config.ordering_shards > 1
            else single_sequencer(config.reorder_window)
        )
        system = ScaledFidesSystem(config.system_config(), sequencer=sequencer, **options)
    else:
        raise ConfigurationError(
            f"unknown deployment {config.deployment!r} (expected 'classic' or 'scaled')"
        )
    window = config.conflict_free_window or config.txns_per_block
    if config.group_size:
        workload = PartitionedWorkload(
            partitions=locality_partitions(system, config.group_size),
            ops_per_txn=config.ops_per_txn,
            locality=config.locality,
            conflict_free_window=window,
            seed=config.seed,
            home_skew_theta=config.home_skew_theta,
        )
    else:
        workload = YcsbWorkload(
            item_ids=system.shard_map.all_items(),
            ops_per_txn=config.ops_per_txn,
            conflict_free_window=window,
            seed=config.seed,
        )
    return system, workload


def run(
    config: ExperimentConfig, latency: Optional[LatencyModel] = None, obs=None
) -> ExperimentResult:
    """Build the configured deployment, drive its workload, measure it.

    ``obs`` is a shared :class:`~repro.obs.Observability` bundle (the traced
    bench CLI passes a tracing-enabled one); each run becomes its own trace
    process so the timelines of a comparison stay separable in the exported
    trace.
    """
    if obs is not None:
        obs.tracer.begin_process()
    system, workload = build(config, latency, obs=obs)
    outcome = system.run_workload(
        workload.generate(config.num_requests), num_clients=config.num_clients
    )

    result = ExperimentResult(config=config)
    result.committed_txns = outcome.committed
    result.aborted_txns = outcome.aborted
    if system.ordering is not None:
        result.group_coordinators = len(system.active_group_coordinators)
        result.distinct_groups = len(system.groups_used())
        result.epochs = len(system.ordering.epoch_anchors)
    block_results = [r for r in outcome.block_results if r.status in ("committed", "aborted")]
    result.blocks = len(block_results)
    if block_results:
        _measure_blocks(result, system, block_results)
    if config.audit:
        # Last: the audit's own messages and signature checks must not leak
        # into the crypto and makespan figures read above.
        result.auditor_clean = system.audit().ok
    return result


def _measure_blocks(result: ExperimentResult, system, block_results) -> None:
    """Fill in the timing figures of a run that produced at least one block."""
    block_latencies = [r.timing.total for r in block_results]
    txn_latencies = [r.timing.per_txn_latency for r in block_results]
    #: Every transaction in a block shares the block's amortised latency;
    #: weighting by block size makes the percentiles per-transaction ones.
    per_txn_samples = [
        r.timing.per_txn_latency for r in block_results for _ in range(max(1, r.timing.num_txns))
    ]
    result.total_time_s = system.sim.makespan
    result.block_latency_ms = statistics.mean(block_latencies) * 1000.0
    result.txn_latency_ms = statistics.mean(txn_latencies) * 1000.0
    result.txn_latency_p50_ms = percentile(per_txn_samples, 0.50) * 1000.0
    result.txn_latency_p95_ms = percentile(per_txn_samples, 0.95) * 1000.0
    result.txn_latency_p99_ms = percentile(per_txn_samples, 0.99) * 1000.0
    result.mht_update_ms = statistics.mean(r.timing.mht_time for r in block_results) * 1000.0
    result.mht_hashes_per_block = statistics.mean(
        r.timing.mht_hashes for r in block_results
    )
    result.network_ms_per_block = (
        statistics.mean(r.timing.network_time for r in block_results) * 1000.0
    )
    # Crypto wall time comes from the micro-timers around each crypto call,
    # not from a share of the coarse phase compute.
    result.crypto_ms_per_block = system.sim.obs.crypto_wall_s() / result.blocks * 1000.0
    if result.total_time_s > 0:
        result.throughput_tps = result.committed_txns / result.total_time_s
        # Ordered deliveries serialize on the ordering lanes' timeline
        # resources; a classic run has none and reports 0.
        busy = system.sim.scheduler.delivery_busy()
        if busy:
            result.ordering_busy_frac = max(busy.values()) / result.total_time_s

    phase_names = {name for r in block_results for name in r.timing.phases}
    for name in sorted(phase_names):
        samples = [r.timing.phases.get(name, 0.0) for r in block_results]
        result.phase_ms[name] = statistics.mean(samples) * 1000.0
