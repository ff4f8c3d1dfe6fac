"""The parameter sweeps behind every figure of the paper's evaluation (Section 6).

A sweep is data: a row of :data:`SWEEPS` (see :class:`Sweep`), interpreted by
:func:`run_sweep`, which lays the grid out, runs the experiment at each point
and returns the table rows (plus the raw result objects with
``return_results=True``).  The sweeps default to a reduced request count so
they finish quickly under pytest-benchmark; pass ``num_requests=1000`` (the
paper's size) for a full run via ``python -m repro.bench``.  The ablation
sweeps (latency regime, signing scheme) back the design-choice discussion in
DESIGN.md.
"""

from __future__ import annotations

import itertools
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.bench.harness import ExperimentConfig, ExperimentResult, build, run
from repro.core.fides import PROTOCOL_2PC, PROTOCOL_TFCOMMIT
from repro.net.latency import ConstantLatency, lan_latency, wan_latency
from repro.obs.timing import Stopwatch
from repro.recovery import FileStateStore
from repro.server.faults import FaultPlan


@dataclass(frozen=True)
class Sweep:
    """One row of :data:`SWEEPS`: a parameter grid over one experiment.

    ``axes`` maps each swept keyword to its default values, outermost loop
    first; ``defaults`` holds every other keyword.  Together they are the
    overrides :func:`run_sweep` accepts.  The callables below receive ``p``,
    a namespace of all keywords after overrides, and ``*values``, the grid
    point (one value per axis: ``fixed``'s, then ``axes``', in order).
    """

    #: The sweep's prose: what the paper plots and what the columns mean.
    doc: str
    defaults: Mapping[str, object]
    #: ``(p, *values)`` -> the point's label and other :class:`ExperimentConfig` fields;
    #: a default named like a config field is passed on unless the point says otherwise.
    point: Callable[..., Dict[str, object]]
    axes: Mapping[str, tuple] = field(default_factory=dict)
    #: Axes looped outside ``axes`` that are what the sweep compares: no override replaces them.
    fixed: Mapping[str, tuple] = field(default_factory=dict)
    #: ``p`` -> keywords to replace before the grid is laid out.
    prepare: Optional[Callable[[SimpleNamespace], Dict[str, object]]] = None
    #: ``p`` -> keywords to replace under ``smoke=True`` (after ``prepare``);
    #: ``None``: the sweep has no smoke grid and refuses ``smoke``.
    smoke: Optional[Callable[[SimpleNamespace], Dict[str, object]]] = None
    #: ``(config, p)`` -> the config of the run this point is compared with
    #: (``None``: with itself).
    reference: Optional[Callable[[ExperimentConfig, SimpleNamespace], ExperimentConfig]] = None
    #: ``(result, reference result, *values)`` -> the table row (``None``:
    #: :meth:`ExperimentResult.as_row`).
    row: Optional[Callable[..., Dict[str, object]]] = None
    #: ``(p, config, *values)`` -> ``(result, row)`` pairs: an event script
    #: that drives the point itself instead of :func:`~repro.bench.harness.run`.
    script: Optional[Callable[..., Iterable[Tuple[object, Dict[str, object]]]]] = None
    #: Threads the ``obs`` bundle through every run (``--trace``/``--metrics``).
    traced: bool = False


_CONFIG_FIELDS = frozenset(spec.name for spec in fields(ExperimentConfig))


def run_sweep(
    name: str, *, smoke: bool = False, return_results: bool = False, obs=None, **overrides
):
    """Run ``SWEEPS[name]`` and return its rows (``(results, rows)`` on request).

    ``overrides`` replace the row's ``axes`` and ``defaults`` by keyword; any
    other name, ``smoke`` on a sweep without a smoke grid and ``obs`` on one
    that is not traced are refused with :class:`TypeError`.
    """
    sweep = SWEEPS[name]
    keywords = {**sweep.axes, **sweep.defaults}
    refused = sorted(set(overrides) - set(keywords))
    if smoke and sweep.smoke is None:
        refused.append("smoke")
    if obs is not None and not sweep.traced:
        refused.append("obs")
    if refused:
        raise TypeError(f"sweep {name!r} does not take {', '.join(refused)}")
    p = SimpleNamespace(**{**sweep.fixed, **keywords, **overrides})
    for axis in sweep.axes:
        setattr(p, axis, tuple(getattr(p, axis)))
    for step in (sweep.prepare, sweep.smoke if smoke else None):
        if step is not None:
            vars(p).update(step(p))
    passed_on = {key: getattr(p, key) for key in sweep.defaults if key in _CONFIG_FIELDS}

    ran: Dict[ExperimentConfig, ExperimentResult] = {}

    def measured(config: ExperimentConfig) -> ExperimentResult:
        # A run the sweep already made (label aside) is not made twice: a
        # point that is its own reference, or whose reference is a grid point.
        key = replace(config, label="")
        if key not in ran:
            ran[key] = run(config, obs=obs)
        return ran[key]

    pairs = []
    for values in itertools.product(*(getattr(p, axis) for axis in (*sweep.fixed, *sweep.axes))):
        config = ExperimentConfig(**{**passed_on, **sweep.point(p, *values)})
        if sweep.script is not None:
            pairs.extend(sweep.script(p, config, *values))
            continue
        result = measured(config)
        reference = measured(sweep.reference(config, p)) if sweep.reference else result
        row = sweep.row(result, reference, *values) if sweep.row else result.as_row()
        pairs.append((result, row))
    rows = [row for _, row in pairs]
    return ([result for result, _ in pairs], rows) if return_results else rows


def _ratio(result: ExperimentResult, reference: ExperimentResult) -> float:
    """``result``'s throughput over ``reference``'s (0 when there is none)."""
    baseline = reference.throughput_tps
    return result.throughput_tps / baseline if baseline > 0 else 0.0


def _deepest(p, axis: str) -> Dict[str, object]:
    """``num_requests`` (the CLI's ``--requests``) replaces the largest value of ``axis``."""
    if p.num_requests is None:
        return {}
    kept = tuple(value for value in getattr(p, axis) if value < p.num_requests)
    return {axis: kept + (p.num_requests,)}


def _under_regime(p, config, regime):
    """One ``ablation-latency`` point: the same run under the regime's latency model."""
    result = run(config, latency=regime[1]())
    return [(result, result.as_row())]


def _fault_matrix(p, config):
    """The whole fault x trigger grid, one row per scenario (:mod:`repro.faultsim`)."""
    # Imported here: ``repro.faultsim`` builds through this package's harness.
    from repro.faultsim import fault_matrix

    return fault_matrix(p, config)


def _crash_and_recover(p, config, store_kind, gap, interval):
    """One ``recovery`` point: warm up, checkpoint, crash, commit the gap, recover."""
    wal = store_kind == "wal"
    with tempfile.TemporaryDirectory(prefix="fides-wal-") if wal else nullcontext() as directory:
        system, workload = build(
            config,
            ConstantLatency(0.0002),
            state_store_factory=(
                (lambda server_id: FileStateStore(f"{directory}/{server_id}.wal")) if wal else None
            ),
        )
        target = system.config.server_ids[-1]
        workload_watch = Stopwatch()
        warmup = system.run_workload(
            workload.generate(p.warmup_requests), num_clients=config.num_clients
        )
        if interval:
            system.create_checkpoint()
        system.crash_server(target)
        gap_result = system.run_workload(workload.generate(gap), num_clients=config.num_clients)
        workload_time = workload_watch.elapsed()
        recovered = system.recover_server(target)
        stored_bytes = system.servers[target].state_store.size_bytes()
        if wal:
            for server in system.servers.values():
                server.state_store.close()
    row = {
        "label": config.label,
        "store": store_kind,
        "checkpointed": bool(interval),
        "warmup committed": warmup.committed,
        "gap committed": gap_result.committed,
        "restored blocks": recovered.restored_blocks,
        "fetched blocks": recovered.fetched_blocks,
        "recover (ms)": round(recovered.wall_time_s * 1000.0, 3),
        "workload (s)": round(workload_time, 3),
        "state store (KiB)": round(stored_bytes / 1024.0, 1),
    }
    return [(recovered, row)]


def _crash_and_fail_over(p, config, deployment, stall):
    """One ``failover`` point: warm up, crash the coordinator mid-round, change view."""
    system, workload = build(config, ConstantLatency(0.0002))
    target = system.config.server_ids[0]
    warmup = system.run_workload(
        workload.generate(p.warmup_requests), num_clients=config.num_clients
    )
    # Crash mid-round: the plan fires at the target's first vote observation
    # of the outage workload, stranding that round on the surviving cohorts.
    crash = FaultPlan("coordinator-crash", target, {"kind": "phase", "phases": ["vote"]})
    system.inject_fault(target, [crash])
    stalled = system.run_workload(workload.generate(stall), num_clients=config.num_clients)
    system.recover_server(target)
    view_change_watch = Stopwatch()
    outcome = system.fail_over(target)
    wall_time = view_change_watch.elapsed()
    post = system.run_workload(workload.generate(p.post_requests), num_clients=config.num_clients)
    row = {
        "label": config.label,
        "deployment": deployment,
        "stall requests": stall,
        "warmup committed": warmup.committed,
        "committed during outage": stalled.committed,
        "reproposed rounds": len(outcome.stalled_rounds),
        "certificates": len(outcome.certificates),
        "frontier height": outcome.frontier_height,
        "successor": outcome.successor,
        "new view": outcome.new_view,
        "view change (virtual ms)": round(outcome.timing.total * 1000.0, 3),
        "view change (wall ms)": round(wall_time * 1000.0, 3),
        "post committed": post.committed,
    }
    return [(outcome, row)]


#: The small cluster ``recovery`` and ``failover`` crash a server of; ``num_requests``
#: (the CLI's ``--requests``) is the deepest outage instead of a per-point size.
_CRASHED_CLUSTER = dict(
    num_servers=4, group_size=2, items_per_shard=60, txns_per_block=2, num_clients=2,
    num_requests=None,
)

#: CLI name -> sweep; ``python -m repro.bench --list`` prints the keys.
SWEEPS: Dict[str, Sweep] = {
    "figure12": Sweep(
        doc="""2PC vs TFCommit commit latency and throughput, one txn per block.

        The paper finds TFCommit ~1.8x slower and ~2.1x lower-throughput than 2PC
        because of the extra phase, the collective signature, and the MHT update.""",
        fixed=dict(protocols=(PROTOCOL_2PC, PROTOCOL_TFCOMMIT)),
        axes=dict(server_counts=(3, 4, 5, 6, 7)),
        defaults=dict(num_requests=60, items_per_shard=1000),
        point=lambda p, protocol, servers: dict(
            label=f"fig12-{protocol}-{servers}s",
            protocol=protocol, num_servers=servers, txns_per_block=1,
        ),
    ),
    "figure13": Sweep(
        doc="""Latency and throughput as the block batch grows from 2 to 120 (5 servers).

        The paper reports per-transaction latency dropping ~2.6x and throughput
        rising ~2.5x once >= 80 transactions share a block.
        ``fixed_compute_ms`` makes the sweep's simulated throughput
        deterministic (the CI baseline gate runs it that way).""",
        axes=dict(batch_sizes=(2, 20, 40, 60, 80, 100, 120)),
        defaults=dict(num_requests=240, items_per_shard=1000, fixed_compute_ms=None),
        point=lambda p, batch: dict(
            label=f"fig13-batch-{batch}",
            num_servers=5, txns_per_block=batch, num_requests=max(p.num_requests, batch),
        ),
    ),
    "figure14": Sweep(
        doc="""Scalability with the number of database servers at 100 txns per block.

        The paper reports throughput up ~47% and latency down ~33% from 3 to 9
        servers, driven by the per-shard MHT update work shrinking as the block's
        operations spread over more shards.""",
        axes=dict(server_counts=(3, 4, 5, 6, 7, 8, 9)),
        defaults=dict(num_requests=300, items_per_shard=1000, txns_per_block=100),
        point=lambda p, servers: dict(label=f"fig14-{servers}s", num_servers=servers),
    ),
    "figure15": Sweep(
        doc="""Sensitivity to shard size: deeper Merkle trees make commits slightly slower.

        The paper reports latency rising ~15% and throughput dropping ~14% from
        1k to 10k items per shard (tree depth grows from ~10 to ~14 levels).""",
        axes=dict(shard_sizes=(1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000)),
        defaults=dict(num_requests=200, txns_per_block=100),
        point=lambda p, items: dict(
            label=f"fig15-{items}items", num_servers=5, items_per_shard=items
        ),
    ),
    "multiclient": Sweep(
        doc="""Throughput and latency as concurrent clients grow (Section 6 setup).

        The paper's evaluation drives every experiment with many concurrent
        clients; this sweep round-robins one conflict-free workload across 1-8
        client sessions.  Under a conflict-free workload every client count must
        commit the same number of transactions -- the sweep exposes the cost of
        interleaving independent Lamport clocks in one pending queue.""",
        axes=dict(client_counts=(1, 2, 4, 8)),
        defaults=dict(
            num_requests=64, items_per_shard=1000, txns_per_block=8, fixed_compute_ms=None
        ),
        point=lambda p, clients: dict(
            label=f"multiclient-{clients}c", num_servers=5, num_clients=clients
        ),
    ),
    "faultmatrix": Sweep(
        doc="""The detection matrix: sweep the full fault x trigger grid (Lemmas 1-7).

        Every scenario injects one declarative :class:`~repro.server.faults.FaultPlan`
        composition into a fresh deployment, drives the multi-client workload
        engine plus a deterministic probe, and reports whether the auditor (or
        the TFCommit round itself) detected the misbehaviour, whether the culprit
        attribution is correct, blocks-until-detection, and the audit wall-time
        against an honest run of the same deployment.  ``smoke=True`` restricts
        the grid to the always-firing trigger variant (the CI configuration).""",
        defaults=dict(
            num_requests=8, num_clients=2, num_servers=3, items_per_shard=48, txns_per_block=2
        ),
        # Multi-versioned stores let the audit authenticate every block
        # exhaustively, which pinpoints the corrupted version (Lemma 2); two
        # ordering shards make the scaled scenarios seal epoch anchors.
        point=lambda p: dict(
            label="faultmatrix", ops_per_txn=2, multi_versioned=True,
            ordering_shards=2, epoch_max_blocks=4,
        ),
        smoke=lambda p: dict(trigger_variants=1),
        script=_fault_matrix,
    ),
    "scaledgroups": Sweep(
        doc="""The Section 4.6 scale-out sweep: servers x group-locality x txns/block.

        Each point drives a locality-partitioned workload through a
        :class:`~repro.core.scaled.ScaledFidesSystem` (per-group TFCommit rounds
        merged by the ordering service) and through the classic single-coordinator
        deployment, reporting scaled vs baseline throughput.  Group coordinators
        are distinct machines whose rounds interleave on the shared timeline, so
        the scaled run's makespan is shorter than the baseline's sequential sum
        -- the speedup column quantifies how much the dynamic groups buy at each
        locality level.

        ``smoke=True`` restricts the grid to one point per axis (the CI
        configuration).""",
        axes=dict(server_counts=(4, 6), localities=(1.0, 0.75), batch_sizes=(2, 4)),
        defaults=dict(group_size=2, num_requests=40, num_clients=2, items_per_shard=120),
        point=lambda p, servers, locality, batch: dict(
            label=f"scaled-{servers}s-loc{locality}-b{batch}",
            deployment="scaled", num_servers=servers, txns_per_block=batch, ops_per_txn=2,
            locality=locality,
        ),
        smoke=lambda p: dict(
            server_counts=p.server_counts[:1], localities=p.localities[:1],
            batch_sizes=p.batch_sizes[:1], num_requests=min(p.num_requests, 16),
        ),
        reference=lambda config, p: replace(config, deployment="classic"),
        row=lambda result, baseline, *values: {
            **result.as_row(),
            "baseline tps": round(baseline.throughput_tps, 1),
            "speedup": round(_ratio(result, baseline), 2),
        },
    ),
    "scaleout": Sweep(
        doc="""Hundreds-of-groups ordering scale-out: shards x cross-shard traffic.

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
        throughputs deterministic for the baseline gate.""",
        axes=dict(cross_shard_ratios=(0.0, 0.1), shard_counts=(1, 4, 16)),
        defaults=dict(
            num_servers=128, group_size=1, items_per_shard=64, txns_per_block=16, ops_per_txn=2,
            num_clients=4, home_skew_theta=0.6, epoch_max_blocks=32,
            num_requests=None, fixed_compute_ms=None,
        ),
        point=lambda p, ratio, shards: dict(
            label=f"scaleout-{p.num_servers}s-sh{shards}-x{ratio}",
            deployment="scaled", locality=1.0 - ratio, ordering_shards=shards,
            num_requests=170_000 if p.num_requests is None else p.num_requests,
        ),
        prepare=lambda p: dict(shard_counts=tuple(sorted(p.shard_counts))),
        smoke=lambda p: dict(
            cross_shard_ratios=(
                tuple(r for r in p.cross_shard_ratios if r > 0)[:1] or p.cross_shard_ratios[:1]
            ),
            num_requests=38_400 if p.num_requests is None else p.num_requests,
        ),
        reference=lambda config, p: replace(config, ordering_shards=p.shard_counts[0]),
        row=lambda result, one_shard, ratio, shards: {
            "label": result.config.label,
            "servers": result.config.num_servers,
            "shards": shards,
            "cross ratio": ratio,
            "requests": result.config.num_requests,
            "committed": result.committed_txns,
            "groups": result.distinct_groups,
            "epochs": result.epochs,
            "throughput (txns/s)": round(result.throughput_tps, 1),
            "ordserv busy": round(result.ordering_busy_frac, 3),
            "speedup vs 1 shard": round(_ratio(result, one_shard), 2),
            "makespan (s)": round(result.total_time_s, 4),
        },
    ),
    "pipeline": Sweep(
        doc="""The event-driven pipelining sweep: depth x deployment x txns/block.

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
        every point's systems (``--trace``/``--metrics``).""",
        axes=dict(deployments=("classic", "scaled"), depths=(1, 2, 4), batch_sizes=(2, 4)),
        defaults=dict(num_servers=4, group_size=2, num_requests=32),
        point=lambda p, deployment, depth, batch: dict(
            label=f"pipeline-{deployment}-d{depth}-b{batch}",
            deployment=deployment, items_per_shard=200, txns_per_block=batch, ops_per_txn=2,
            pipeline_depth=depth, conflict_free_window=max(1, depth) * batch,
            fixed_compute_ms=1.0, audit=True,
            num_clients=2 if deployment == "scaled" else 1,
            group_size=p.group_size if deployment == "scaled" else 0,
        ),
        smoke=lambda p: dict(
            depths=tuple(d for d in p.depths if d >= 2)[:1] or (2,),
            batch_sizes=p.batch_sizes[:1], num_requests=min(p.num_requests, 16),
        ),
        reference=lambda config, p: replace(config, pipeline_depth=1),
        row=lambda result, sequential, deployment, depth, batch: {
            "label": result.config.label,
            "servers": result.config.num_servers,
            "deployment": deployment,
            "depth": depth,
            "txns/block": batch,
            "committed": result.committed_txns,
            "blocks": result.blocks,
            "throughput (txns/s)": round(result.throughput_tps, 1),
            "sequential tps": round(sequential.throughput_tps, 1),
            "speedup": round(_ratio(result, sequential), 3),
            "audit clean": result.auditor_clean and sequential.auditor_clean,
        },
        traced=True,
    ),
    "recovery": Sweep(
        doc="""Crash-recovery sweep: recovery latency vs missed-log length x checkpointing.

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
        size; ``smoke=True`` restricts the grid to one point per axis.""",
        axes=dict(
            store_kinds=("memory", "wal"), gap_requests=(8, 16, 32), checkpoint_intervals=(0, 1)
        ),
        defaults=dict(_CRASHED_CLUSTER, warmup_requests=8),
        point=lambda p, store_kind, gap, interval: dict(
            label=f"recovery-{store_kind}-gap{gap}-ckpt{interval}",
            deployment="scaled", ops_per_txn=2, num_requests=gap,
        ),
        prepare=lambda p: _deepest(p, "gap_requests"),
        smoke=lambda p: dict(
            gap_requests=p.gap_requests[:1], checkpoint_intervals=p.checkpoint_intervals[-1:]
        ),
        script=_crash_and_recover,
    ),
    "failover": Sweep(
        doc="""Coordinator-failover sweep: view-change cost vs outage depth.

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

        The workload is group-local where groups exist (``scaled``) and the plain
        YCSB mix where every round spans the cluster anyway (``classic``).
        ``num_requests`` (the CLI's ``--requests``) overrides the largest stall
        depth; ``smoke=True`` restricts the grid to the smallest depth per
        deployment (the CI configuration).""",
        axes=dict(deployments=("classic", "scaled"), stall_requests=(4, 8)),
        defaults=dict(_CRASHED_CLUSTER, warmup_requests=4, post_requests=4),
        point=lambda p, deployment, stall: dict(
            label=f"failover-{deployment}-stall{stall}",
            deployment=deployment, ops_per_txn=2, num_requests=stall,
            group_size=p.group_size if deployment == "scaled" else 0,
        ),
        prepare=lambda p: _deepest(p, "stall_requests"),
        smoke=lambda p: dict(stall_requests=p.stall_requests[:1]),
        script=_crash_and_fail_over,
    ),
    "ablation-latency": Sweep(
        doc="""LAN vs WAN latency: where TFCommit shifts from compute- to network-bound.""",
        fixed=dict(regimes=(("lan", lan_latency), ("wan", wan_latency))),
        defaults=dict(num_requests=60),
        point=lambda p, regime: dict(
            label=f"ablation-latency-{regime[0]}",
            num_servers=5, items_per_shard=1000, txns_per_block=20,
        ),
        script=_under_regime,
    ),
    "ablation-signing": Sweep(
        doc="""Real Schnorr vs keyed-hash message envelopes (co-signing always Schnorr).""",
        fixed=dict(schemes=("hash", "schnorr")),
        defaults=dict(num_requests=40),
        point=lambda p, scheme: dict(
            label=f"ablation-signing-{scheme}",
            num_servers=4, items_per_shard=500, txns_per_block=10, message_signing=scheme,
        ),
    ),
}
