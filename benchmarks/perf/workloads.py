"""The five fixed-seed workloads of the wall-clock benchmark.

Every workload drives the system only through its public surface
(``repro.api``, the ``FidesSystem`` methods, ``Auditor.run_audit(logs=...)``,
``FileStateStore``, the ``recovery.wire`` decoders and the canonical codec)
and follows one life cycle that :mod:`run` times phase by phase::

    construct()  ->  generate()  ->  warmup()      # together: setup_s
    step(i, clock) for i in range(ops)             # the steady state
    verify()                                       # untimed correctness checks
    close()

``step`` wraps the calls it wants measured in ``clock.timed(series, fn, ...)``;
everything else in it (crashing a server, bookkeeping) is untimed.  Functions
of the program are called through their module (``wire.block_from_wire``), not
imported by name, so the tracer's wrappers are what a traced run calls.  The work
is a pure function of ``(seed, ops)``: the compute model is always
``FixedCompute`` and message delay lives on the virtual clock only, so the
schedule, block count, abort count and log head repeat exactly and wall time
measures the code and nothing else.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.api import (
    FidesSystem,
    ScaledFidesSystem,
    SystemConfig,
    sharded_sequencer,
    single_sequencer,
)
from repro.common import encoding
from repro.common.errors import FidesError
from repro.ledger.log import TransactionLog
from repro.recovery import FileStateStore, wire
from repro.sim.context import FixedCompute
from repro.workload.ycsb import PartitionedWorkload, YcsbWorkload

#: Every phase costs 1 ms of *virtual* time.  The default measured-compute
#: model feeds wall time back into the virtual schedule, which makes the work
#: done differ between runs.
COMPUTE_S = 0.001


@dataclass
class Tally:
    """What a run attempted and how it ended, summed over the steady state."""

    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    failed_txns: int = 0
    blocks_committed: int = 0
    blocks_aborted: int = 0
    audits: int = 0
    failed_audits: int = 0
    audited_blocks: int = 0
    audited_txns: int = 0
    recoveries: int = 0
    failed_recoveries: int = 0
    restored_blocks: int = 0
    fetched_blocks: int = 0
    problems: List[str] = field(default_factory=list)

    def add_workload_result(self, submitted: int, result) -> None:
        self.submitted += submitted
        self.committed += result.committed
        self.aborted += result.aborted
        self.failed_txns += result.failed
        for block_result in result.block_results:
            if block_result.status == "committed":
                self.blocks_committed += 1
            elif block_result.status == "aborted":
                self.blocks_aborted += 1

    @property
    def attempted(self) -> int:
        return self.submitted + self.audits + self.recoveries

    @property
    def failed(self) -> int:
        return self.failed_txns + self.failed_audits + self.failed_recoveries


class Workload:
    """Base class: one deployment, its generated inputs, and its steady-state op."""

    name = ""
    #: Calibration: ops this workload completes per second of steady state on
    #: the 2-core reference box at the commit that defined the benchmark.
    #: ``--seconds`` is turned into an op count with it, so the measured work
    #: -- not the clock -- is what two commits have in common.
    ops_per_second = 1.0

    def __init__(self, seed: int, ops: int, scratch: Path) -> None:
        self.seed = seed
        self.ops = ops
        self.scratch = scratch
        self.tally = Tally()
        self.system = None

    def construct(self) -> None:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed op.  The default suits workloads whose ``generate`` fills
        ``self.batches``: batch 0 warms up, batch ``i + 1`` is op ``i``."""
        self.system.run_workload(self.batches[0])

    def step(self, index: int, clock) -> None:
        self._commit(self.batches[index + 1], clock)

    def close(self) -> None:
        """Release what the workload opened (WAL files, temp directories)."""

    # -- shared helpers -----------------------------------------------------------

    def _commit(self, specs, clock) -> None:
        """One timed ``run_workload`` op; OCC aborts are outcomes, not failures."""
        result = clock.timed("op", self.system.run_workload, specs)
        self.tally.add_workload_result(len(specs), result)

    def log_head(self) -> str:
        """The common head hash of every live server's log, or '' if they differ."""
        heads = {
            server.log.head_hash
            for server in self.system.servers.values()
            if not server.crashed
        }
        return heads.pop().hex() if len(heads) == 1 else ""

    def wal_bytes(self) -> int:
        return sum(server.state_store.size_bytes() for server in self.system.servers.values())

    def counters(self) -> Dict[str, float]:
        """The system's always-on metric counters (cumulative since construction)."""
        return dict(self.system.sim.obs.metrics.snapshot()["counters"])

    def verify(self) -> List[str]:
        """Untimed end-of-run checks; returns one line per violation."""
        tally = self.tally
        problems = list(tally.problems)
        if tally.committed + tally.aborted + tally.failed_txns != tally.submitted:
            problems.append(
                f"accounting: {tally.committed} committed + {tally.aborted} aborted + "
                f"{tally.failed_txns} failed != {tally.submitted} submitted"
            )
        if not self.log_head():
            problems.append("live servers disagree on the log head")
        report = self.system.audit()
        if not report.ok:
            problems.append(f"final audit: {[v.summary() for v in report.violations[:3]]}")
        return problems


def _batches(specs, size: int):
    return [specs[i : i + size] for i in range(0, len(specs), size)]


class ClassicBatched(Workload):
    """The paper's default shape: one designated coordinator, one block per op."""

    name = "classic_batched"
    ops_per_second = 17.0
    items_per_shard = 10_000
    txns_per_block = 20
    message_signing = "hash"

    def construct(self) -> None:
        config = SystemConfig(
            num_servers=5,
            items_per_shard=self.items_per_shard,
            txns_per_block=self.txns_per_block,
            ops_per_txn=5,
            message_signing=self.message_signing,
            seed=self.seed,
        )
        self.system = FidesSystem(config, compute_model=FixedCompute(COMPUTE_S))

    def generate(self) -> None:
        generator = YcsbWorkload(
            item_ids=self.system.shard_map.all_items(),
            ops_per_txn=5,
            conflict_free_window=self.txns_per_block,
            seed=self.seed,
        )
        specs = generator.generate(self.txns_per_block * (self.ops + 1))
        self.batches = _batches(specs, self.txns_per_block)


class ClassicSigned(ClassicBatched):
    """One Schnorr-signed TFCommit round per op: crypto-bound and latency-shaped."""

    name = "classic_signed"
    ops_per_second = 17.0
    items_per_shard = 1_000
    txns_per_block = 1
    message_signing = "schnorr"


class ScaledWorkload(Workload):
    """What the three scaled deployments share: single-server dynamic groups,
    1 000 items/shard, 2 ops/txn, 4 txns/block, hash envelopes."""

    num_servers = 8
    txns_per_block = 4

    def _build(self, sequencer, state_store_factory=None) -> None:
        config = SystemConfig(
            num_servers=self.num_servers,
            items_per_shard=1_000,
            txns_per_block=self.txns_per_block,
            ops_per_txn=2,
            multi_versioned=False,
            message_signing="hash",
            seed=self.seed,
        )
        self.system = ScaledFidesSystem(
            config,
            compute_model=FixedCompute(COMPUTE_S),
            sequencer=sequencer,
            state_store_factory=state_store_factory,
        )

    def _generator(self, server_ids, locality: float, seed: int) -> PartitionedWorkload:
        """Transactions homed round-robin on ``server_ids``, one partition per server."""
        return PartitionedWorkload(
            partitions=[self.system.shard_map.items_of(sid) for sid in server_ids],
            ops_per_txn=2,
            locality=locality,
            conflict_free_window=self.txns_per_block,
            seed=seed,
        )


class ScaledSharded(ScaledWorkload):
    """32 groups over 4 ordering lanes; op = one full block per group."""

    name = "scaled_sharded"
    ops_per_second = 2.4
    num_servers = 32
    chunk_txns = 128

    def construct(self) -> None:
        self._build(sharded_sequencer(4))

    def generate(self) -> None:
        generator = self._generator(self.system.config.server_ids, 0.9, self.seed)
        specs = generator.generate(self.chunk_txns * (self.ops + 1))
        self.batches = _batches(specs, self.chunk_txns)


class AuditCold(ScaledWorkload):
    """Every op rebuilds all 8 logs from exported bytes and audits them cold."""

    name = "audit_cold"
    ops_per_second = 1.5
    log_txns = 256
    tampered_server = "s3"

    def construct(self) -> None:
        self._build(sharded_sequencer(4))

    def generate(self) -> None:
        generator = self._generator(self.system.config.server_ids, 0.9, self.seed)
        self.specs = generator.generate(self.log_txns)

    def warmup(self) -> None:
        """Produce the reference log, export it as bytes, and run one cold audit."""
        produced = self.system.run_workload(self.specs)
        if produced.failed:
            self.tally.problems.append(f"{produced.failed} txns failed while producing the log")
        self.exported_logs = {
            server_id: encoding.canonical_encode([block.to_wire() for block in log])
            for server_id, log in self.system.collect_logs().items()
        }
        self.exported_anchors = encoding.canonical_encode(
            [anchor.to_wire() for anchor in self.system.ordering.epoch_anchors]
        )
        self.log_blocks = self.system.servers[self.system.config.server_ids[0]].log.height
        self._decode_and_audit()

    def _decode(self):
        logs = {
            server_id: TransactionLog(
                [wire.block_from_wire(block) for block in encoding.canonical_decode(blob)]
            )
            for server_id, blob in self.exported_logs.items()
        }
        anchors = [
            wire.epoch_anchor_from_wire(anchor)
            for anchor in encoding.canonical_decode(self.exported_anchors)
        ]
        return logs, anchors

    def _audit(self, logs, anchors):
        return self.system.auditor().run_audit(
            logs=logs,
            epoch_anchors=anchors,
            ordering_shard_map=self.system.ordering.shard_map,
        )

    def _decode_and_audit(self):
        return self._audit(*self._decode())

    def step(self, index: int, clock) -> None:
        report = clock.timed("op", self._decode_and_audit)
        self.tally.audits += 1
        self.tally.audited_blocks += report.blocks_audited
        self.tally.audited_txns += report.transactions_audited
        if not report.ok or report.blocks_audited != self.log_blocks:
            self.tally.failed_audits += 1

    def verify(self) -> List[str]:
        """A faster auditor that skips a check must fail here: a copy with one
        block swapped has to come back not-ok and name the server holding it."""
        problems = super().verify()
        logs, anchors = self._decode()
        forged = logs[self.tampered_server]
        forged.tamper_replace(forged.height // 2, forged[forged.height // 2 - 1])
        report = self._audit(logs, anchors)
        if report.ok or self.tampered_server not in report.culprit_servers():
            problems.append(
                f"tampered copy on {self.tampered_server} not detected "
                f"(ok={report.ok}, culprits={report.culprit_servers()})"
            )
        return problems


class WalRecovery(ScaledWorkload):
    """Commit through a file WAL, then crash, restore and catch up, in cycles."""

    name = "wal_recovery"
    ops_per_second = 3.5
    warmup_txns = 128
    cycle_txns = 56
    wal_dir = None

    def construct(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.wal_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=self.scratch))
        # Flush policy, fixed: FileStateStore flushes and fsyncs every record,
        # i.e. one fsync per applied block per server.
        self._build(
            single_sequencer(0),
            lambda sid: FileStateStore(str(self.wal_dir / f"{sid}.wal")),
        )

    def _victim(self, index: int) -> str:
        """The server crashed in cycle ``index``: rotates over s1..s7."""
        server_ids = self.system.config.server_ids
        return server_ids[1 + index % (len(server_ids) - 1)]

    def generate(self) -> None:
        server_ids = self.system.config.server_ids
        self.warmup_specs = self._generator(server_ids, 1.0, self.seed).generate(
            self.warmup_txns
        )
        self.cycles = []
        for index in range(self.ops):
            survivors = [sid for sid in server_ids if sid != self._victim(index)]
            generator = self._generator(survivors, 1.0, self.seed + index + 1)
            self.cycles.append(generator.generate(self.cycle_txns))

    def warmup(self) -> None:
        self.system.run_workload(self.warmup_specs)

    def step(self, index: int, clock) -> None:
        victim = self._victim(index)
        self.system.crash_server(victim)
        self._commit(self.cycles[index], clock)
        self.tally.recoveries += 1
        try:
            result = clock.timed("recover", self.system.recover_server, victim)
        except (FidesError, OSError) as exc:  # a recovery that raises is a failed operation
            self.tally.failed_recoveries += 1
            self.tally.problems.append(f"recovery of {victim} raised {exc!r}")
            return
        self.tally.restored_blocks += result.restored_blocks
        self.tally.fetched_blocks += result.fetched_blocks
        recovered = self.system.servers[victim].log
        peer = self.system.servers[self.system.config.server_ids[0]].log
        if recovered.height != peer.height or recovered.head_hash != peer.head_hash:
            self.tally.failed_recoveries += 1
            self.tally.problems.append(f"{victim} rejoined behind its peers")

    def close(self) -> None:
        if self.system is not None:
            for server in self.system.servers.values():
                server.state_store.close()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (ClassicBatched, ClassicSigned, ScaledSharded, AuditCold, WalRecovery)
}
