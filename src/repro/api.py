"""The supported public surface of the reproduction.

Everything an external caller -- a notebook, a script, the examples under
``examples/`` -- needs lives behind this one module, so internal layout can
keep moving without breaking users:

- **Deployments**: :class:`FidesSystem` (classic single-coordinator
  TFCommit, plus the 2PC baseline via ``protocol="2pc"``) and
  :class:`ScaledFidesSystem` (the same system wired with dynamic groups
  and the ordering service that merges their blocks -- one ``fail_over``,
  ``flush``, ``audit`` for both), configured with :class:`SystemConfig`.
- **Ordering** (DESIGN.md §5): the one lane-based :class:`OrderingService`
  and its two settings, :func:`single_sequencer` (one lane with a reorder
  window) and :func:`sharded_sequencer` (one lane per ordering shard of an
  :class:`OrderingShardMap`, sealing :class:`EpochAnchor` chains) -- the
  factories ``ScaledFidesSystem(sequencer=...)`` accepts.  The finalized
  stream is a list of :class:`OrderedBlock`.
- **Fault injection**: ``system.inject_fault(server_id, plans)`` takes
  :class:`FaultPlan` rows -- which fault, which server, when (a trigger
  spec), with what parameters; an empty list makes the server honest again.
- **Experiments**: :func:`run` executes one :class:`ExperimentConfig` point
  and returns an :class:`ExperimentResult`; ``config.deployment`` picks the
  deployment.  It is the only runner: a comparison is two ``run`` calls.
  The paper's figures are grids of such points, declared as rows of
  ``repro.bench.SWEEPS`` and run by ``repro.bench.run_sweep(name, ...)``.

Quickstart::

    from repro.api import ExperimentConfig, run

    result = run(ExperimentConfig(num_servers=5, num_requests=50))
    print(result.throughput_tps)

Scale-out (paper §4.6 + ordering shards)::

    from repro.api import ScaledFidesSystem, SystemConfig, sharded_sequencer

    system = ScaledFidesSystem(
        SystemConfig(num_servers=8, items_per_shard=100, txns_per_block=2),
        sequencer=sharded_sequencer(4),
    )
"""

from __future__ import annotations

from repro.audit.auditor import Auditor
from repro.audit.report import AuditReport
from repro.bench.harness import ExperimentConfig, ExperimentResult, run
from repro.common.config import SystemConfig
from repro.core.fides import FidesSystem
from repro.core.scaled import ScaledFidesSystem
from repro.core.sequencing import (
    OrderedBlock,
    OrderingService,
    OrderingShardMap,
    SequencerFactory,
    sharded_sequencer,
    single_sequencer,
)
from repro.ledger.anchor import EpochAnchor
from repro.server.faults import FaultPlan

__all__ = [
    "AuditReport",
    "Auditor",
    "EpochAnchor",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultPlan",
    "FidesSystem",
    "OrderedBlock",
    "OrderingService",
    "OrderingShardMap",
    "ScaledFidesSystem",
    "SequencerFactory",
    "SystemConfig",
    "run",
    "sharded_sequencer",
    "single_sequencer",
]
