"""Benchmark harness: regenerates every figure of the paper's evaluation.

* :mod:`repro.bench.harness` -- :func:`run` one experiment configuration and
  report throughput / latency with the simulated-time model of DESIGN.md.
* :mod:`repro.bench.experiments` -- the parameter sweeps behind Figures 12-15
  plus the ablation studies.
* :mod:`repro.bench.reporting` -- plain-text tables mirroring the paper's plots.
* ``python -m repro.bench <figure>`` -- command-line entry point.
"""

from repro.bench.harness import ExperimentConfig, ExperimentResult, run
from repro.bench.experiments import (
    faultmatrix,
    figure12_2pc_vs_tfcommit,
    figure13_txns_per_block,
    figure14_number_of_servers,
    figure15_items_per_shard,
    multiclient_scaling,
    scaledgroups,
)
from repro.bench.reporting import format_table, rows_to_csv

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "faultmatrix",
    "figure12_2pc_vs_tfcommit",
    "figure13_txns_per_block",
    "figure14_number_of_servers",
    "figure15_items_per_shard",
    "format_table",
    "multiclient_scaling",
    "rows_to_csv",
    "run",
    "scaledgroups",
]
