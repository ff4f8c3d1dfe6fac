"""Benchmark harness: regenerates every figure of the paper's evaluation.

* :mod:`repro.bench.harness` -- :func:`run` one experiment configuration and
  report throughput / latency with the simulated-time model of DESIGN.md.
* :mod:`repro.bench.experiments` -- :data:`SWEEPS`, the parameter sweeps
  behind Figures 12-15 plus the ablation studies as one declared table, and
  :func:`run_sweep`, which runs a row of it:
  ``run_sweep("figure13", batch_sizes=(2, 20), num_requests=40)``.
* :mod:`repro.bench.reporting` -- plain-text tables mirroring the paper's plots.
* ``python -m repro.bench <sweep>`` -- command-line entry point.
"""

from repro.bench.harness import ExperimentConfig, ExperimentResult, run
from repro.bench.experiments import SWEEPS, run_sweep
from repro.bench.reporting import format_table, rows_to_csv

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "SWEEPS",
    "format_table",
    "rows_to_csv",
    "run",
    "run_sweep",
]
