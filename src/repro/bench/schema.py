"""The canonical benchmark-report schema and the JSON report builder.

Every ``python -m repro.bench <sweep> --json PATH`` invocation emits one
report in this schema; ``tests/bench/test_sweep_rows.py`` pins the rows and
``metrics`` blocks of the reports it builds (DESIGN.md section 7, "One
contract").

Schema (version 1)::

    {
      "schema_version": 1,
      "sweep": "<the sweep's key in SWEEPS>",
      "commit": "<git SHA or 'unknown'>",
      "config": {"num_requests": ..., "smoke": ..., "fixed_compute_ms": ...},
      "rows": [...],                      # the sweep's table rows, verbatim
      "metrics": {
        "labels": {"<row label>": {"throughput_tps": .., "latency_ms": ..}},
        "throughput_tps": {"mean": .., "min": ..},
        "latency_ms": {"p50": .., "p95": .., "p99": ..}
      },
      "attribution": {...}                # optional; traced runs only
    }

The optional ``attribution`` block (present when the sweep ran with the
observability bundle attached, i.e. ``--trace``/``--metrics``) is the
per-phase / per-subsystem breakdown built by
:meth:`repro.obs.Observability.attribution`: summed virtual-time seconds
per protocol phase, wall-clock crypto/storage totals, byte counts, and the
full metrics snapshot.

Every throughput-reporting sweep uses the one ``throughput (txns/s)``
column of :meth:`~repro.bench.harness.ExperimentResult.as_row`; latency is
``txn latency (ms)`` or, for the recovery sweep, ``recover (ms)``.
:func:`summarize_rows` lifts them into the ``metrics`` block that tier-1
pins and anyone plotting trajectories across sweeps reads.  Fault-matrix
rows carry neither metric; their report has an empty ``labels`` map.
"""

from __future__ import annotations

import subprocess
from typing import Dict, List, Optional, Sequence

SCHEMA_VERSION = 1

#: The column carrying a row's throughput.
THROUGHPUT_COLUMNS = ("throughput (txns/s)",)
#: Column names carrying a row's headline latency, in priority order.
LATENCY_COLUMNS = ("txn latency (ms)", "recover (ms)")
#: Latency-percentile columns (present on the classic experiment rows).
PERCENTILE_COLUMNS = {
    "p50": "txn p50 (ms)",
    "p95": "txn p95 (ms)",
    "p99": "txn p99 (ms)",
}


def current_commit() -> str:
    """The repository's HEAD SHA, or ``"unknown"`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def _first_number(row: Dict[str, object], columns: Sequence[str]) -> Optional[float]:
    for column in columns:
        value = row.get(column)
        if isinstance(value, bool) or value is None:
            continue
        try:
            return float(value)
        except (TypeError, ValueError):
            continue
    return None


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def summarize_rows(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Normalise a sweep's rows into the canonical ``metrics`` block."""
    labels: Dict[str, Dict[str, Optional[float]]] = {}
    throughputs: List[float] = []
    latencies: Dict[str, List[float]] = {"p50": [], "p95": [], "p99": []}
    for index, row in enumerate(rows):
        label = str(row.get("label", f"row-{index}"))
        throughput = _first_number(row, THROUGHPUT_COLUMNS)
        latency = _first_number(row, LATENCY_COLUMNS)
        if throughput is None and latency is None:
            continue
        labels[label] = {"throughput_tps": throughput, "latency_ms": latency}
        if throughput is not None:
            throughputs.append(throughput)
        for name, column in PERCENTILE_COLUMNS.items():
            value = _first_number(row, (column,))
            if value is not None:
                latencies[name].append(value)
    return {
        "labels": labels,
        "throughput_tps": {
            "mean": _mean(throughputs),
            "min": min(throughputs) if throughputs else None,
        },
        "latency_ms": {name: _mean(values) for name, values in latencies.items()},
    }


def canonical_report(
    sweep: str,
    rows: Sequence[Dict[str, object]],
    config: Optional[Dict[str, object]] = None,
    attribution: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Build one canonical report dict for a finished sweep.

    ``attribution`` (traced runs only) adds the per-phase / per-subsystem
    block; untraced reports omit the key entirely so their JSON is
    byte-identical to pre-tracing reports.
    """
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "sweep": sweep,
        "commit": current_commit(),
        "config": dict(config or {}),
        "rows": list(rows),
        "metrics": summarize_rows(rows),
    }
    if attribution is not None:
        report["attribution"] = attribution
    return report

