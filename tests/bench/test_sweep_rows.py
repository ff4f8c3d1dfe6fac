"""What every sweep's report says, pinned *across commits*.

``tests/bench/test_experiments.py`` checks that the sweeps run; this file
pins what they report, so a change to how the sweeps are written (not to
what they measure) must reproduce every literal below untouched.  Each case
is one ``python -m repro.bench`` command line, reached only through
``main([..., "--json", path])``: the thirteen sweeps at the smallest grid
the CLI offers, plus the full grid of the five that have a ``--smoke``
reduction and the ``--smoke`` grid of ``scaleout``.  Per case the literal
holds the report's ``config`` block, the column names in order and every
row, with ``...`` in the cells that depend on measured wall time:

- ``WALL_CLOCK`` columns are stopwatch readings (or, for the view change's
  virtual time, built on a measured compute charge) in every run;
- ``MEASURED_COMPUTE`` columns follow the simulated-time model, which charges
  measured compute unless the run fixes it (``--fixed-compute-ms``; the
  ``pipeline`` sweep always does), so they are pinned in those runs only.

``GATED_METRICS`` is the full ``metrics`` block of the four fixed-compute
invocations whose throughputs are the virtual-time model's contract
(DESIGN.md section 7, "One contract"): every label, throughput, latency and
aggregate exactly.  The ``reports`` fixture (``conftest.py``) runs each case
once a session, so the paper's claims in ``test_experiments.py`` read the
same reports.

Refresh the literals only for an *intended* change to a sweep's grid, labels,
columns or timing model, by running this file as a script (it prints them).
"""

from __future__ import annotations

import json
import pprint

import pytest

from repro.bench.__main__ import main

#: case id -> the command line (without ``--json PATH``).
CASES = {
    "figure12": ["figure12", "--requests", "2"],
    "figure13": ["figure13", "--requests", "24", "--fixed-compute-ms", "1"],
    "figure14": ["figure14", "--requests", "2"],
    "figure15": ["figure15", "--requests", "2"],
    "multiclient": ["multiclient", "--requests", "16", "--fixed-compute-ms", "1"],
    "faultmatrix": ["faultmatrix", "--requests", "2", "--smoke"],
    "faultmatrix-full": ["faultmatrix", "--requests", "2"],
    "scaledgroups": ["scaledgroups", "--smoke"],
    "scaledgroups-full": ["scaledgroups", "--requests", "8"],
    "scaleout": ["scaleout", "--requests", "384", "--fixed-compute-ms", "1"],
    "scaleout-smoke": ["scaleout", "--smoke", "--requests", "128", "--fixed-compute-ms", "1"],
    "pipeline": ["pipeline", "--smoke"],
    "pipeline-full": ["pipeline", "--requests", "8"],
    "recovery": ["recovery", "--smoke"],
    "recovery-full": ["recovery", "--requests", "4"],
    "failover": ["failover", "--smoke"],
    "failover-full": ["failover", "--requests", "2"],
    "ablation-latency": ["ablation-latency", "--requests", "2"],
    "ablation-signing": ["ablation-signing", "--requests", "2"],
}

#: The four invocations whose whole ``metrics`` block is pinned.
GATED = ("pipeline", "multiclient", "figure13", "scaleout")

WALL_CLOCK = frozenset(
    {
        "MHT update (ms)",
        "crypto (ms)",
        "recover (ms)",
        "workload (s)",
        "view change (virtual ms)",
        "view change (wall ms)",
        "audit (ms)",
        "audit overhead (x)",
    }
)
MEASURED_COMPUTE = frozenset(
    {
        "throughput (txns/s)",
        "txn latency (ms)",
        "txn p50 (ms)",
        "txn p95 (ms)",
        "txn p99 (ms)",
        "block latency (ms)",
        "baseline tps",
        "speedup",
    }
)


def unpinned_columns(argv):
    fixed_compute = "--fixed-compute-ms" in argv or argv[0] == "pipeline"
    return WALL_CLOCK if fixed_compute else WALL_CLOCK | MEASURED_COMPUTE


def run_case(case, directory):
    """The parsed ``--json`` report of one case's command line."""
    path = directory / f"{case}.json"
    assert main([*CASES[case], "--json", str(path)]) == 0
    return json.loads(path.read_text())


def pin_of(case, report):
    """The pinned view of a report: config, columns, rows with ``...`` cells."""
    unpinned = unpinned_columns(CASES[case])
    columns = tuple(report["rows"][0])
    return {
        "config": report["config"],
        "columns": columns,
        "rows": [
            tuple(... if column in unpinned else row[column] for column in columns)
            for row in report["rows"]
        ],
    }


PINS = {
    'figure12': {
        'config': {'num_requests': 2},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)'),
        'rows': [
            ('fig12-2pc-3s', '2pc', 3, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 0, ...),
            ('fig12-2pc-4s', '2pc', 4, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 0, ...),
            ('fig12-2pc-5s', '2pc', 5, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 0, ...),
            ('fig12-2pc-6s', '2pc', 6, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 0, ...),
            ('fig12-2pc-7s', '2pc', 7, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 0, ...),
            ('fig12-tfcommit-3s', 'tfcommit', 3, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 46, ...),
            ('fig12-tfcommit-4s', 'tfcommit', 4, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 45, ...),
            ('fig12-tfcommit-5s', 'tfcommit', 5, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 51, ...),
            ('fig12-tfcommit-6s', 'tfcommit', 6, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 47.5, ...),
            ('fig12-tfcommit-7s', 'tfcommit', 7, 1000, 1, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 45.5, ...),
        ],
    },
    'figure13': {
        'config': {'num_requests': 24, 'fixed_compute_ms': 1.0},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)'),
        'rows': [
            ('fig13-batch-2', 'tfcommit', 5, 1000, 2, 24, 1, 24, 249.8, 4.004, 3.997, 4.145, 4.145, 8.007, ..., 97.8, ...),
            ('fig13-batch-20', 'tfcommit', 5, 1000, 20, 24, 1, 24, 1477.3, 1.215, 0.408, 2.021, 2.021, 8.123, ..., 427.5, ...),
            ('fig13-batch-40', 'tfcommit', 5, 1000, 40, 40, 1, 40, 5062.4, 0.198, 0.198, 0.198, 0.198, 7.901, ..., 1145, ...),
            ('fig13-batch-60', 'tfcommit', 5, 1000, 60, 60, 1, 60, 7557.5, 0.132, 0.132, 0.132, 0.132, 7.939, ..., 1591, ...),
            ('fig13-batch-80', 'tfcommit', 5, 1000, 80, 80, 1, 80, 9757.5, 0.102, 0.102, 0.102, 0.102, 8.199, ..., 1976, ...),
            ('fig13-batch-100', 'tfcommit', 5, 1000, 100, 100, 1, 100, 12244.8, 0.082, 0.082, 0.082, 0.082, 8.167, ..., 2323, ...),
            ('fig13-batch-120', 'tfcommit', 5, 1000, 120, 120, 1, 120, 14605.3, 0.068, 0.068, 0.068, 0.068, 8.216, ..., 2647, ...),
        ],
    },
    'figure14': {
        'config': {'num_requests': 2},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)'),
        'rows': [
            ('fig14-3s', 'tfcommit', 3, 1000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 87, ...),
            ('fig14-4s', 'tfcommit', 4, 1000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 89, ...),
            ('fig14-5s', 'tfcommit', 5, 1000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 95, ...),
            ('fig14-6s', 'tfcommit', 6, 1000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 91, ...),
            ('fig14-7s', 'tfcommit', 7, 1000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 91, ...),
            ('fig14-8s', 'tfcommit', 8, 1000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 93, ...),
            ('fig14-9s', 'tfcommit', 9, 1000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 102, ...),
        ],
    },
    'figure15': {
        'config': {'num_requests': 2},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)'),
        'rows': [
            ('fig15-1000items', 'tfcommit', 5, 1000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 95, ...),
            ('fig15-2000items', 'tfcommit', 5, 2000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 105, ...),
            ('fig15-3000items', 'tfcommit', 5, 3000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 109, ...),
            ('fig15-4000items', 'tfcommit', 5, 4000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 115, ...),
            ('fig15-5000items', 'tfcommit', 5, 5000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 118, ...),
            ('fig15-6000items', 'tfcommit', 5, 6000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 119, ...),
            ('fig15-7000items', 'tfcommit', 5, 7000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 130, ...),
            ('fig15-8000items', 'tfcommit', 5, 8000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 125, ...),
            ('fig15-9000items', 'tfcommit', 5, 9000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 129, ...),
            ('fig15-10000items', 'tfcommit', 5, 10000, 100, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 128, ...),
        ],
    },
    'multiclient': {
        'config': {'num_requests': 16, 'fixed_compute_ms': 1.0},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)'),
        'rows': [
            ('multiclient-1c', 'tfcommit', 5, 1000, 8, 16, 1, 16, 1002.2, 0.998, 0.995, 1.001, 1.001, 7.982, ..., 317, ...),
            ('multiclient-2c', 'tfcommit', 5, 1000, 8, 16, 2, 16, 1002.2, 0.998, 0.995, 1.001, 1.001, 7.982, ..., 317, ...),
            ('multiclient-4c', 'tfcommit', 5, 1000, 8, 16, 4, 16, 1002.2, 0.998, 0.995, 1.001, 1.001, 7.982, ..., 317, ...),
            ('multiclient-8c', 'tfcommit', 5, 1000, 8, 16, 8, 16, 1002.2, 0.998, 0.995, 1.001, 1.001, 7.982, ..., 317, ...),
        ],
    },
    'faultmatrix': {
        'config': {'num_requests': 2, 'smoke': True},
        'columns': ('scenario', 'faults', 'targets', 'expected', 'detected', 'detected by', 'culprit ok', 'culprits', 'fault@block', 'blocks-to-detect', 'view change', 'recovered', 'audit (ms)', 'audit overhead (x)', 'committed'),
        'rows': [
            ('read-corruption@always', 'read-corruption', 's1', 'incorrect-read', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('drop-write@always', 'drop-write', 's1', 'datastore-corruption', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('skip-validation@always', 'skip-validation', 's1', 'isolation-violation', True, 'audit', True, 's1', 1, 0, '-', '-', ..., ..., 2),
            ('corrupt-root@always', 'corrupt-root', 's1', 'datastore-corruption', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('post-commit-corruption@always', 'post-commit-corruption', 's1', 'datastore-corruption', True, 'audit', True, 's1', 0, 1, '-', '-', ..., ..., 2),
            ('corrupt-commitment@always', 'corrupt-commitment', 's1', 'protocol', True, 'protocol', True, 's1', 0, 0, '-', '-', ..., ..., 0),
            ('corrupt-response@always', 'corrupt-response', 's1', 'protocol', True, 'protocol', True, 's1', 0, 0, '-', '-', ..., ..., 0),
            ('equivocate@always', 'equivocate', 's0', 'protocol', True, 'protocol', True, 's0', 0, 0, '-', '-', ..., ..., 0),
            ('fake-root@always', 'fake-root', 's0', 'protocol', True, 'protocol', True, 's0', 1, 0, '-', '-', ..., ..., 2),
            ('drop-root-collusion@always', 'drop-root+collude', 's0+s1', 'malformed-block', True, 'audit', True, 's1', 0, 1, '-', '-', ..., ..., 2),
            ('log-tamper@always', 'log-tamper', 's1', 'log-tampered', True, 'audit', True, 's1', 0, 2, '-', '-', ..., ..., 2),
            ('log-truncate@always', 'log-truncate', 's1', 'log-incomplete', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('fork-decision@always', 'fork-decision', 's1', 'atomicity-violation', True, 'audit', True, 's1', 0, 2, '-', '-', ..., ..., 2),
            ('forge-cosign@always', 'forge-cosign', 's1', 'invalid-cosign', True, 'audit', True, 's1', 0, 2, '-', '-', ..., ..., 2),
            ('anchor-tamper@always', 'anchor-tamper', 'ordserv', 'epoch-anchor-mismatch', True, 'audit', True, 'ordserv', '-', 0, '-', '-', ..., ..., 2),
            ('crash@always', 'crash', 's1', 'liveness', True, 'liveness', True, 's1', 0, 0, '-', '-', ..., ..., 0),
            ('tampered-catchup@always', 'crash+tamper-catchup', 's2+s1', 'liveness', True, 'liveness', True, 's2,s1', 0, 0, '-', '-', ..., ..., 2),
            ('coordinator-crash@always', 'coordinator-crash', 's0', 'liveness', True, 'liveness', True, 's0', 0, 0, 's1@v1', True, ..., ..., 0),
            ('byzantine-coordinator@always', 'byzantine-coordinator', 's0', 'protocol', True, 'protocol', True, 's0', 0, 0, 's1@v1', True, ..., ..., 0),
        ],
    },
    'faultmatrix-full': {
        'config': {'num_requests': 2},
        'columns': ('scenario', 'faults', 'targets', 'expected', 'detected', 'detected by', 'culprit ok', 'culprits', 'fault@block', 'blocks-to-detect', 'view change', 'recovered', 'audit (ms)', 'audit overhead (x)', 'committed'),
        'rows': [
            ('read-corruption@always', 'read-corruption', 's1', 'incorrect-read', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('drop-write@always', 'drop-write', 's1', 'datastore-corruption', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('skip-validation@always', 'skip-validation', 's1', 'isolation-violation', True, 'audit', True, 's1', 1, 0, '-', '-', ..., ..., 2),
            ('corrupt-root@always', 'corrupt-root', 's1', 'datastore-corruption', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('post-commit-corruption@always', 'post-commit-corruption', 's1', 'datastore-corruption', True, 'audit', True, 's1', 0, 1, '-', '-', ..., ..., 2),
            ('corrupt-commitment@always', 'corrupt-commitment', 's1', 'protocol', True, 'protocol', True, 's1', 0, 0, '-', '-', ..., ..., 0),
            ('corrupt-response@always', 'corrupt-response', 's1', 'protocol', True, 'protocol', True, 's1', 0, 0, '-', '-', ..., ..., 0),
            ('equivocate@always', 'equivocate', 's0', 'protocol', True, 'protocol', True, 's0', 0, 0, '-', '-', ..., ..., 0),
            ('fake-root@always', 'fake-root', 's0', 'protocol', True, 'protocol', True, 's0', 1, 0, '-', '-', ..., ..., 2),
            ('drop-root-collusion@always', 'drop-root+collude', 's0+s1', 'malformed-block', True, 'audit', True, 's1', 0, 1, '-', '-', ..., ..., 2),
            ('log-tamper@always', 'log-tamper', 's1', 'log-tampered', True, 'audit', True, 's1', 0, 2, '-', '-', ..., ..., 2),
            ('log-truncate@always', 'log-truncate', 's1', 'log-incomplete', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('fork-decision@always', 'fork-decision', 's1', 'atomicity-violation', True, 'audit', True, 's1', 0, 2, '-', '-', ..., ..., 2),
            ('forge-cosign@always', 'forge-cosign', 's1', 'invalid-cosign', True, 'audit', True, 's1', 0, 2, '-', '-', ..., ..., 2),
            ('anchor-tamper@always', 'anchor-tamper', 'ordserv', 'epoch-anchor-mismatch', True, 'audit', True, 'ordserv', '-', 0, '-', '-', ..., ..., 2),
            ('crash@always', 'crash', 's1', 'liveness', True, 'liveness', True, 's1', 0, 0, '-', '-', ..., ..., 0),
            ('tampered-catchup@always', 'crash+tamper-catchup', 's2+s1', 'liveness', True, 'liveness', True, 's2,s1', 0, 0, '-', '-', ..., ..., 2),
            ('coordinator-crash@always', 'coordinator-crash', 's0', 'liveness', True, 'liveness', True, 's0', 0, 0, 's1@v1', True, ..., ..., 0),
            ('byzantine-coordinator@always', 'byzantine-coordinator', 's0', 'protocol', True, 'protocol', True, 's0', 0, 0, 's1@v1', True, ..., ..., 0),
            ('read-corruption@at-height-2', 'read-corruption', 's1', 'incorrect-read', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('drop-write@at-height-2', 'drop-write', 's1', 'datastore-corruption', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('skip-validation@at-height-2', 'skip-validation', 's1', 'isolation-violation', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('corrupt-root@at-height-2', 'corrupt-root', 's1', 'datastore-corruption', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('post-commit-corruption@at-height-2', 'post-commit-corruption', 's1', 'datastore-corruption', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('corrupt-commitment@at-height-2', 'corrupt-commitment', 's1', 'protocol', True, 'protocol', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('corrupt-response@at-height-2', 'corrupt-response', 's1', 'protocol', True, 'protocol', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('equivocate@at-height-2', 'equivocate', 's0', 'protocol', True, 'protocol', True, 's0', 2, 0, '-', '-', ..., ..., 2),
            ('fake-root@at-height-2', 'fake-root', 's0', 'protocol', True, 'protocol', True, 's0', 2, 0, '-', '-', ..., ..., 2),
            ('drop-root-collusion@at-height-2', 'drop-root+collude', 's0+s1', 'malformed-block', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('log-tamper@at-height-2', 'log-tamper', 's1', 'log-tampered', True, 'audit', True, 's1', 2, 2, '-', '-', ..., ..., 2),
            ('log-truncate@at-height-2', 'log-truncate', 's1', 'log-incomplete', True, 'audit', True, 's1', 2, 1, '-', '-', ..., ..., 2),
            ('fork-decision@at-height-2', 'fork-decision', 's1', 'atomicity-violation', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('forge-cosign@at-height-2', 'forge-cosign', 's1', 'invalid-cosign', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('anchor-tamper@at-height-2', 'anchor-tamper', 'ordserv', 'epoch-anchor-mismatch', True, 'audit', True, 'ordserv', '-', 0, '-', '-', ..., ..., 2),
            ('crash@at-height-2', 'crash', 's1', 'liveness', True, 'liveness', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('tampered-catchup@at-height-2', 'crash+tamper-catchup', 's2+s1', 'liveness', True, 'liveness', True, 's2', 0, 0, '-', '-', ..., ..., 2),
            ('coordinator-crash@at-height-2', 'coordinator-crash', 's0', 'liveness', True, 'liveness', True, 's0', 2, 0, 's1@v1', True, ..., ..., 2),
            ('byzantine-coordinator@at-height-2', 'byzantine-coordinator', 's0', 'protocol', False, '-', False, '-', '-', '-', 's1@v1', True, ..., ..., 2),
            ('read-corruption@p50', 'read-corruption', 's1', 'incorrect-read', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('drop-write@p50', 'drop-write', 's1', 'datastore-corruption', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('skip-validation@p50', 'skip-validation', 's1', 'isolation-violation', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('corrupt-root@p50', 'corrupt-root', 's1', 'datastore-corruption', True, 'audit', True, 's1', 2, 0, '-', '-', ..., ..., 2),
            ('post-commit-corruption@p50', 'post-commit-corruption', 's1', 'datastore-corruption', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('corrupt-commitment@p50', 'corrupt-commitment', 's1', 'protocol', True, 'protocol', True, 's1', 1, 0, '-', '-', ..., ..., 2),
            ('corrupt-response@p50', 'corrupt-response', 's1', 'protocol', True, 'protocol', True, 's1', 1, 0, '-', '-', ..., ..., 2),
            ('equivocate@p50', 'equivocate', 's0', 'protocol', True, 'protocol', True, 's0', 1, 0, '-', '-', ..., ..., 2),
            ('fake-root@p50', 'fake-root', 's0', 'protocol', True, 'protocol', True, 's0', 2, 0, '-', '-', ..., ..., 2),
            ('drop-root-collusion@p50', 'drop-root+collude', 's0+s1', 'malformed-block', True, 'audit', True, 's1', 1, 0, '-', '-', ..., ..., 2),
            ('log-tamper@p50', 'log-tamper', 's1', 'log-tampered', True, 'audit', True, 's1', 1, 2, '-', '-', ..., ..., 2),
            ('log-truncate@p50', 'log-truncate', 's1', 'log-incomplete', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('fork-decision@p50', 'fork-decision', 's1', 'atomicity-violation', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('forge-cosign@p50', 'forge-cosign', 's1', 'invalid-cosign', True, 'audit', True, 's1', 1, 1, '-', '-', ..., ..., 2),
            ('anchor-tamper@p50', 'anchor-tamper', 'ordserv', 'epoch-anchor-mismatch', True, 'audit', True, 'ordserv', '-', 0, '-', '-', ..., ..., 2),
            ('crash@p50', 'crash', 's1', 'liveness', True, 'liveness', True, 's1', 0, 0, '-', '-', ..., ..., 0),
            ('tampered-catchup@p50', 'crash+tamper-catchup', 's2+s1', 'liveness', True, 'liveness', True, 's2', 0, 0, '-', '-', ..., ..., 2),
            ('coordinator-crash@p50', 'coordinator-crash', 's0', 'liveness', True, 'liveness', True, 's0', 0, 0, 's1@v1', True, ..., ..., 0),
            ('byzantine-coordinator@p50', 'byzantine-coordinator', 's0', 'protocol', False, '-', False, '-', '-', '-', 's1@v1', True, ..., ..., 2),
        ],
    },
    'scaledgroups': {
        'config': {'smoke': True},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)', 'group size', 'locality', 'coordinators', 'groups', 'baseline tps', 'speedup'),
        'rows': [
            ('scaled-4s-loc1.0-b2', 'tfcommit', 4, 120, 2, 16, 2, 16, ..., ..., ..., ..., ..., ..., ..., 24.4, ..., 2, 1.0, 3, 4, ..., ...),
        ],
    },
    'scaledgroups-full': {
        'config': {'num_requests': 8},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)', 'group size', 'locality', 'coordinators', 'groups', 'baseline tps', 'speedup'),
        'rows': [
            ('scaled-4s-loc1.0-b2', 'tfcommit', 4, 120, 2, 8, 2, 8, ..., ..., ..., ..., ..., ..., ..., 27.8, ..., 2, 1.0, 2, 2, ..., ...),
            ('scaled-4s-loc1.0-b4', 'tfcommit', 4, 120, 4, 8, 2, 8, ..., ..., ..., ..., ..., ..., ..., 49.5, ..., 2, 1.0, 2, 2, ..., ...),
            ('scaled-4s-loc0.75-b2', 'tfcommit', 4, 120, 2, 8, 2, 8, ..., ..., ..., ..., ..., ..., ..., 23.8, ..., 2, 0.75, 3, 4, ..., ...),
            ('scaled-4s-loc0.75-b4', 'tfcommit', 4, 120, 4, 8, 2, 8, ..., ..., ..., ..., ..., ..., ..., 36.7, ..., 2, 0.75, 3, 3, ..., ...),
            ('scaled-6s-loc1.0-b2', 'tfcommit', 6, 120, 2, 8, 2, 8, ..., ..., ..., ..., ..., ..., ..., 23.8, ..., 2, 1.0, 3, 4, ..., ...),
            ('scaled-6s-loc1.0-b4', 'tfcommit', 6, 120, 4, 8, 2, 8, ..., ..., ..., ..., ..., ..., ..., 34.3, ..., 2, 1.0, 3, 3, ..., ...),
            ('scaled-6s-loc0.75-b2', 'tfcommit', 6, 120, 2, 8, 2, 8, ..., ..., ..., ..., ..., ..., ..., 24, ..., 2, 0.75, 4, 5, ..., ...),
            ('scaled-6s-loc0.75-b4', 'tfcommit', 6, 120, 4, 8, 2, 8, ..., ..., ..., ..., ..., ..., ..., 27.8, ..., 2, 0.75, 4, 4, ..., ...),
        ],
    },
    'scaleout': {
        'config': {'num_requests': 384, 'fixed_compute_ms': 1.0},
        'columns': ('label', 'servers', 'shards', 'cross ratio', 'requests', 'committed', 'groups', 'epochs', 'throughput (txns/s)', 'ordserv busy', 'speedup vs 1 shard', 'makespan (s)'),
        'rows': [
            ('scaleout-128s-sh1-x0.0', 128, 1, 0.0, 384, 384, 116, 0, 1471.5, 0.978, 1.0, 0.2609),
            ('scaleout-128s-sh4-x0.0', 128, 4, 0.0, 384, 370, 116, 1, 4959.0, 0.926, 3.37, 0.0746),
            ('scaleout-128s-sh16-x0.0', 128, 16, 0.0, 384, 370, 116, 1, 12990.6, 0.682, 8.83, 0.0285),
            ('scaleout-128s-sh1-x0.1', 128, 1, 0.1, 384, 374, 119, 0, 1420.2, 0.977, 1.0, 0.2633),
            ('scaleout-128s-sh4-x0.1', 128, 4, 0.1, 384, 372, 119, 6, 3831.9, 0.757, 2.7, 0.0971),
            ('scaleout-128s-sh16-x0.1', 128, 16, 0.1, 384, 374, 119, 10, 11656.1, 0.741, 8.21, 0.0321),
        ],
    },
    'scaleout-smoke': {
        'config': {'num_requests': 128, 'smoke': True, 'fixed_compute_ms': 1.0},
        'columns': ('label', 'servers', 'shards', 'cross ratio', 'requests', 'committed', 'groups', 'epochs', 'throughput (txns/s)', 'ordserv busy', 'speedup vs 1 shard', 'makespan (s)'),
        'rows': [
            ('scaleout-128s-sh1-x0.1', 128, 1, 0.1, 128, 123, 66, 0, 826.7, 0.959, 1.0, 0.1488),
            ('scaleout-128s-sh4-x0.1', 128, 4, 0.1, 128, 123, 66, 3, 2042.1, 0.898, 2.47, 0.0602),
            ('scaleout-128s-sh16-x0.1', 128, 16, 0.1, 128, 123, 66, 5, 5395.8, 0.667, 6.53, 0.0228),
        ],
    },
    'pipeline': {
        'config': {'smoke': True},
        'columns': ('label', 'servers', 'deployment', 'depth', 'txns/block', 'committed', 'blocks', 'throughput (txns/s)', 'sequential tps', 'speedup', 'audit clean'),
        'rows': [
            ('pipeline-classic-d2-b2', 4, 'classic', 2, 2, 16, 8, 447.4, 254.3, 1.759, True),
            ('pipeline-scaled-d2-b2', 4, 'scaled', 2, 2, 16, 9, 670.3, 514.1, 1.304, True),
        ],
    },
    'pipeline-full': {
        'config': {'num_requests': 8},
        'columns': ('label', 'servers', 'deployment', 'depth', 'txns/block', 'committed', 'blocks', 'throughput (txns/s)', 'sequential tps', 'speedup', 'audit clean'),
        'rows': [
            ('pipeline-classic-d1-b2', 4, 'classic', 1, 2, 8, 4, 252.8, 252.8, 1.0, True),
            ('pipeline-classic-d1-b4', 4, 'classic', 1, 4, 8, 2, 504.4, 504.4, 1.0, True),
            ('pipeline-classic-d2-b2', 4, 'classic', 2, 2, 8, 4, 400.1, 252.8, 1.583, True),
            ('pipeline-classic-d2-b4', 4, 'classic', 2, 4, 8, 2, 674.1, 504.4, 1.336, True),
            ('pipeline-classic-d4-b2', 4, 'classic', 4, 2, 8, 4, 400.1, 252.8, 1.583, True),
            ('pipeline-classic-d4-b4', 4, 'classic', 4, 4, 8, 2, 674.1, 504.4, 1.336, True),
            ('pipeline-scaled-d1-b2', 4, 'scaled', 1, 2, 8, 5, 448.8, 448.8, 1.0, True),
            ('pipeline-scaled-d1-b4', 4, 'scaled', 1, 4, 8, 4, 573.7, 573.7, 1.0, True),
            ('pipeline-scaled-d2-b2', 4, 'scaled', 2, 2, 8, 5, 496.2, 448.8, 1.106, True),
            ('pipeline-scaled-d2-b4', 4, 'scaled', 2, 4, 8, 4, 573.7, 573.7, 1.0, True),
            ('pipeline-scaled-d4-b2', 4, 'scaled', 4, 2, 8, 5, 496.2, 448.8, 1.106, True),
            ('pipeline-scaled-d4-b4', 4, 'scaled', 4, 4, 8, 4, 573.7, 573.7, 1.0, True),
        ],
    },
    'recovery': {
        'config': {'smoke': True},
        'columns': ('label', 'store', 'checkpointed', 'warmup committed', 'gap committed', 'restored blocks', 'fetched blocks', 'recover (ms)', 'workload (s)', 'state store (KiB)'),
        'rows': [
            ('recovery-memory-gap8-ckpt1', 'memory', True, 8, 4, 0, 3, ..., ..., 10.0),
            ('recovery-wal-gap8-ckpt1', 'wal', True, 8, 4, 0, 3, ..., ..., 10.0),
        ],
    },
    'recovery-full': {
        'config': {'num_requests': 4},
        'columns': ('label', 'store', 'checkpointed', 'warmup committed', 'gap committed', 'restored blocks', 'fetched blocks', 'recover (ms)', 'workload (s)', 'state store (KiB)'),
        'rows': [
            ('recovery-memory-gap4-ckpt0', 'memory', False, 8, 2, 4, 1, ..., ..., 14.1),
            ('recovery-memory-gap4-ckpt1', 'memory', True, 8, 2, 0, 1, ..., ..., 7.8),
            ('recovery-wal-gap4-ckpt0', 'wal', False, 8, 2, 4, 1, ..., ..., 14.1),
            ('recovery-wal-gap4-ckpt1', 'wal', True, 8, 2, 0, 1, ..., ..., 7.8),
        ],
    },
    'failover': {
        'config': {'smoke': True},
        'columns': ('label', 'deployment', 'stall requests', 'warmup committed', 'committed during outage', 'reproposed rounds', 'certificates', 'frontier height', 'successor', 'new view', 'view change (virtual ms)', 'view change (wall ms)', 'post committed'),
        'rows': [
            ('failover-classic-stall4', 'classic', 4, 4, 0, 1, 3, 2, 's1', 1, ..., ..., 4),
            ('failover-scaled-stall4', 'scaled', 4, 4, 2, 1, 3, 3, 's1', 1, ..., ..., 4),
        ],
    },
    'failover-full': {
        'config': {'num_requests': 2},
        'columns': ('label', 'deployment', 'stall requests', 'warmup committed', 'committed during outage', 'reproposed rounds', 'certificates', 'frontier height', 'successor', 'new view', 'view change (virtual ms)', 'view change (wall ms)', 'post committed'),
        'rows': [
            ('failover-classic-stall2', 'classic', 2, 4, 0, 1, 3, 2, 's1', 1, ..., ..., 4),
            ('failover-scaled-stall2', 'scaled', 2, 4, 1, 1, 3, 3, 's1', 1, ..., ..., 4),
        ],
    },
    'ablation-latency': {
        'config': {'num_requests': 2},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)'),
        'rows': [
            ('ablation-latency-lan', 'tfcommit', 5, 1000, 20, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 95, ...),
            ('ablation-latency-wan', 'tfcommit', 5, 1000, 20, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 95, ...),
        ],
    },
    'ablation-signing': {
        'config': {'num_requests': 2},
        'columns': ('label', 'protocol', 'servers', 'items/shard', 'txns/block', 'requests', 'clients', 'committed', 'throughput (txns/s)', 'txn latency (ms)', 'txn p50 (ms)', 'txn p95 (ms)', 'txn p99 (ms)', 'block latency (ms)', 'MHT update (ms)', 'MHT hashes/block', 'crypto (ms)'),
        'rows': [
            ('ablation-signing-hash', 'tfcommit', 4, 500, 10, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 79, ...),
            ('ablation-signing-schnorr', 'tfcommit', 4, 500, 10, 2, 1, 2, ..., ..., ..., ..., ..., ..., ..., 79, ...),
        ],
    },
}
GATED_METRICS = {'figure13': {'labels': {'fig13-batch-100': {'latency_ms': 0.082, 'throughput_tps': 12244.8},
                         'fig13-batch-120': {'latency_ms': 0.068, 'throughput_tps': 14605.3},
                         'fig13-batch-2': {'latency_ms': 4.004, 'throughput_tps': 249.8},
                         'fig13-batch-20': {'latency_ms': 1.215, 'throughput_tps': 1477.3},
                         'fig13-batch-40': {'latency_ms': 0.198, 'throughput_tps': 5062.4},
                         'fig13-batch-60': {'latency_ms': 0.132, 'throughput_tps': 7557.5},
                         'fig13-batch-80': {'latency_ms': 0.102, 'throughput_tps': 9757.5}},
              'latency_ms': {'p50': 0.7124285714285714,
                             'p95': 0.9639999999999999,
                             'p99': 0.9639999999999999},
              'throughput_tps': {'mean': 7279.228571428573, 'min': 249.8}},
 'multiclient': {'labels': {'multiclient-1c': {'latency_ms': 0.998, 'throughput_tps': 1002.2},
                            'multiclient-2c': {'latency_ms': 0.998, 'throughput_tps': 1002.2},
                            'multiclient-4c': {'latency_ms': 0.998, 'throughput_tps': 1002.2},
                            'multiclient-8c': {'latency_ms': 0.998, 'throughput_tps': 1002.2}},
                 'latency_ms': {'p50': 0.995, 'p95': 1.001, 'p99': 1.001},
                 'throughput_tps': {'mean': 1002.2, 'min': 1002.2}},
 'pipeline': {'labels': {'pipeline-classic-d2-b2': {'latency_ms': None,
                                                    'throughput_tps': 447.4},
                         'pipeline-scaled-d2-b2': {'latency_ms': None,
                                                   'throughput_tps': 670.3}},
              'latency_ms': {'p50': None, 'p95': None, 'p99': None},
              'throughput_tps': {'mean': 558.8499999999999, 'min': 447.4}},
 'scaleout': {'labels': {'scaleout-128s-sh1-x0.0': {'latency_ms': None,
                                                    'throughput_tps': 1471.5},
                         'scaleout-128s-sh1-x0.1': {'latency_ms': None,
                                                    'throughput_tps': 1420.2},
                         'scaleout-128s-sh16-x0.0': {'latency_ms': None,
                                                     'throughput_tps': 12990.6},
                         'scaleout-128s-sh16-x0.1': {'latency_ms': None,
                                                     'throughput_tps': 11656.1},
                         'scaleout-128s-sh4-x0.0': {'latency_ms': None,
                                                    'throughput_tps': 4959.0},
                         'scaleout-128s-sh4-x0.1': {'latency_ms': None,
                                                    'throughput_tps': 3831.9}},
              'latency_ms': {'p50': None, 'p95': None, 'p99': None},
              'throughput_tps': {'mean': 6054.883333333334, 'min': 1420.2}}}


def test_the_cases_cover_every_sweep(capsys):
    assert main(["--list"]) == 0
    listed = {line.strip() for line in capsys.readouterr().out.splitlines()[1:]}
    assert len(listed) == 13
    assert {argv[0] for argv in CASES.values()} == listed
    assert set(PINS) == set(CASES)
    assert set(GATED_METRICS) == set(GATED)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_rows_are_the_pinned_ones(case, reports):
    report = reports(case)
    seen, pinned = pin_of(case, report), PINS[case]
    assert report["sweep"] == CASES[case][0]
    assert seen["config"] == pinned["config"]
    assert seen["columns"] == pinned["columns"]
    # The columns are the first row's; every other row must spell the same.
    assert all(tuple(row) == pinned["columns"] for row in report["rows"])
    assert len(seen["rows"]) == len(pinned["rows"])
    for row, pinned_row in zip(seen["rows"], pinned["rows"]):
        assert row == pinned_row


@pytest.mark.parametrize("case", GATED)
def test_gated_metrics_are_the_pinned_ones(case, reports):
    assert reports(case)["metrics"] == GATED_METRICS[case]


if __name__ == "__main__":
    import contextlib
    import io
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        fresh = {case: run_case(case, pathlib.Path(scratch)) for case in CASES}
    print("PINS = {")
    for case, report in fresh.items():
        pin = pin_of(case, report)
        print(f"    {case!r}: {{")
        print(f"        'config': {pin['config']!r},")
        print(f"        'columns': {pin['columns']!r},")
        print("        'rows': [")
        for row in pin["rows"]:
            print(f"            {row!r},".replace("Ellipsis", "..."))
        print("        ],")
        print("    },")
    print("}")
    print("GATED_METRICS = " + pprint.pformat({c: fresh[c]["metrics"] for c in GATED}, width=96))
