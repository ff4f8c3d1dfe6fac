"""The sweep table: what every row of ``SWEEPS`` must declare, and what
``run_sweep`` refuses.  What the rows *report* is pinned by
``test_sweep_rows.py``; this file holds the table to its contract."""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.bench import experiments, harness
from repro.bench.experiments import SWEEPS, run_sweep
from repro.faultsim import campaign

CLI_NAMES = {
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "multiclient",
    "faultmatrix",
    "scaledgroups",
    "scaleout",
    "pipeline",
    "recovery",
    "failover",
    "ablation-latency",
    "ablation-signing",
}

#: name -> overrides that shrink the sweep to a tiny grid (same shape, few requests).
TINY = {
    "figure12": dict(num_requests=2, items_per_shard=60),
    "figure13": dict(batch_sizes=(2, 4), num_requests=4, items_per_shard=60),
    "figure14": dict(server_counts=(3, 4), num_requests=2, items_per_shard=60, txns_per_block=2),
    "figure15": dict(shard_sizes=(50, 100), num_requests=2, txns_per_block=2),
    "multiclient": dict(client_counts=(1, 2), num_requests=4, items_per_shard=60),
    "faultmatrix": dict(num_requests=2),
    "scaledgroups": dict(num_requests=4),
    "scaleout": dict(shard_counts=(1, 2), num_servers=8, num_requests=16, fixed_compute_ms=1.0),
    "pipeline": dict(num_requests=8),
    "recovery": dict(gap_requests=(2, 4)),
    "failover": dict(stall_requests=(2, 4)),
    "ablation-latency": dict(num_requests=2),
    "ablation-signing": dict(num_requests=2),
}


def test_the_table_has_exactly_the_cli_names():
    assert set(SWEEPS) == CLI_NAMES == set(TINY)


@pytest.mark.parametrize("name", sorted(CLI_NAMES))
def test_every_row_says_what_it_sweeps(name):
    sweep = SWEEPS[name]
    assert sweep.doc.strip()
    grid = {**sweep.fixed, **sweep.axes}
    assert grid or sweep.script is not None
    assert all(isinstance(values, tuple) and values for values in grid.values())
    assert len(grid) == len(sweep.fixed) + len(sweep.axes)
    assert not set(grid) & set(sweep.defaults)
    # --requests reaches every sweep as ``num_requests``.
    assert "num_requests" in sweep.defaults


@pytest.mark.parametrize("name", sorted(CLI_NAMES))
def test_results_pair_with_rows_and_labels_are_unique(name):
    results, rows = run_sweep(name, **TINY[name])
    assert rows and len(results) == len(rows)
    # ``schema.summarize_rows`` keys by label and would silently overwrite a
    # duplicate (fault-matrix rows are named by their ``scenario``).
    labels = [row.get("label", row.get("scenario")) for row in rows]
    assert None not in labels
    assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("name", sorted(CLI_NAMES))
def test_an_unknown_override_is_refused(name):
    with pytest.raises(TypeError, match="bogus"):
        run_sweep(name, bogus=1)


@pytest.mark.parametrize(
    "name, keyword",
    [
        ("figure12", "protocols"),
        ("ablation-latency", "regimes"),
        ("ablation-signing", "schemes"),
        ("faultmatrix", "trigger_variants"),
    ],
)
def test_what_was_a_literal_loop_is_not_an_override(name, keyword):
    """The overrides are the keyword names the sweeps always took; what a
    sweep compares (2PC vs TFCommit, LAN vs WAN ...) is not one of them."""
    with pytest.raises(TypeError, match=keyword):
        run_sweep(name, **{keyword: ()})
    assert {n: tuple(s.fixed) for n, s in SWEEPS.items() if s.fixed} == {
        "figure12": ("protocols",),
        "ablation-latency": ("regimes",),
        "ablation-signing": ("schemes",),
    }


def test_smoke_and_obs_are_refused_where_the_row_does_not_declare_them():
    assert SWEEPS["figure13"].smoke is None and not SWEEPS["figure13"].traced
    with pytest.raises(TypeError, match="smoke"):
        run_sweep("figure13", smoke=True)
    with pytest.raises(TypeError, match="obs"):
        run_sweep("recovery", obs=object())
    assert {name for name, sweep in SWEEPS.items() if sweep.traced} == {"pipeline"}


def _calls_to(path: pathlib.Path, names) -> list:
    return [
        f"{path}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    ]


def test_harness_build_is_the_only_builder():
    """One builder: outside ``core`` (the system classes themselves), only
    ``harness.build`` constructs a system or its config -- the sweeps, the
    fault matrix's script and the checker's scenarios all call it."""
    root = pathlib.Path(repro.__file__).parent
    by_hand = [
        call
        for path in sorted(root.rglob("*.py"))
        if path != pathlib.Path(harness.__file__) and "core" not in path.relative_to(root).parts
        for call in _calls_to(path, {"SystemConfig", "FidesSystem", "ScaledFidesSystem"})
    ]
    assert by_hand == []
    assert "harness.build(" in pathlib.Path(campaign.__file__).read_text()


def test_sweeps_build_no_workload_and_probe_no_signature():
    """The sweeps take their workload from ``harness.build`` too, and nothing
    probes a signature to learn what a sweep takes.  (The fault matrix builds
    one workload itself: the background that leaves out each shard's
    reserved probe item.)"""
    source = pathlib.Path(experiments.__file__).read_text()
    assert "inspect" not in source
    assert _calls_to(
        pathlib.Path(experiments.__file__), {"PartitionedWorkload", "YcsbWorkload"}
    ) == []
