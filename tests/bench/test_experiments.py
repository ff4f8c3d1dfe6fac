"""Smoke tests for the figure sweeps at very small sizes.

The full-shape assertions live in ``benchmarks/``; here we only check that
each sweep runs, produces one row per parameter point, and exposes the
columns the reporting layer expects.
"""

from __future__ import annotations


from repro.bench.experiments import run_sweep


class TestFigureSweeps:
    def test_figure12_rows(self):
        rows = run_sweep("figure12", server_counts=(3,), num_requests=3, items_per_shard=60)
        assert len(rows) == 2  # one per protocol
        assert {row["protocol"] for row in rows} == {"2pc", "tfcommit"}

    def test_figure13_rows(self):
        rows = run_sweep("figure13", batch_sizes=(2, 4), num_requests=8, items_per_shard=120)
        assert [row["txns/block"] for row in rows] == [2, 4]
        assert all(row["committed"] == 8 for row in rows)

    def test_figure14_rows(self):
        rows = run_sweep(
            "figure14", server_counts=(3, 4), num_requests=4, items_per_shard=60, txns_per_block=2
        )
        assert [row["servers"] for row in rows] == [3, 4]

    def test_figure15_rows(self):
        rows = run_sweep("figure15", shard_sizes=(50, 100), num_requests=4, txns_per_block=2)
        assert [row["items/shard"] for row in rows] == [50, 100]

    def test_ablation_signing_scheme_rows(self):
        rows = run_sweep("ablation-signing", num_requests=2)
        assert len(rows) == 2

    def test_faultmatrix_smoke_rows(self):
        rows = run_sweep("faultmatrix", num_requests=2, smoke=True)
        assert len(rows) == 19  # one per fault kind, always-trigger grid
        for row in rows:
            assert {"scenario", "detected", "blocks-to-detect", "audit overhead (x)"} <= set(row)

    def test_scaledgroups_smoke_rows(self):
        results, rows = run_sweep("scaledgroups", num_requests=8, smoke=True, return_results=True)
        assert len(rows) == 1  # one point per axis in smoke mode
        row = rows[0]
        assert {
            "servers", "locality", "throughput (txns/s)", "baseline tps", "speedup"
        } <= set(row)
        assert results[0].group_coordinators >= 2
        assert row["throughput (txns/s)"] > 0
        assert row["baseline tps"] > 0
        assert row["speedup"] == round(row["throughput (txns/s)"] / row["baseline tps"], 2)

    def test_scaleout_tiny_rows(self):
        results, rows = run_sweep(
            "scaleout",
            shard_counts=(1, 2),
            cross_shard_ratios=(0.1,),
            num_servers=8,
            num_requests=32,
            fixed_compute_ms=1.0,
            return_results=True,
        )
        assert [row["shards"] for row in rows] == [1, 2]
        for row in rows:
            assert {
                "throughput (txns/s)", "ordserv busy", "speedup vs 1 shard", "epochs"
            } <= set(row)
        # The 1-shard point anchors the per-ratio speedup column at 1.0.
        assert rows[0]["speedup vs 1 shard"] == 1.0
        assert all(result.committed_txns > 0 for result in results)


class TestRunFacade:
    def test_classic_dispatch(self):
        from repro.api import ExperimentConfig, run

        result = run(ExperimentConfig(
            num_servers=3, items_per_shard=100, num_requests=4,
            txns_per_block=2, ops_per_txn=2,
            message_signing="hash", fixed_compute_ms=1.0,
        ))
        assert result.committed_txns == 4

    def test_scaled_dispatch(self):
        from repro.api import ExperimentConfig, run

        result = run(ExperimentConfig(
            deployment="scaled", num_servers=4, group_size=1,
            items_per_shard=60, num_requests=4, locality=1.0,
            ordering_shards=2, message_signing="hash", fixed_compute_ms=1.0,
        ))
        assert result.committed_txns == 4
        assert result.group_coordinators >= 1
        assert result.epochs >= 1  # two ordering shards seal an anchor chain

    def test_unknown_deployment_rejected(self):
        import pytest

        from repro.api import ExperimentConfig, run
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(ExperimentConfig(deployment="galactic"))


class TestCli:
    def test_list_option(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "figure12" in captured.out

    def test_run_tiny_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["ablation-signing", "--requests", "2", "--csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].startswith("label,")

    def test_faultmatrix_json_artifact(self, capsys, tmp_path):
        import json

        from repro.bench.__main__ import main

        out = tmp_path / "faultmatrix.json"
        assert main(["faultmatrix", "--requests", "2", "--smoke", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1
        assert data["sweep"] == "faultmatrix"
        assert data["commit"]
        assert data["config"] == {"num_requests": 2, "smoke": True}
        assert len(data["rows"]) == 19
        assert all(row["detected"] for row in data["rows"])
        # Fault-matrix rows carry no throughput, so nothing is gateable.
        assert data["metrics"]["labels"] == {}
