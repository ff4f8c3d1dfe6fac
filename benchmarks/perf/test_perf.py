"""Self-tests of the wall-clock benchmark, on the ``--smoke`` suite.

Run explicitly with ``pytest benchmarks/perf`` (tier-1 does not collect this
directory; see conftest.py).  Nothing here asserts on a time: the checks are
about names, determinism, correctness and the tracer's bookkeeping.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke_suite(workdir: Path, tag: str, seed: int, trace: bool):
    """One ``run.py --smoke --runs 1`` pass; returns (report, stdout)."""
    out = workdir / f"{tag}.json"
    command = [sys.executable, str(HERE / "run.py"), "--smoke", "--runs", "1",
               "--seed", str(seed), "--json", str(out)]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, cwd=workdir, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8")), done.stdout


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("perf")


@pytest.fixture(scope="module")
def traced(workdir):
    return smoke_suite(workdir, "traced", seed=2020, trace=True)


@pytest.fixture(scope="module")
def repeat(workdir):
    return smoke_suite(workdir, "repeat", seed=2020, trace=False)


def test_every_declared_metric_is_printed_with_its_unit(traced):
    report, stdout = traced
    assert list(report["workloads"]) == WORKLOADS
    for name in WORKLOADS:
        entry = report["workloads"][name]
        for metric in SPEC["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["unit"] == metric["unit"]
            assert entry["end_to_end"][metric["name"]]["median"] > 0
        for metric in SPEC["per_layer"]:
            assert entry["per_layer"][metric["name"]]["unit"] == metric["unit"]
    for metric in SPEC["end_to_end"]:
        assert f"{metric['name']:24s} {metric['unit']:8s}" in stdout
    # The issue's workload-specific names are printed where they are defined.
    for name in ("failed_frac", "audit_block_per_s", "recover_ms_p50"):
        assert name in stdout


def test_same_seed_repeats_counters_and_log_head(traced, repeat, workdir):
    first, second = traced[0], repeat[0]
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["log_head"] and a["log_head"] == b["log_head"]
        for counter, value in a["counters"].items():
            if counter.startswith(("process.", "setup.", "machine.")):
                continue  # times, not counts
            assert b["counters"][counter] == value, (name, counter)
    compare = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         str(workdir / "traced.json"), str(workdir / "repeat.json")],
        capture_output=True, text=True,
    )
    assert "CHANGED" not in compare.stdout, compare.stdout
    assert compare.stdout.count("identical") == len(WORKLOADS)


def test_another_seed_changes_the_log_and_still_passes(traced, workdir):
    other, _ = smoke_suite(workdir, "other-seed", seed=77, trace=False)
    for name in WORKLOADS:
        assert other["workloads"][name]["log_head"] != traced[0]["workloads"][name]["log_head"]


def test_self_times_account_for_the_traced_wall(traced):
    for name in WORKLOADS:
        layers = traced[0]["workloads"][name]["per_layer"]
        attributed = sum(row["value"] for key, row in layers.items() if key.endswith(".self_s"))
        wall = layers["trace.wall_s"]["value"]
        assert abs(attributed - wall) <= 0.02 * wall, (name, attributed, wall)
        calls = sum(row["value"] for key, row in layers.items() if key.endswith(".calls"))
        assert calls == layers["trace.spans"]["value"] > 0


def test_spans_are_well_formed(traced, workdir):
    for name in WORKLOADS:
        trace = json.loads((workdir / f"trace_{name}.json").read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events, name
        by_id = {event["args"]["span"]: event for event in events}
        for event in events:
            assert event["dur"] >= 0
            parent = by_id.get(event["args"]["parent"])
            if parent is not None:
                assert parent["ts"] <= event["ts"]
                assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]
                assert parent["cat"] != event["cat"]  # spans open only at layer boundaries
                assert parent["tid"] == event["tid"]


def test_uninstall_leaves_no_wrapper_behind():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "from repro.common import encoding\n"
        "assert getattr(encoding.canonical_encode, '__perf_wrapped__', False)\n"
        "assert tracer.leftover_wrappers()\n"
        "t.uninstall()\n"
        "assert tracer.leftover_wrappers() == [], tracer.leftover_wrappers()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_one_measurement_prints_the_contract_line(workdir):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "classic_signed",
             "--seed", "5", "--seconds", "0.3", "--trace", str(trace)],
            cwd=workdir, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
        assert list(result["metrics"]) == [metric["name"] for metric in SPEC[group]]
