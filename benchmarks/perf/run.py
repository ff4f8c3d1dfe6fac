"""The wall-clock benchmark: one command, five workloads, every metric by name.

Two ways in:

``python benchmarks/perf/run.py [--workload W] [--seed S] [--runs N] [--trace]
[--json OUT] [--smoke]``
    The suite.  Runs each workload ``N`` times, each run a fresh subprocess
    (so the generator tables, window caches, ``cosi_verify`` memo and RSS all
    start cold), interleaving workloads, and prints the median and min/max of
    each end-to-end metric.  ``--trace`` runs each workload once more with
    boundary spans recorded and prints the per-layer metrics.

``python benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1``
    One measurement in this process.  The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace
    1``) named in ``BENCHMARK.json``.  The suite is built from these runs.

``--seconds`` sizes the measured work: each workload runs
``round(ops_per_second * seconds)`` ops, ``ops_per_second`` being its
calibrated rate on the reference box (see ``workloads.py``).  Load is a closed
loop from one thread with one outstanding operation.  Times are corrected for
the box's momentary speed (see ``machine_probe``).  README.md has the metric
definitions and measurement rules.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_tmp"

#: Set-up is repeated in a timed run and its median reported, so one slow
#: first import does not decide ``setup_s``.
SETUP_REPEATS = 3

#: The fewest ops a run measures, however small ``--seconds`` is.
MIN_OPS = 2

#: Layer counters read from the program's always-on MetricsRegistry
#: (benchmark name -> registry counter), as deltas over the steady state.
REGISTRY_COUNTERS = {
    "net.msgs": "net.messages",
    "net.bytes": "net.bytes_total",
    "crypto.cosi_verify.ops": "crypto.cosi_verify.ops",
    "crypto.envelope_sign.ops": "crypto.envelope_sign.ops",
    "crypto.envelope_verify.ops": "crypto.envelope_verify.ops",
    "storage.mht_hashes": "storage.mht_hashes",
    "recovery.wal_appends": "recovery.wal_appends",
    "core.sequencing.epochs": "ordserv.epochs",
}


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


#: The sandbox's execution speed drifts by tens of percent over minutes, in
#: phases (noisy neighbours; it shows in CPU time, not in steal).  Every timed
#: call is therefore bracketed by two runs of a fixed pure-Python kernel, and
#: its wall time is divided by how much slower than nominal the kernel ran
#: just then.  Times are reported in these *reference-box seconds*.  The
#: kernel lives here, so a change to the program cannot move it.
PROBE_NOMINAL_S = 0.00275
_PROBE_MODULUS = 2**255 - 19
_PROBE_KEYS = [f"item-{index}" for index in range(2048)]


def machine_probe() -> float:
    """Wall time of the fixed ~3 ms kernel.

    It mixes what the program's hot paths do -- an interpreter loop over dict
    traffic, length-prefixed byte joins, SHA-256, 256-bit modular arithmetic --
    so its time tracks the box's current speed and nothing else.
    """
    start = time.perf_counter()
    table: Dict[str, int] = {}
    parts = []
    accumulator = 3
    for index, key in enumerate(_PROBE_KEYS):
        table[key] = table.get(key, 0) + index * index % 7
        payload = key.encode("utf-8")
        parts.append(len(payload).to_bytes(4, "big") + payload)
        accumulator = accumulator * (accumulator + index) % _PROBE_MODULUS
    digest = hashlib.sha256(b"".join(parts)).digest()
    for _ in range(200):
        accumulator = pow(accumulator + digest[0], 65537, _PROBE_MODULUS)
    return time.perf_counter() - start


def probed(fn, *args):
    """Call ``fn`` between two machine probes: (result, wall seconds, slowdown).

    Each probe is the faster of two kernel runs, which drops the odd
    interrupted one.
    """
    before = min(machine_probe(), machine_probe())
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = min(machine_probe(), machine_probe())
    return result, wall, (before + after) / 2.0 / PROBE_NOMINAL_S


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class Clock:
    """Times the calls a workload's ``step`` asks to have measured."""

    def __init__(self, tracer=None) -> None:
        #: Per series, each call's wall time in reference-box seconds.
        self.series: Dict[str, List[float]] = {}
        self.slowdowns: List[float] = []
        self.wall_s = 0.0  # as the clock read it, for the tracer's accounting
        self.cpu_s = 0.0
        self.op = 0
        self._tracer = tracer

    def _run(self, fn, *args):
        tracer = self._tracer
        if tracer is not None:
            tracer.begin(self.op)
        cpu = time.process_time()
        try:
            return fn(*args)
        finally:
            self.cpu_s += time.process_time() - cpu
            if tracer is not None:
                tracer.end()

    def timed(self, series: str, fn, *args):
        result, wall, slowdown = probed(self._run, fn, *args)
        self.wall_s += wall
        self.slowdowns.append(slowdown)
        self.series.setdefault(series, []).append(wall / slowdown)
        return result


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def measure(cls, seed: int, ops: int, setup_repeats: int, tracer=None) -> Dict:
    """Run one workload's whole life cycle in this process and return raw results.

    A ``tracer`` is installed before the system is built (so handlers the
    system registers are the wrapped ones), records only inside
    ``Clock.timed``, and is uninstalled before the untimed checks.
    """
    setups = []
    workload = None
    try:
        if tracer is not None:
            tracer.install()
        for _ in range(setup_repeats):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload = cls(seed, ops, SCRATCH)
            phases = {
                name: wall / slowdown
                for name, (_, wall, slowdown) in (
                    ("setup.construct_s", probed(workload.construct)),
                    ("setup.generate_s", probed(workload.generate)),
                    ("setup.warmup_s", probed(workload.warmup)),
                )
            }
            setups.append({"setup_s": sum(phases.values()), **phases})
        # The repeat with the median total, so the three parts still sum to it.
        setup = sorted(setups, key=lambda s: s["setup_s"])[len(setups) // 2]

        gc.collect()
        counters_before = workload.counters()
        wal_before = workload.wal_bytes()
        collections_before = _gc_collections()
        clock = Clock(tracer)
        for index in range(ops):
            clock.op = index
            workload.step(index, clock)
        collections = _gc_collections() - collections_before
        if tracer is not None:
            tracer.uninstall()
        counters_after = workload.counters()
        tally = workload.tally
        layer = {
            name: counters_after.get(source, 0.0) - counters_before.get(source, 0.0)
            for name, source in REGISTRY_COUNTERS.items()
        }
        layer.update(
            {
                "recovery.wal_bytes": workload.wal_bytes() - wal_before,
                "recovery.restored_blocks": tally.restored_blocks,
                "recovery.fetched_blocks": tally.fetched_blocks,
                "core.blocks_committed": tally.blocks_committed,
                "core.blocks_aborted": tally.blocks_aborted,
                "core.txns_per_block": tally.committed / max(1, tally.blocks_committed),
                "txn.abort_frac": tally.aborted / max(1, tally.submitted),
                "sim.virtual_makespan_s": workload.system.sim.makespan,
                "process.cpu_s": clock.cpu_s,
                "process.gc_collections": collections,
                "machine.slowdown": statistics.median(clock.slowdowns),
                "steady.ops": ops,
            }
        )
        layer.update({k: v for k, v in setup.items() if k != "setup_s"})
        problems = workload.verify()
        return {
            "setup_s": setup["setup_s"],
            "series": clock.series,
            "wall_s": clock.wall_s,
            "tally": {
                "submitted": tally.submitted,
                "committed": tally.committed,
                "aborted": tally.aborted,
                "audited_blocks": tally.audited_blocks,
                "audited_txns": tally.audited_txns,
                "attempted": tally.attempted,
                "failed": tally.failed,
            },
            "layer": layer,
            "log_head": workload.log_head(),
            "problems": problems,
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
        if workload is not None:
            workload.close()
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def _metrics(values: Dict) -> Dict[str, Dict]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def end_to_end(raw: Dict) -> Dict[str, Dict]:
    """The gated end-to-end metrics of one untraced run (definitions: README.md)."""
    series, tally = raw["series"], raw["tally"]
    # The latency-shaped operation: recover_server on wal_recovery, else the op.
    latency = series.get("recover", series["op"])
    processed = tally["committed"] or tally["audited_txns"]
    return _metrics(
        {
            "setup_s": (raw["setup_s"], "s"),
            "txn_per_s": (processed / sum(series["op"]), "txn/s"),
            "op_ms_p50": (statistics.median(latency) * 1000.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    )


def derived(raw: Dict) -> Dict[str, Dict]:
    """Issue 11's remaining end-to-end names, printed where they are defined but
    not gated: ``op_ms_p90`` needs ten samples beyond it, ``failed_frac`` is
    always 0 on a correct run, and the other two restate ``op_ms_p50``."""
    series, tally = raw["series"], raw["tally"]
    extra = {"failed_frac": (tally["failed"] / max(1, tally["attempted"]), "ratio")}
    if len(series["op"]) >= 100:
        extra["op_ms_p90"] = (percentile(series["op"], 0.90) * 1000.0, "ms")
    if tally["audited_blocks"]:
        blocks_per_op = tally["audited_blocks"] / len(series["op"])
        extra["audit_block_per_s"] = (blocks_per_op / statistics.median(series["op"]), "block/s")
    if "recover" in series:
        extra["recover_ms_p50"] = (statistics.median(series["recover"]) * 1000.0, "ms")
    return _metrics(extra)


def per_layer(untraced: Dict, traced: Dict, tracer, spec: Dict) -> Dict[str, Dict]:
    """Every per-layer metric: trace aggregates, program counters, harness numbers."""
    from tracer import LAYERS

    values = dict(untraced["layer"])
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
        values[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    steady = [sum(sum(v) for v in run["series"].values()) for run in (traced, untraced)]
    values["trace.overhead_frac"] = steady[0] / steady[1] - 1.0
    values["trace.spans"] = tracer.span_count
    values["trace.wall_s"] = traced["wall_s"]
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in spec["per_layer"]
    }


def run_one(args, spec: Dict) -> int:
    """One in-process measurement; prints the metrics and the result line."""
    from tracer import Tracer, leftover_wrappers
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    ops = max(MIN_OPS, round(cls.ops_per_second * args.seconds))
    print(f"# {cls.name}: seed={args.seed} seconds={args.seconds:g} ops={ops} trace={args.trace}")
    if not args.trace:
        raw = measure(cls, args.seed, ops, args.setup_repeats)
        metrics = end_to_end(raw)
        detail = {"end_to_end": metrics, "derived": derived(raw)}
        shown = {**metrics, **detail["derived"]}
    else:
        # An untraced pass, then the same work traced: their wall-time ratio is
        # the tracing overhead, and they must agree on every outcome.
        raw = measure(cls, args.seed, ops, 1)
        tracer = Tracer()
        traced = measure(cls, args.seed, ops, 1, tracer)
        raw["problems"] += traced["problems"]
        for key in ("log_head", "tally"):
            if raw[key] != traced[key]:
                raw["problems"].append(f"tracing changed {key}: {raw[key]} -> {traced[key]}")
        leftovers = leftover_wrappers()
        if leftovers:
            raw["problems"].append(f"wrappers left after uninstall: {leftovers[:5]}")
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
        metrics = per_layer(raw, traced, tracer, spec)
        shown = metrics
        detail = {"per_layer": metrics}
    for name, metric in shown.items():
        print(f"{name:32s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'log_head':32s} {raw['log_head']}")
    print(f"{'sim.virtual_makespan_s':32s} {raw['layer']['sim.virtual_makespan_s']!r}")
    for problem in raw["problems"]:
        print(f"INCORRECT: {problem}")
    detail.update(
        {
            "workload": cls.name,
            "ops": ops,
            "samples": {name: len(samples) for name, samples in raw["series"].items()},
            "log_head": raw["log_head"],
            "counters": raw["layer"],
        }
    )
    print("DETAIL " + json.dumps(detail))
    correct = not raw["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": raw["tally"]["attempted"],
                "failed": raw["tally"]["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- the suite ------------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, setup_repeats: int, trace_out: Optional[str]):
    """Run one measurement in a fresh subprocess; returns (detail, result line).

    A ``trace_out`` path asks for the traced run and its Chrome trace file.
    """
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--setup-repeats", str(setup_repeats),
    ]
    if trace_out:
        command += ["--trace", "1", "--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    detail = next((json.loads(l[len("DETAIL "):]) for l in lines if l.startswith("DETAIL ")), None)
    if detail is None:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: run produced no result (exit {done.returncode})")
    for line in lines:
        if line.startswith("INCORRECT"):
            print(f"  {workload}: {line}")
    return detail, json.loads(lines[-1])


def run_suite(args, spec: Dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    setup_repeats = args.setup_repeats
    if args.smoke:  # ~1/20 of the work and a single set-up; every check still on
        seconds, setup_repeats = seconds / 20.0, 1
    runs: Dict[str, List] = {name: [] for name in names}
    correct = True
    for round_index in range(args.runs):
        for name in names:  # interleaved, so drift hits every workload alike
            detail, result = _spawn(name, args.seed, seconds, setup_repeats, None)
            correct &= result["correct"]
            runs[name].append(detail)
            print(f"run {round_index + 1}/{args.runs} {name}: ok={result['correct']}", flush=True)
    report = {
        "seed": args.seed,
        "seconds": seconds,
        "runs": args.runs,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    for name in names:
        details = runs[name]
        entry = {
            "ops": details[0]["ops"],
            "samples": details[0]["samples"],
            "log_head": details[0]["log_head"],
            "counters": details[0]["counters"],
            "end_to_end": {},
        }
        for other in details[1:]:
            if other["log_head"] != entry["log_head"]:
                print(f"INCORRECT: {name}: log_head differs between same-seed runs")
                correct = False
        print(f"\n== {name}: seed {args.seed}, {entry['ops']} ops, samples {entry['samples']}")
        print(f"{'metric':24s} {'unit':8s} {'median':>14s} {'min':>14s} {'max':>14s}")
        for group in ("end_to_end", "derived"):
            for metric in details[0][group]:
                values = [d[group][metric]["value"] for d in details]
                unit = details[0][group][metric]["unit"]
                row = {
                    "unit": unit,
                    "median": statistics.median(values),
                    "min": min(values),
                    "max": max(values),
                    "values": values,
                }
                if group == "end_to_end":
                    entry["end_to_end"][metric] = row
                print(
                    f"{metric:24s} {unit:8s} {row['median']:14.4f} "
                    f"{row['min']:14.4f} {row['max']:14.4f}"
                )
        print(f"{'log_head':24s} {entry['log_head']}")
        for counter, value in entry["counters"].items():
            print(f"{counter:32s} {value!r}")
        report["workloads"][name] = entry
    if args.trace:
        for name in names:
            trace_out = f"trace_{name}.json"
            detail, result = _spawn(name, args.seed, seconds, 1, trace_out)
            correct &= result["correct"]
            report["workloads"][name]["per_layer"] = detail["per_layer"]
            print(f"\n== {name}: per-layer metrics (traced run; spans in {trace_out})")
            for metric, row in detail["per_layer"].items():
                if row["value"]:
                    print(f"{metric:32s} {row['value']:>16.6f} {row['unit']}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, help="measure once, in this process")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1))
    parser.add_argument("--trace-out", help="with --seconds --trace 1: Chrome trace file")
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS, metavar="N",
                        help="set up N times per untraced run and report the median")
    parser.add_argument("--runs", type=int, default=3, help="suite: runs per workload")
    parser.add_argument("--smoke", action="store_true", help="suite at ~1/20 size")
    parser.add_argument("--json", help="suite: write the report here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {known}")
    if args.seconds is None:
        return run_suite(args, spec)
    if args.workload is None or args.seconds <= 0 or args.setup_repeats < 1:
        parser.error("--seconds needs --workload, a positive value and --setup-repeats >= 1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
