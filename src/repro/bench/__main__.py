"""Command-line entry point: ``python -m repro.bench <experiment>``.

Examples
--------
Run the reduced-size Figure 13 sweep::

    python -m repro.bench figure13

Run the paper-sized Figure 12 sweep (slow; pure-Python crypto)::

    python -m repro.bench figure12 --requests 1000

List available experiments::

    python -m repro.bench --list

Run a traced smoke sweep and check its JSONL span export::

    python -m repro.bench pipeline --smoke --trace pipeline-trace.jsonl
    python -m repro.obs validate pipeline-trace.jsonl

Exit codes: 0 on success, 1 when the sweep raised or produced no rows (so a
silently empty sweep can never pass a CI smoke step), 2 for usage errors
(an unknown sweep, ``--requests`` below 1, or a flag its row of ``SWEEPS``
does not declare).  ``--json`` writes the canonical report schema
(:mod:`repro.bench.schema`), the form ``tests/bench/test_sweep_rows.py``
pins.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import List, Optional

from repro.bench.experiments import SWEEPS, run_sweep
from repro.bench.reporting import format_table, rows_to_csv
from repro.bench.schema import canonical_report
from repro.common.errors import FidesError
from repro.obs import Observability


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the evaluation figures of the Fides/TFCommit paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(SWEEPS),
        help="which figure / ablation to run",
    )
    parser.add_argument("--requests", type=int, default=None, help="client requests per point")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced grid for experiments that have one (faultmatrix: always-trigger only)",
    )
    parser.add_argument(
        "--fixed-compute-ms",
        type=float,
        default=None,
        metavar="MS",
        help="charge a fixed per-phase compute instead of measured wall time, "
        "making simulated throughput deterministic (experiments that support it)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="additionally write the canonical report schema as JSON (CI artifact)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="run with span tracing enabled and write the JSONL span export "
        "there (experiments that support it; read it with python -m repro.obs)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the run's metrics snapshot (counters/gauges/histograms) as JSON",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or not args.experiment:
        print("available experiments:")
        for name in sorted(SWEEPS):
            print(f"  {name}")
        return 0
    if args.requests is not None and args.requests < 1:
        print(f"--requests must be at least 1, not {args.requests}", file=sys.stderr)
        return 2
    sweep = SWEEPS[args.experiment]
    tracing = bool(args.trace or args.metrics)
    #: What a sweep supports is declared on its row of ``SWEEPS``.
    supported = {
        "--smoke": sweep.smoke is not None or not args.smoke,
        "--fixed-compute-ms": "fixed_compute_ms" in sweep.defaults or args.fixed_compute_ms is None,
        "--trace/--metrics": sweep.traced or not tracing,
    }
    refused = [flag for flag, fine in supported.items() if not fine]
    if refused:
        print(f"{args.experiment} does not support {', '.join(refused)}", file=sys.stderr)
        return 2
    #: The report's config block describes the sweep's *parameters*; the
    #: observability bundle is a measurement channel, not a parameter.
    report_config = {}
    if args.requests is not None:
        report_config["num_requests"] = args.requests
    if args.smoke:
        report_config["smoke"] = True
    if args.fixed_compute_ms is not None:
        report_config["fixed_compute_ms"] = args.fixed_compute_ms
    observability = (
        Observability(tracing=bool(args.trace)) if tracing else None
    )
    try:
        _, rows = run_sweep(args.experiment, obs=observability, **report_config)
    except (FidesError, OSError):
        traceback.print_exc()
        print(f"sweep {args.experiment!r} raised; failing the run", file=sys.stderr)
        return 1
    if not rows:
        print(
            f"sweep {args.experiment!r} produced no result rows; failing the run",
            file=sys.stderr,
        )
        return 1
    if args.csv:
        print(rows_to_csv(rows), end="")
    else:
        print(format_table(rows, title=args.experiment))
    trace_problems: List[str] = []
    if observability is not None:
        trace_problems = observability.tracer.check_invariants()
        for problem in trace_problems:
            print(f"trace invariant violated: {problem}", file=sys.stderr)
        if args.trace is not None:
            observability.tracer.export_jsonl(args.trace)
            print(
                f"wrote JSONL trace ({observability.tracer.span_count()} spans) "
                f"to {args.trace}"
            )
        if args.metrics is not None:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                json.dump(observability.metrics.snapshot(), handle, indent=2)
                handle.write("\n")
            print(f"wrote metrics snapshot to {args.metrics}")
    if args.json is not None:
        report = canonical_report(
            args.experiment,
            rows,
            config=report_config,
            attribution=(
                observability.attribution(makespan=observability.tracer.makespan())
                if observability is not None
                else None
            ),
        )
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
            handle.write("\n")
        print(f"wrote {len(rows)} rows to {args.json}")
    if trace_problems:
        print(
            f"{len(trace_problems)} trace invariant violation(s); failing the run",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
