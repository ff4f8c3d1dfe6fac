"""Command-line entry point for the model checker.

``python -m repro.check --smoke`` runs the bounded CI budget: every
registered scenario (crash, Byzantine, view-change, ordering-service
reorder and shard-merge branches) under a small per-scenario run cap,
failing the process if any invariant violation is found.  Counterexamples are minimized
and -- with ``--traces-dir`` -- saved as replayable JSON traces, which CI
uploads as artifacts so a red run ships its own reproducer.

Without ``--smoke`` the budgets come from ``--max-runs`` / ``--max-states``
/ ``--max-depth``, and ``--scenario`` narrows the sweep; ``--mutation``
re-introduces a fixed historical bug first (the self-test knobs from
:mod:`repro.check.mutations`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.check.explorer import ExplorationResult, Explorer
from repro.check.mutations import MUTATIONS, mutated
from repro.check.replay import save_trace, trace_from_counterexample
from repro.check.scenarios import SCENARIOS

#: Per-scenario run budget used by ``--smoke`` (chosen so the whole sweep
#: stays in the low seconds while still crossing >1000 distinct states).
SMOKE_MAX_RUNS = 15


def _explore_one(
    name: str,
    max_runs: int,
    max_states: Optional[int],
    max_depth: Optional[int],
    strategy: str,
    keep_going: bool,
) -> ExplorationResult:
    explorer = Explorer(
        SCENARIOS[name],
        max_runs=max_runs,
        max_states=max_states,
        max_depth=max_depth,
        strategy=strategy,
        stop_at_first_violation=not keep_going,
        minimize=True,
    )
    return explorer.explore()


def _result_document(result: ExplorationResult) -> Dict:
    return {
        "scenario": result.scenario,
        "runs": result.runs,
        "distinct_states": result.distinct_states,
        "choice_points": result.choice_points,
        "budget_exhausted": result.budget_exhausted,
        "clean": result.clean,
        "counterexamples": [
            {
                "picks": list(cex.picks),
                "invariants": cex.invariants,
                "minimized": cex.minimized,
                "violations": [
                    {"invariant": v.invariant, "message": v.message}
                    for v in cex.violations
                ],
            }
            for cex in result.counterexamples
        ],
    }


def _save_counterexamples(
    result: ExplorationResult, traces_dir: Path, mutations: Sequence[str]
) -> List[Path]:
    paths = []
    for index, cex in enumerate(result.counterexamples):
        trace = trace_from_counterexample(
            cex,
            mutations=tuple(mutations),
            description=(
                f"found by `python -m repro.check` exploring {result.scenario} "
                f"(run budget {result.runs})"
            ),
        )
        path = traces_dir / f"{result.scenario}-{index}.json"
        paths.append(save_trace(trace, path))
    return paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Explicit-state model checker over the real Fides implementation.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI budget: every scenario, {SMOKE_MAX_RUNS} runs each",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario(s) to explore (default: all)",
    )
    parser.add_argument("--max-runs", type=int, default=200, help="runs per scenario")
    parser.add_argument(
        "--max-states", type=int, default=None, help="distinct-state cap per scenario"
    )
    parser.add_argument(
        "--max-depth", type=int, default=None, help="deviation-depth cap (choice index)"
    )
    parser.add_argument("--strategy", choices=("bfs", "dfs"), default="bfs")
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="collect every counterexample instead of stopping at the first",
    )
    parser.add_argument(
        "--mutation",
        action="append",
        default=[],
        choices=sorted(MUTATIONS),
        help="re-introduce a fixed historical bug (mutation self-test)",
    )
    parser.add_argument(
        "--traces-dir",
        type=Path,
        default=None,
        help="directory to write minimized counterexample traces into",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the full report as JSON on stdout"
    )
    args = parser.parse_args(argv)

    names = args.scenario if args.scenario else sorted(SCENARIOS)
    max_runs = SMOKE_MAX_RUNS if args.smoke else args.max_runs

    results: List[ExplorationResult] = []
    trace_paths: List[Path] = []
    with mutated(*args.mutation):
        for name in names:
            result = _explore_one(
                name,
                max_runs=max_runs,
                max_states=args.max_states,
                max_depth=args.max_depth,
                strategy=args.strategy,
                keep_going=args.keep_going,
            )
            results.append(result)
            if args.traces_dir is not None and result.counterexamples:
                trace_paths.extend(
                    _save_counterexamples(result, args.traces_dir, args.mutation)
                )

    total_states = sum(result.distinct_states for result in results)
    total_runs = sum(result.runs for result in results)
    violations = sum(len(result.counterexamples) for result in results)

    if args.json:
        print(
            json.dumps(
                {
                    "mutations": list(args.mutation),
                    "total_runs": total_runs,
                    "total_distinct_states": total_states,
                    "violations": violations,
                    "traces": [str(path) for path in trace_paths],
                    "scenarios": [_result_document(result) for result in results],
                },
                indent=2,
            )
        )
    else:
        for result in results:
            status = "clean" if result.clean else "VIOLATION"
            print(
                f"{result.scenario}: {status} -- {result.runs} runs, "
                f"{result.distinct_states} distinct states, "
                f"{result.choice_points} choice points"
            )
            for cex in result.counterexamples:
                print(
                    f"  counterexample picks={cex.picks} "
                    f"invariants={cex.invariants}"
                )
                for violation in cex.violations:
                    print(f"    {violation.invariant}: {violation.message}")
        for path in trace_paths:
            print(f"trace written: {path}")
        print(
            f"repro.check: {total_runs} runs, {total_states} distinct states, "
            f"{violations} violation(s)"
        )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
