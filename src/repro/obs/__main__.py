"""Trace toolbox: ``python -m repro.obs <command> <trace.jsonl> [...]``.

Commands (all read the JSONL export, one span record per line):

``summarize``
    Per-phase virtual-time attribution, span counts by category, and the
    status mix -- the quick "where did the time go" view.

``validate``
    Run the trace invariants (well-nested, every span closed); exit 1 on
    any violation.

``fingerprint``
    Print the deterministic trace fingerprint (same seed -> same hash).

``diff``
    Compare two traces: fingerprints, span-count deltas, and per-phase
    attribution deltas.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.trace import Tracer


def _load(path: Path) -> Tracer:
    return Tracer.from_records(
        json.loads(line) for line in path.read_text().splitlines() if line.strip()
    )


def _summarize(tracer: Tracer) -> str:
    lines = [f"spans: {tracer.span_count()}"]
    categories = sorted({span.category for span in tracer.spans})
    for category in categories:
        lines.append(f"  {category or '(none)'}: {tracer.span_count(category)}")
    statuses: dict = {}
    for span in tracer.spans:
        statuses[span.status] = statuses.get(span.status, 0) + 1
    lines.append(
        "statuses: "
        + ", ".join(f"{name}={count}" for name, count in sorted(statuses.items()))
    )
    attribution = tracer.phase_attribution()
    if attribution:
        lines.append("per-phase virtual time (s):")
        total = sum(attribution.values())
        for name, seconds in sorted(
            attribution.items(), key=lambda item: -item[1]
        ):
            share = 100.0 * seconds / total if total else 0.0
            lines.append(f"  {name:<14} {seconds:>10.6f}  ({share:5.1f}%)")
    lines.append(f"fingerprint: {tracer.fingerprint()}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, validate, fingerprint, and diff traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("summarize", "validate", "fingerprint"):
        command = sub.add_parser(name)
        command.add_argument("trace", type=Path)
    diff = sub.add_parser("diff")
    diff.add_argument("left", type=Path)
    diff.add_argument("right", type=Path)
    args = parser.parse_args(argv)

    if args.command == "summarize":
        print(_summarize(_load(args.trace)))
        return 0
    if args.command == "validate":
        problems = _load(args.trace).check_invariants()
        for problem in problems:
            print(problem, file=sys.stderr)
        print(
            f"{args.trace}: {len(problems)} invariant violation(s)"
            if problems
            else f"{args.trace}: trace invariants hold"
        )
        return 1 if problems else 0
    if args.command == "fingerprint":
        print(_load(args.trace).fingerprint())
        return 0
    if args.command == "diff":
        left, right = _load(args.left), _load(args.right)
        same = left.fingerprint() == right.fingerprint()
        print(f"fingerprints {'match' if same else 'DIFFER'}")
        print(f"  {args.left}: {left.fingerprint()} ({left.span_count()} spans)")
        print(f"  {args.right}: {right.fingerprint()} ({right.span_count()} spans)")
        left_phases = left.phase_attribution()
        right_phases = right.phase_attribution()
        for name in sorted(set(left_phases) | set(right_phases)):
            a, b = left_phases.get(name, 0.0), right_phases.get(name, 0.0)
            if abs(a - b) > 1e-12:
                print(f"  {name}: {a:.6f}s -> {b:.6f}s ({b - a:+.6f}s)")
        return 0 if same else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
