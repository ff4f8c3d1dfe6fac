"""CLI for the static protocol analyzer.

::

    python -m repro.check.static                      # human-readable, exit 1 on any finding
    python -m repro.check.static --json report.json   # also write the CI artifact
    python -m repro.check.static --json -             # report JSON on stdout

Exit status is 1 exactly when any finding is left after ``# static: allow``
markers are applied.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.schema import current_commit
from repro.check.static import run_analyses
from repro.check.static.model import SourceTree, default_root


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.static",
        description="Exception and determinism checks over src/repro.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package tree to analyze (default: the installed repro package)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the JSON report to PATH ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    root = args.root if args.root is not None else default_root()
    findings = run_analyses(SourceTree(root))
    report = {
        "tool": "repro.check.static",
        "commit": current_commit(),
        "root": str(root),
        "counts": dict(Counter(finding.rule for finding in findings)),
        "findings": [finding.to_json() for finding in findings],
    }
    if args.json == "-":
        print(json.dumps(report, indent=2))
    elif args.json is not None:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")

    if args.json != "-":
        for finding in findings:
            print(finding)
        summary = f"{len(findings)} finding(s)" if findings else "clean"
        print(f"repro.check.static: {summary} ({root})")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
