"""CLI for the static protocol analyzer.

::

    python -m repro.check.static                      # human-readable, exit 1 on new findings
    python -m repro.check.static --json report.json   # also write the CI artifact
    python -m repro.check.static --json -             # report JSON on stdout
    python -m repro.check.static --update-baseline    # accept current findings

Exit status is 1 exactly when a finding is *not* covered by the baseline
(see :mod:`repro.check.static.report`); ``--update-baseline`` rewrites the
baseline and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.check.static import run_analyses
from repro.check.static.model import SourceTree, default_root
from repro.check.static.report import (
    build_report,
    default_baseline_path,
    load_baseline,
    write_baseline,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.static",
        description="Exception-effect and determinism checks over src/repro.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package tree to analyze (default: the installed repro package)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="accepted-findings ledger (default: check/static/baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to exactly the current findings and exit 0",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the JSON report to PATH ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    root = args.root if args.root is not None else default_root()
    tree = SourceTree(root)
    findings = run_analyses(tree)

    baseline_path = args.baseline or default_baseline_path()
    if args.update_baseline:
        write_baseline(baseline_path, findings)
        print(
            f"repro.check.static: wrote {len(findings)} finding key(s) to "
            f"{baseline_path}"
        )
        return 0

    baseline = load_baseline(baseline_path)
    report = build_report(findings, root, baseline)
    if args.json == "-":
        print(json.dumps(report, indent=2))
    elif args.json is not None:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")

    if args.json != "-":
        for finding in findings:
            marker = "" if finding.key not in baseline else " [baselined]"
            print(f"{finding}{marker}")
        stale = report["stale_baseline_entries"]
        for key in stale:
            print(f"stale baseline entry (no matching finding): {key}")
        new = report["new_findings"]
        summary = (
            f"repro.check.static: {len(findings)} finding(s), "
            f"{len(new)} new, {len(stale)} stale baseline entr(y/ies) ({root})"
            if findings or stale
            else f"repro.check.static: clean ({root})"
        )
        print(summary)
    return 1 if report["new_findings"] else 0


if __name__ == "__main__":
    sys.exit(main())
