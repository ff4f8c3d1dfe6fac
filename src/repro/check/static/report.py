"""Versioned JSON report and baseline diffing for the static analyzer.

Follows the :mod:`repro.bench.schema` conventions: a ``schema_version``
integer, the git ``commit`` the report describes, and a validator returning
a list of problems.  The report is the CI artifact; the **baseline**
(``check/static/baseline.json``, checked in next to this module) is the
accepted-findings ledger CI diffs new reports against:

- a finding whose :attr:`~repro.check.static.model.Finding.key` appears in
  the baseline is *accepted debt* -- reported, but not failing;
- any other finding is **new** and fails the run;
- a baseline entry no finding matches anymore is *stale* and reported so
  paid-off debt gets deleted rather than silently shadowing a future
  regression with the same key.

``python -m repro.check.static --update-baseline`` rewrites the baseline to
exactly the current findings (for intentional changes, reviewed like any
diff).  The shipped baseline is empty: the tree is clean, and the mechanism
exists so a future PR can land an analyzer improvement and its fixes in
separate reviewable steps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, FrozenSet, List, Sequence

from repro.bench.schema import current_commit
from repro.check.static.model import Finding

SCHEMA_VERSION = 1
TOOL_NAME = "repro.check.static"


def default_baseline_path() -> Path:
    return Path(__file__).resolve().parent / "baseline.json"


def load_baseline(path: Path) -> FrozenSet[str]:
    """The accepted finding keys; a missing file means an empty baseline."""
    if not path.exists():
        return frozenset()
    data = json.loads(path.read_text())
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: baseline schema_version {data.get('schema_version')!r} "
            f"!= {SCHEMA_VERSION}"
        )
    suppressions = data.get("suppressions", [])
    if not isinstance(suppressions, list) or not all(
        isinstance(item, str) for item in suppressions
    ):
        raise ValueError(f"{path}: 'suppressions' must be a list of finding keys")
    return frozenset(suppressions)


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    data = {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "commit": current_commit(),
        "suppressions": sorted({finding.key for finding in findings}),
    }
    path.write_text(json.dumps(data, indent=2) + "\n")


def build_report(
    findings: Sequence[Finding],
    root: Path,
    baseline: FrozenSet[str],
) -> Dict[str, object]:
    keys = {finding.key for finding in findings}
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "commit": current_commit(),
        "root": str(root),
        "counts": counts,
        "findings": [finding.to_json() for finding in findings],
        "new_findings": sorted(keys - baseline),
        "baselined_findings": sorted(keys & baseline),
        "stale_baseline_entries": sorted(baseline - keys),
    }


def validate_report(report: Dict[str, object]) -> List[str]:
    """Return the list of schema problems (empty = valid)."""
    problems: List[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version {report.get('schema_version')!r} != {SCHEMA_VERSION}"
        )
    for key in ("tool", "commit", "root", "counts", "findings", "new_findings"):
        if key not in report:
            problems.append(f"missing key {key!r}")
    for entry in report.get("findings", []):
        if not isinstance(entry, dict) or "key" not in entry or "rule" not in entry:
            problems.append(f"malformed finding entry: {entry!r}")
            break
    return problems
