"""Compare two ``run.py --json`` reports under the benchmark's own bounds.

``python benchmarks/perf/compare.py A.json B.json`` treats A as the parent and
B as the change.  For every end-to-end metric x workload it prints one of

``better``      every run of B reads better than every run of A;
``same``        B's median is no worse than A's by more than the metric's bound;
``worse``       B's median is worse than A's by more than the bound;
``unresolved``  the two min..max ranges overlap by more than the bound (as a
                share of A's median), so the runs cannot tell the sides apart
                at the bound's resolution: run more, do not read it as "same".

It also reports whether the counters that repeat exactly for a seed
(``*.calls``, ``net.msgs``, ``net.bytes``, ``recovery.wal_*``,
``core.blocks_*``) and ``log_head`` are identical.  Exit status is non-zero
on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

EXACT_PREFIXES = ("net.msgs", "net.bytes", "recovery.wal_", "core.blocks_")


def verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    """Classify one metric given both sides' ``median``/``min``/``max``."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"])
    worsening = sign * (b["median"] - a["median"]) / base
    overlap = (min(a["max"], b["max"]) - max(a["min"], b["min"])) / base
    if overlap > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    b_always_better = b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
    return "better" if b_always_better else "same"


def exact_counters(entry: Dict) -> Dict[str, object]:
    """The values that must repeat exactly for a seed."""
    exact = {"log_head": entry["log_head"]}
    for name, value in entry["counters"].items():
        if name.startswith(EXACT_PREFIXES):
            exact[name] = value
    for name, row in entry.get("per_layer", {}).items():
        if name.endswith(".calls"):
            exact[name] = row["value"]
    return exact


def compare(report_a: Dict, report_b: Dict, spec: Dict) -> List[str]:
    """Print the comparison; returns the ``metric@workload`` names judged worse."""
    worse = []
    if (report_a["seed"], report_a["seconds"]) != (report_b["seed"], report_b["seconds"]):
        print("note: the reports differ in --seed or size; counters will not match")
    for name, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(name)
        if entry_b is None:
            print(f"{name}: missing from B")
            continue
        print(f"== {name}")
        for metric in spec["end_to_end"]:
            a = entry_a["end_to_end"][metric["name"]]
            b = entry_b["end_to_end"][metric["name"]]
            result = verdict(a, b, metric["better"], metric["bound"])
            change = (b["median"] - a["median"]) / abs(a["median"]) * 100.0
            print(
                f"  {metric['name']:14s} {result:10s} {a['median']:12.4f} -> {b['median']:12.4f} "
                f"{a['unit']:6s} ({change:+.1f} %, bound {metric['bound'] * 100:.0f} %)"
            )
            if result == "worse":
                worse.append(f"{metric['name']}@{name}")
        exact_a, exact_b = exact_counters(entry_a), exact_counters(entry_b)
        changed = [key for key in exact_a if key in exact_b and exact_a[key] != exact_b[key]]
        if changed:
            for key in changed:
                print(f"  exact {key}: {exact_a[key]} -> {exact_b[key]}  CHANGED")
        else:
            print(f"  exact counters and log_head: identical ({len(exact_a)} values)")
    return worse


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.stderr.write("usage: compare.py A.json B.json\n")
        return 2
    report_a, report_b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worse = compare(report_a, report_b, spec)
    if worse:
        print(f"WORSE: {', '.join(worse)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
