"""Plain-text reporting of experiment sweeps.

The paper presents its evaluation as plots; our harness prints the same
series as aligned text tables (and CSV for anyone who wants to re-plot them).
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Sequence


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render a list of row dicts (all sharing the same keys) as an aligned table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Dict[str, object]]) -> str:
    """Render rows as CSV text; a cell holding a comma or a quote is quoted."""
    if not rows:
        return ""
    columns = list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(str(row.get(column, "")) for column in columns)
    return buffer.getvalue()
