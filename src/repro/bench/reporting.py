"""Plain-text reporting of experiment sweeps.

The paper presents its evaluation as plots; our harness prints the same
series as aligned text tables (and CSV for anyone who wants to re-plot them).
"""

from __future__ import annotations

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
    """Render rows as CSV text (no external dependency)."""
    if not rows:
        return ""
    columns = list(rows[0].keys())
    buffer = io.StringIO()
    buffer.write(",".join(str(column) for column in columns) + "\n")
    for row in rows:
        buffer.write(",".join(str(row.get(column, "")) for column in columns) + "\n")
    return buffer.getvalue()
