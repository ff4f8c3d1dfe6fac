"""Tests for benchmark reporting helpers."""

from __future__ import annotations

import csv
import io

from repro.bench.reporting import format_table, rows_to_csv

ROWS = [
    {"label": "a", "throughput": 100, "latency": 2.0},
    {"label": "b", "throughput": 250, "latency": 1.0},
]


class TestReporting:
    def test_format_table_contains_all_cells(self):
        table = format_table(ROWS, title="demo")
        assert "demo" in table
        for row in ROWS:
            for value in row.values():
                assert str(value) in table

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="x")

    def test_rows_to_csv(self):
        csv_text = rows_to_csv(ROWS)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "label,throughput,latency"
        assert lines[1] == "a,100,2.0"
        assert rows_to_csv([]) == ""

    def test_rows_to_csv_quotes_cells_that_hold_delimiters(self):
        """A fault-matrix ``culprits`` cell such as ``s2,s1`` stays one cell."""
        rows = [{"scenario": "tampered-catchup@always", "culprits": "s2,s1", "note": 'say "hi"'}]
        parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
        assert parsed == [["scenario", "culprits", "note"], list(rows[0].values())]
