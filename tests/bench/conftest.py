"""The sweep reports shared by the pins and the paper's claims."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def reports(tmp_path_factory):
    """``case -> report``: one ``test_sweep_rows.CASES`` command line, run once a session."""
    from test_sweep_rows import run_case

    directory = tmp_path_factory.mktemp("sweep-rows")
    cache = {}

    def get(case):
        if case not in cache:
            cache[case] = run_case(case, directory)
        return cache[case]

    return get
