"""``python -m repro.check``: what the CI budget explores, pinned per scenario.

Every run is deterministic given its pick prefix, so a ``--smoke`` sweep
covers exactly the same runs, states and choice points on every machine.
A change to how a scenario's deployment is built or driven that moves any
of these counts changes what the checker explores, and must say so here.
A budget that admits no run is a usage error, not a clean exploration.
"""

from __future__ import annotations

import json
from contextlib import redirect_stdout
from io import StringIO

import pytest

from repro.check.__main__ import main

#: scenario -> (runs, distinct_states, choice_points) under ``--smoke``.
SMOKE = {
    "classic-byzantine": (15, 208, 275),
    "classic-crash": (15, 255, 317),
    "scaled-reorder": (15, 126, 179),
    "sharded-ordering": (15, 305, 360),
    "view-change": (15, 382, 445),
}


@pytest.fixture(scope="module")
def smoke_report():
    out = StringIO()
    with redirect_stdout(out):
        status = main(["--smoke", "--json"])
    assert status == 0
    return json.loads(out.getvalue())


def test_smoke_explores_the_pinned_runs_states_and_choice_points(smoke_report):
    explored = {
        document["scenario"]: (
            document["runs"],
            document["distinct_states"],
            document["choice_points"],
        )
        for document in smoke_report["scenarios"]
    }
    assert explored == SMOKE


def test_smoke_is_clean_and_totals_the_scenarios(smoke_report):
    assert smoke_report["violations"] == 0
    assert smoke_report["total_runs"] == sum(runs for runs, _, _ in SMOKE.values())
    assert smoke_report["total_distinct_states"] == sum(
        states for _, states, _ in SMOKE.values()
    )


@pytest.mark.parametrize(
    "argv",
    [["--max-runs", "0"], ["--max-runs", "-3"], ["--max-states", "0"], ["--max-depth", "-1"]],
    ids=" ".join,
)
def test_a_budget_that_admits_no_run_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "must be >=" in capsys.readouterr().err
