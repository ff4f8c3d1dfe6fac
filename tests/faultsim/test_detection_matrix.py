"""The auditor-detection matrix: every ViolationType is reachable and caught.

This suite is the executable form of the paper's central claim (Lemmas 1-7):
for *every* violation class the auditor can report there is at least one
declarative :class:`FaultPlan` that produces it, the auditor detects it, and
the culprit attribution is correct.  If a violation type becomes unreachable
(no scenario produces it) or undetected, the suite fails.

The matrix runs once, as the ``faultmatrix`` sweep does: each scenario gives
an :class:`~repro.audit.report.AuditReport` and a table row, and the
assertions read one or the other.  The expectation a row is judged against
(the culprits the scenario must pin) is the scenario table itself.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.audit.violations import ViolationType
from repro.bench import harness
from repro.bench.experiments import run_sweep
from repro.faultsim import build_fault_matrix, run_scenario

#: Violation types that protocol-level faults (caught inside the TFCommit
#: round, before any block is logged) can never place in an audit report.
PROTOCOL_ONLY_FAULTS = {
    "corrupt-commitment",
    "corrupt-response",
    "equivocate",
    "fake-root",
    "byzantine-coordinator",
}

#: Scenario name -> scenario: what each always-trigger row must report.
SCENARIOS = {
    scenario.name: scenario
    for scenario in build_fault_matrix(["s0", "s1", "s2"], trigger_variants=(("always", {}),))
}

#: Liveness scenario -> ``(server, peers whose catch-up it rejected)`` for
#: every recovery the script makes, in order.
RECOVERIES = {
    "crash@always": [("s1", ())],
    "tampered-catchup@always": [("s2", ("s1",))],
    "coordinator-crash@always": [("s0", ())],
}

#: The columns that hold wall-clock times (everything else is deterministic).
WALL_CLOCK = ("audit (ms)", "audit overhead (x)")


def deterministic(row):
    return {column: cell for column, cell in row.items() if column not in WALL_CLOCK}


def culprits(row):
    return () if row["culprits"] == "-" else tuple(row["culprits"].split(","))


def recording_build(built, on_system=None):
    """``harness.build``, recording every config handed to it."""
    build = harness.build

    def recording(config, *args, **options):
        built.append(config)
        system, workload = build(config, *args, **options)
        if on_system is not None:
            on_system(system)
        return system, workload

    return recording


@pytest.fixture(scope="module")
def campaign():
    """Run the deterministic (always-trigger) matrix once for the module."""
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "build", recording_build(built))
        reports, rows = run_sweep(
            "faultmatrix", smoke=True, num_requests=4
        )
    return SimpleNamespace(
        results={row["scenario"]: (report, row) for report, row in zip(reports, rows)},
        built=built,
    )


class TestViolationTypeCoverage:
    @pytest.mark.parametrize("violation_type", list(ViolationType), ids=lambda v: v.value)
    def test_every_violation_type_is_produced_and_detected(self, campaign, violation_type):
        """At least one FaultPlan produces this type; the auditor catches it."""
        producing = [
            (report, row)
            for report, row in campaign.results.values()
            if row["expected"] == violation_type.value
        ]
        assert producing, (
            f"no fault scenario in the matrix produces {violation_type.value}; "
            "the detection matrix has a coverage hole"
        )
        for report, row in producing:
            assert row["detected"], f"{row['scenario']} went undetected"
            assert row["detected by"] == "audit"
            assert violation_type in {violation.kind for violation in report.violations}
            assert row["culprit ok"], (
                f"{row['scenario']}: expected "
                f"{SCENARIOS[row['scenario']].expected_culprits}, "
                f"audit blamed {row['culprits']}"
            )

    def test_protocol_level_faults_are_caught_in_the_round(self, campaign):
        """Crypto and block-assembly faults never reach the log; the round
        itself identifies the culprit (Lemma 4) or refuses to sign (Lemma 5)."""
        protocol_rows = [
            row for _, row in campaign.results.values() if row["expected"] == "protocol"
        ]
        assert {row["faults"].split("+")[0] for row in protocol_rows} == PROTOCOL_ONLY_FAULTS
        for row in protocol_rows:
            assert row["detected"], f"{row['scenario']} went undetected"
            assert row["detected by"] == "protocol"
            assert row["culprit ok"]
            assert row["blocks-to-detect"] == 0

    def test_crash_faults_are_liveness_events_not_safety_violations(self, campaign):
        """Crash faults are detected via round failure (and recovery-time
        rejection of tampered catch-up), recovered from, and never attributed
        by the auditor as a protocol violation."""
        liveness = [
            (report, row)
            for report, row in campaign.results.values()
            if row["expected"] == "liveness"
        ]
        assert liveness, "the matrix lost its crash/recovery rows"
        # Each of them recovers servers: TestRecoveries runs every one.
        assert {row["scenario"] for _, row in liveness} == set(RECOVERIES)
        for report, row in liveness:
            assert row["detected"], f"{row['scenario']} went undetected"
            assert row["detected by"] == "liveness"
            # ``culprit ok`` on a liveness row: every crash target was seen
            # unreachable by a failed round -- so each of them crashed, and
            # TestRecoveries shows which servers the script recovered.
            assert row["culprit ok"], (
                f"{row['scenario']}: expected "
                f"{SCENARIOS[row['scenario']].expected_culprits}, "
                f"observed {row['culprits']}"
            )
            assert not any(
                violation.involves(target)
                for violation in report.violations
                for target in row["targets"].split("+")
            ), f"{row['scenario']}: the audit pinned a safety violation on a crash target"
            # After recovery the audit must be clean: the crash left no trace
            # a safety check could (or should) flag.
            assert report.ok

    def test_tampered_catchup_is_rejected_during_recovery(self, campaign):
        """The decision-phase crash leaves a one-block gap; the tamperer's
        doctored state response must be rejected before an honest peer
        completes the catch-up.  ``s1`` never crashes, so the only way it is
        a liveness culprit is a rejected catch-up response."""
        _, row = campaign.results["tampered-catchup@always"]
        assert culprits(row) == ("s2", "s1")


class TestCoordinatorFailover:
    """The view-change rows: faulty coordinators are deposed, not terminal.

    Detection alone is not enough for coordinator faults -- the acceptance
    bar is *recovery*: after the view change the elected successor must
    commit new transactions and the final logs must audit clean.
    """

    def test_coordinator_crash_is_recovered_via_view_change(self, campaign):
        _, row = campaign.results["coordinator-crash@always"]
        assert row["detected"] and row["detected by"] == "liveness"
        assert culprits(row) == ("s0",)
        # ``view change`` is the successor at the new view; ``recovered``
        # is True only when blocks committed after the view change and the
        # audit came back clean.
        assert row["view change"] == "s1@v1"
        assert row["recovered"] is True

    def test_byzantine_coordinator_is_deposed_and_cluster_recovers(self, campaign):
        report, row = campaign.results["byzantine-coordinator@always"]
        assert row["detected"] and row["detected by"] == "protocol"
        assert culprits(row) == ("s0",)
        assert row["view change"].startswith("s1@")
        assert row["recovered"] is True
        assert report.ok

    def test_failover_rows_render_the_view_change(self, campaign):
        _, row = campaign.results["coordinator-crash@always"]
        assert row["view change"] == "s1@v1"
        assert row["recovered"] is True
        # Non-failover rows stay readable as dashes.
        assert campaign.results["read-corruption@always"][1]["view change"] == "-"


class TestRecoveries:
    """What the rows cannot show: exactly which servers the script recovered,
    and whose catch-up response each recovery rejected."""

    @pytest.mark.parametrize("name, recoveries", sorted(RECOVERIES.items()))
    def test_the_script_recovers_the_crashed_servers(
        self, campaign, monkeypatch, name, recoveries
    ):
        recorded = []

        def record_recoveries(system):
            recover = system.recover_server

            def recording(server_id, **options):
                recovery = recover(server_id, **options)
                recorded.append((server_id, recovery.rejected_peers))
                return recovery

            system.recover_server = recording

        built = []
        monkeypatch.setattr(harness, "build", recording_build(built, record_recoveries))
        config = next(config for config in campaign.built if config.label == name)
        # The overhead column is wall-clock and not compared: any baseline does.
        report, row = run_scenario(config, SCENARIOS[name], honest_audit_s=1.0)
        assert recorded == recoveries
        assert [config.label for config in built] == [name]
        # The same scenario the matrix ran, to the row.
        assert deterministic(row) == deterministic(campaign.results[name][1])
        assert report.ok


class TestAttributionQuality:
    def test_honest_servers_are_never_blamed(self, campaign):
        for name, (_, row) in campaign.results.items():
            assert set(culprits(row)) <= set(SCENARIOS[name].expected_culprits), (
                f"{name} implicated honest servers: {row['culprits']}"
            )

    def test_detection_latency_is_reported(self, campaign):
        for name, (_, row) in campaign.results.items():
            assert row["blocks-to-detect"] != "-", name
            assert row["blocks-to-detect"] >= 0

    def test_audit_overhead_compares_against_honest_baseline(self, campaign):
        audited = [
            (report, row)
            for report, row in campaign.results.values()
            if row["detected by"] == "audit"
        ]
        assert audited
        for report, row in audited:
            assert report.audit_wall_time_s > 0
            assert row["audit (ms)"] > 0
            # The script writes 0.0 when the honest baseline took no time.
            assert row["audit overhead (x)"] > 0

    def test_each_deployment_gets_one_honest_run(self, campaign):
        """The overhead's baseline is the same deployment without faults: one
        honest build per deployment the matrix uses, then one per scenario."""
        honest = Counter(c.deployment for c in campaign.built if c.label == "honest")
        used = Counter(SCENARIOS[name].deployment for name in campaign.results)
        assert honest == Counter(dict.fromkeys(used, 1)) == {"classic": 1, "scaled": 1}
        scenario_builds = [c for c in campaign.built if c.label != "honest"]
        assert [c.label for c in scenario_builds] == list(campaign.results)
        assert all(c.deployment == SCENARIOS[c.label].deployment for c in scenario_builds)

    def test_fault_height_recorded_for_live_faults(self, campaign):
        # Hook-driven faults record the block height at which they first
        # fired -- the anchor of the blocks-until-detection metric.
        _, row = campaign.results["read-corruption@always"]
        assert row["fault@block"] != "-"

    def test_rows_are_reportable(self, campaign):
        for name, (_, row) in campaign.results.items():
            assert row["scenario"] == name
            assert isinstance(row["detected"], bool)
            assert "blocks-to-detect" in row
            assert "audit overhead (x)" in row
