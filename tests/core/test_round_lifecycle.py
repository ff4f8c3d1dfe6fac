"""The declared lifecycles: a round on its coordinator and on a cohort.

Round-state hygiene used to be *inferred* -- a CFG analysis proving that
every path arming a round reaches a release.  It is now a property of two
small tables, checked here directly: every status a round can be in reaches
a terminal one, nothing leaves a terminal one, and the coordinator's
``Round`` refuses any transition the table does not list.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolInvariantError
from repro.core.rounds import ROUND_TRANSITIONS, RoundStatus
from repro.server.commitment import COHORT_TRANSITIONS, CohortStatus
from repro.server.faults import FaultPlan
from repro.txn.operations import WriteOp

TABLES = {
    "coordinator": (
        ROUND_TRANSITIONS,
        {RoundStatus.DECIDED, RoundStatus.DELIVERED, RoundStatus.FAILED},
    ),
    "cohort": (COHORT_TRANSITIONS, {CohortStatus.RELEASED}),
}


def _reachable(table, start):
    seen, frontier = set(), [start]
    while frontier:
        status = frontier.pop()
        if status not in seen:
            seen.add(status)
            frontier.extend(table[status])
    return seen


@pytest.mark.parametrize("side", sorted(TABLES))
class TestTransitionTables:
    def test_the_table_is_total_over_the_enum(self, side):
        table, _ = TABLES[side]
        statuses = set(type(next(iter(table))))
        assert set(table) == statuses
        assert all(successors <= statuses for successors in table.values())

    def test_nothing_leaves_a_terminal_status(self, side):
        table, terminal = TABLES[side]
        assert {status for status in table if not table[status]} == terminal

    def test_every_status_reaches_a_terminal_one(self, side):
        table, terminal = TABLES[side]
        for status in table:
            assert _reachable(table, status) & terminal, status

    def test_no_status_is_unreachable_from_the_first(self, side):
        table, _ = TABLES[side]
        first = next(iter(table))
        assert _reachable(table, first) == set(table)


class TestCoordinatorRound:
    def _open(self, system):
        item = system.shard_map.items_of("s1")[0]
        client = system.client(0)
        session = client.begin()
        client.write(session, item, 1)
        coordinator = system.coordinator
        # Intercept the round the template opens, leaving the protocol alone.
        opened = []
        run = coordinator._run

        def recording_run(round):
            opened.append(round)
            run(round)

        coordinator._run = recording_run
        client.commit_with_response(session)
        return coordinator, opened[0]

    def test_a_committed_round_walks_the_whole_table(self, small_system):
        _, round = self._open(small_system)
        assert round.status is RoundStatus.DECIDED and round.result.committed
        assert round.task.done_at is not None

    @pytest.mark.parametrize("status", list(RoundStatus))
    def test_a_terminal_round_refuses_every_transition(self, small_system, status):
        _, round = self._open(small_system)
        with pytest.raises(ProtocolInvariantError, match="illegal round transition"):
            round.advance(status)

    def test_closing_a_round_still_in_flight_is_refused(self, small_system):
        coordinator, round = self._open(small_system)
        round.status = RoundStatus.VOTED
        with pytest.raises(ProtocolInvariantError, match="closed while still voted"):
            coordinator._close(round)

    @pytest.mark.parametrize(
        "plan, sends_round_failed",
        [
            (FaultPlan("crash", "s2", {"kind": "phase", "phases": ["vote"]}), True),
            (FaultPlan("fake-root", "s0", params={"victim": "s1"}), True),
            # The coordinator's own server is the silent peer: the armed
            # state is kept for the view change to collect.
            (FaultPlan("crash", "s0", {"kind": "phase", "phases": ["vote"]}), False),
        ],
    )
    def test_a_failed_round_releases_its_cohorts_from_the_one_exit(
        self, small_system, plan, sends_round_failed
    ):
        small_system.inject_fault(plan.target, [plan])
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).status == "failed"
        sent = small_system.sim.obs.metrics.counter_value("net.bytes.round_failed")
        assert (sent > 0) is sends_round_failed
        armed = {
            sid: server.commitment.pending_round_count()
            for sid, server in small_system.servers.items()
            if not server.crashed
        }
        assert any(armed.values()) is not sends_round_failed
