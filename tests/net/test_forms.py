"""The message table: one row per message type, one handler per row."""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.common.wire import WIRE_CLASSES
from repro.net.forms import (
    MESSAGES,
    Ack,
    Applied,
    ChallengeResponse,
    Refusal,
    read_reply,
)
from repro.net.message import MessageType
from repro.server.server import DatabaseServer

#: Replies that are not declared forms yet, each for a stated reason (see the
#: table's comments and ROADMAP item 6).  The set can only shrink.
UNDECLARED_REPLIES = {MessageType.AUDIT_LOG_REQUEST}


class TestTheTableIsTotal:
    def test_members_rows_and_handlers_are_in_bijection(self):
        assert list(MESSAGES) == list(MessageType)
        handlers = {name for name in vars(DatabaseServer) if name.startswith("_on_")}
        assert handlers == {f"_on_{member.value}" for member in MessageType}

    def test_the_undeclared_replies_are_exactly_those_named(self):
        assert {m for m, row in MESSAGES.items() if row.reply is None} == UNDECLARED_REPLIES

    def test_every_form_is_a_wire_class(self):
        """... and so has a builder, a pinned digest, the round trips, the byte
        reader against its oracle and the decoder fuzz (``tests/check/test_wire_*``,
        all parametrised over ``WIRE_CLASSES``)."""
        forms = {row.request for row in MESSAGES.values()}
        forms |= {row.reply for row in MESSAGES.values() if row.reply is not None}
        forms.add(Refusal)
        assert all(WIRE_CLASSES.get(form.__name__) is form for form in forms)

    def test_handle_builds_no_dispatch_table(self):
        source = textwrap.dedent(inspect.getsource(DatabaseServer.handle))
        assert not [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Dict)]


class TestReadReply:
    def test_the_rows_form(self):
        reply = read_reply(MessageType.CHALLENGE, "s1", ChallengeResponse(12, 0.5).to_wire())
        assert reply == ChallengeResponse(12, 0.5)

    def test_a_refusal(self):
        data = Refusal("s1", "no such round", 0.25).to_wire()
        assert read_reply(MessageType.CHALLENGE, "s1", data) == Refusal("s1", "no such round", 0.25)

    @pytest.mark.parametrize(
        "data, names",
        [
            ({"response": 12}, "compute_time"),
            ({"response": "12", "compute_time": 0.5}, "response"),
            ({"response": 12, "compute_time": "1"}, "compute_time"),
            ({"response": 12, "compute_time": 0.5, "ok": "no"}, "ok"),
            ({"response": True, "compute_time": 0.5}, "response"),
            (None, "wire form"),
            ([], "wire form"),
            (Applied(True, 0.5).to_wire(), "response"),  # another row's reply
            (Ack("s1").to_wire(), "server_id"),
        ],
    )
    def test_anything_else_is_a_refusal_naming_what_is_wrong(self, data, names):
        reply = read_reply(MessageType.CHALLENGE, "s1", data)
        assert isinstance(reply, Refusal) and not reply.unreachable
        assert reply.server_id == "s1" and names in reply.reason

    def test_who_answered_and_that_it_did_are_not_the_peers_to_state(self):
        """``leader_silent`` withholds ``ROUND_FAILED`` when the coordinator's
        own server is the unreachable one: a cohort must not be able to say so."""
        lie = Refusal("s0", "it was s0, and it is down", 0.25, unreachable=True).to_wire()
        assert read_reply(MessageType.GET_VOTE, "s1", lie) == Refusal(
            "s1", "it was s0, and it is down", 0.25, unreachable=False
        )
