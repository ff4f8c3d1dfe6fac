"""Tests for the transaction execution layer (Section 4.2.1)."""

from __future__ import annotations

import pytest

from repro.common.errors import StorageError
from repro.common.timestamps import Timestamp
from repro.net.message import Envelope, MessageType
from repro.server.execution import ExecutionLayer
from repro.server.faults import FaultPlan, FaultPolicy
from repro.storage.datastore import DataStore


@pytest.fixture
def layer():
    return ExecutionLayer(DataStore({"x": 10, "y": 20}))


class TestReadsAndWrites:
    def test_read_returns_value_and_timestamps(self, layer):
        result = layer.read("t1", "x")
        assert result.value == 10
        assert result.rts == Timestamp.zero()
        assert result.wts == Timestamp.zero()

    def test_read_unknown_item_raises(self, layer):
        with pytest.raises(StorageError):
            layer.read("t1", "missing")

    def test_writes_are_buffered_not_applied(self, layer):
        layer.begin("t1", "c0")
        ack = layer.write("t1", "x", 99)
        assert ack.value == 10  # old value, for blind-write support
        assert layer.store.read("x").value == 10
        assert layer.buffered_writes("t1") == {"x": 99}

    def test_write_unknown_item_raises(self, layer):
        with pytest.raises(StorageError):
            layer.write("t1", "missing", 1)

    def test_finish_clears_state(self, layer):
        layer.begin("t1", "c0")
        layer.write("t1", "x", 99)
        layer.finish("t1")
        assert layer.buffered_writes("t1") == {}
        assert "t1" not in layer._active

    def test_begin_is_idempotent(self, layer):
        layer.begin("t1", "c0")
        layer.write("t1", "x", 99)
        layer.begin("t1", "c0")
        assert layer.buffered_writes("t1") == {"x": 99}

    def test_multiple_transactions_are_isolated(self, layer):
        layer.write("t1", "x", 99)
        layer.write("t2", "y", 88)
        assert layer.buffered_writes("t1") == {"x": 99}
        assert layer.buffered_writes("t2") == {"y": 88}


def _lies_about_x() -> FaultPolicy:
    return FaultPolicy([FaultPlan("read-corruption", "s0", params={"item": "x", "value": -1})])


class TestFaultHooks:
    def test_read_corruption_corrupts_returned_value(self):
        layer = ExecutionLayer(DataStore({"x": 10}), faults=_lies_about_x())
        assert layer.read("t1", "x").value == -1
        # The datastore itself is untouched; only the response lies.
        assert layer.store.read("x").value == 10

    def test_fault_only_affects_target_item(self):
        layer = ExecutionLayer(DataStore({"x": 10, "y": 20}), faults=_lies_about_x())
        assert layer.read("t1", "y").value == 20


class TestClientMessageArchive:
    def test_archive_keeps_signed_requests(self, layer):
        envelope = Envelope("c0", "s0", MessageType.READ, {"item_id": "x"}, signature=b"sig")
        layer.archive_client_message(envelope)
        assert layer._client_message_log == [envelope]
