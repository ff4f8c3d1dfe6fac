"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.common import errors
from repro.crypto.keys import PrivateKey
from repro.net.latency import UniformLatency
from repro.sim import PipelinedRoundScheduler, VirtualClock
from repro.sim.context import FixedCompute


def test_all_errors_derive_from_fides_error():
    for name in ("ConfigurationError", "SignatureError", "ValidationError",
                 "ProtocolError", "StorageError", "AuditError"):
        assert issubclass(getattr(errors, name), errors.FidesError)


def test_catching_base_catches_all():
    with pytest.raises(errors.FidesError):
        raise errors.StorageError("boom")


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: PrivateKey(0), errors.ConfigurationError),
        (lambda: UniformLatency(low=0.2, high=0.1), errors.ConfigurationError),
        (lambda: FixedCompute(-1), errors.ConfigurationError),
        (lambda: PipelinedRoundScheduler(pipeline_depth=0), errors.ConfigurationError),
        (lambda: VirtualClock().advance(-0.1), errors.ProtocolInvariantError),
    ],
    ids=["private-key", "uniform-latency", "fixed-compute", "scheduler-depth", "clock-advance"],
)
def test_argument_checks_raise_fides_errors(build, expected):
    # The builtin-raise row of the guard table: protocol packages raise only
    # FidesError subclasses, argument checks included.
    with pytest.raises(expected):
        build()
