"""Tests for the system configuration object."""

from __future__ import annotations

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError


class TestSystemConfig:
    def test_defaults_match_paper_setup(self):
        config = SystemConfig()
        assert config.num_servers == 5
        assert config.items_per_shard == 10_000
        assert config.txns_per_block == 100
        assert config.ops_per_txn == 5

    def test_server_ids(self):
        assert SystemConfig(num_servers=3).server_ids == ["s0", "s1", "s2"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_servers", 0),
            ("items_per_shard", 0),
            ("txns_per_block", 0),
            ("ops_per_txn", 0),
            ("message_signing", "rsa"),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SystemConfig(**{field: value})
