"""The chain writer against the walker.

:data:`repro.storage.record.VERSION_CHAIN` writes a chain of exactly
:data:`GENESIS_VERSION` as one constant and walks any other; on every chain
its bytes are ``canonical_encode``'s.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import canonical_encode
from repro.common.timestamps import Timestamp
from repro.storage.record import (
    GENESIS_CHAIN,
    GENESIS_VERSION,
    VERSION_CHAIN,
    RecordVersion,
    initial_version,
)

_stamps = st.one_of(
    st.sampled_from([Timestamp.zero(), Timestamp(0, "a"), Timestamp(1, "")]),
    st.builds(Timestamp, st.integers(0, 2**40), st.text(max_size=3)),
)
#: The initial value, its look-alikes, and values that are plainly other.
_values = st.one_of(
    st.sampled_from([0, False, 0.0, -0.0, 1, "0", None, b"", [0]]),
    st.integers(),
    st.text(max_size=4),
)
_versions = st.one_of(
    st.just(GENESIS_VERSION),
    st.builds(initial_version, _values),
    st.builds(RecordVersion, _values, _stamps, _stamps),
)
#: Chains that are the genesis chain, start with it, or have nothing of it.
_chains = st.one_of(
    st.just(GENESIS_CHAIN),
    st.builds(lambda rest: GENESIS_CHAIN + tuple(rest), st.lists(_versions, max_size=2)),
    st.lists(_versions, max_size=3).map(tuple),
)


class TestTheWriterIsTheWalker:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_chains)
    def test_written_bytes_are_canonical_encode_of_the_chain(self, chain):
        assert VERSION_CHAIN.write(chain) == canonical_encode(chain)
        assert VERSION_CHAIN.write(list(chain)) == canonical_encode(chain)

    def test_the_genesis_chain_is_the_one_constant(self):
        assert VERSION_CHAIN.write(GENESIS_CHAIN) is VERSION_CHAIN.write([GENESIS_VERSION])

    @pytest.mark.parametrize("value", [0, False, 0.0, -0.0], ids=repr)
    def test_a_chain_at_the_genesis_stamp_that_is_not_the_shared_version(self, value):
        version = RecordVersion(value, Timestamp.zero(), Timestamp.zero())
        assert version is not GENESIS_VERSION
        assert VERSION_CHAIN.write((version,)) == canonical_encode((version,))
