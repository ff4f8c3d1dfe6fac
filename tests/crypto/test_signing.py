"""Tests for the pluggable per-message signing schemes."""

from __future__ import annotations

import pytest

from repro.common.encoding import canonical_encode
from repro.common.errors import ConfigurationError, ValidationError
from repro.crypto.group import (
    CURVE_ORDER,
    FIELD_PRIME,
    INFINITY,
    Point,
    decompress_point,
)
from repro.crypto.keys import keypair_for
from repro.crypto.schnorr import SchnorrSignature, schnorr_verify
from repro.crypto.signing import (
    HashSigningScheme,
    SchnorrSigningScheme,
    make_signing_scheme,
)


@pytest.fixture(params=["schnorr", "hash"])
def scheme(request):
    return make_signing_scheme(request.param)


@pytest.fixture
def keypair():
    return keypair_for("signer", seed=2)


class TestSigningSchemes:
    def test_sign_verify_roundtrip(self, scheme, keypair):
        message = canonical_encode({"type": "read", "item": "x", "nested": [1, 2, 3]})
        signature = scheme.sign_bytes(keypair, message)
        assert scheme.verify_bytes(keypair.public, message, signature)

    def test_modified_payload_rejected(self, scheme, keypair):
        signature = scheme.sign_bytes(keypair, canonical_encode({"v": 1}))
        assert not scheme.verify_bytes(keypair.public, canonical_encode({"v": 2}), signature)

    def test_wrong_key_rejected(self, scheme, keypair):
        other = keypair_for("other", seed=2)
        signature = scheme.sign_bytes(keypair, b"v=1")
        assert not scheme.verify_bytes(other.public, b"v=1", signature)

    def test_garbage_signature_rejected(self, scheme, keypair):
        assert not scheme.verify_bytes(keypair.public, b"v=1", b"garbage")
        assert not scheme.verify_bytes(keypair.public, b"v=1", 12345)

    def test_factory_round_trip(self):
        assert isinstance(make_signing_scheme("schnorr"), SchnorrSigningScheme)
        assert isinstance(make_signing_scheme("hash"), HashSigningScheme)

    def test_factory_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            make_signing_scheme("rsa")

    def test_schnorr_signature_length(self, keypair):
        scheme = SchnorrSigningScheme()
        assert len(scheme.sign_bytes(keypair, b"payload")) == 65


# -- the accept/reject set of Schnorr envelope verification ---------------------
#
# Recorded at the commit before the group-arithmetic rewrite: every verdict
# below is what ``SchnorrSigningScheme.verify_bytes`` returned there, and the
# object-level ``schnorr_verify`` must agree wherever the blob decodes.

_MESSAGE = b"envelope payload"
_KEYPAIR = keypair_for("signer", seed=2)
_SIGNATURE = SchnorrSigningScheme().sign_bytes(_KEYPAIR, _MESSAGE)
_R, _S = _SIGNATURE[:33], _SIGNATURE[33:]
#: x = 1 is the abscissa of a curve point, x = 5 is not.
_X_ON_CURVE, _X_OFF_CURVE = 1, 5


def _word(value: int) -> bytes:
    return value.to_bytes(32, "big")


def _flip(blob: bytes, bit: int) -> bytes:
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(flipped)


def _decoded(blob) -> SchnorrSignature:
    """The blob as a ``SchnorrSignature``, or ``None`` where ``R`` has no point."""
    try:
        return SchnorrSignature(decompress_point(blob[:33]), int.from_bytes(blob[33:], "big"))
    except (ValidationError, TypeError):
        return None


_VERDICTS = [
    ("valid", _KEYPAIR.public, _MESSAGE, _SIGNATURE, True),
    ("wrong-key", keypair_for("other", seed=2).public, _MESSAGE, _SIGNATURE, False),
    ("wrong-message", _KEYPAIR.public, _MESSAGE + b"!", _SIGNATURE, False),
    ("s-equals-n", _KEYPAIR.public, _MESSAGE, _R + _word(CURVE_ORDER), False),
    ("s-all-ones", _KEYPAIR.public, _MESSAGE, _R + _word(2**256 - 1), False),
    ("s-zero", _KEYPAIR.public, _MESSAGE, _R + _word(0), False),
    ("prefix-00", _KEYPAIR.public, _MESSAGE, b"\x00" + _SIGNATURE[1:], False),
    ("prefix-04", _KEYPAIR.public, _MESSAGE, b"\x04" + _SIGNATURE[1:], False),
    ("prefix-parity-swapped", _KEYPAIR.public, _MESSAGE, _flip(_SIGNATURE, 7), False),
    ("R-x-on-curve", _KEYPAIR.public, _MESSAGE, b"\x02" + _word(_X_ON_CURVE) + _S, False),
    (
        "R-x-not-below-p",
        _KEYPAIR.public,
        _MESSAGE,
        b"\x02" + _word(FIELD_PRIME + _X_ON_CURVE) + _S,
        False,
    ),
    ("R-x-equals-p", _KEYPAIR.public, _MESSAGE, b"\x02" + _word(FIELD_PRIME) + _S, False),
    ("R-not-on-curve", _KEYPAIR.public, _MESSAGE, b"\x02" + _word(_X_OFF_CURVE) + _S, False),
    ("R-infinity-padded", _KEYPAIR.public, _MESSAGE, b"\x00" * 33 + _S, False),
    ("64-bytes", _KEYPAIR.public, _MESSAGE, _SIGNATURE[:-1], False),
    ("66-bytes", _KEYPAIR.public, _MESSAGE, _SIGNATURE + b"\x00", False),
    ("empty", _KEYPAIR.public, _MESSAGE, b"", False),
    ("bytearray", _KEYPAIR.public, _MESSAGE, bytearray(_SIGNATURE), True),
    ("str", _KEYPAIR.public, _MESSAGE, _SIGNATURE.hex(), False),
    ("int", _KEYPAIR.public, _MESSAGE, 12345, False),
    ("none", _KEYPAIR.public, _MESSAGE, None, False),
]


class TestSchnorrEnvelopeVerdicts:
    @pytest.mark.parametrize(
        "public, message, blob, expected",
        [row[1:] for row in _VERDICTS],
        ids=[row[0] for row in _VERDICTS],
    )
    def test_verdict_table(self, public, message, blob, expected):
        assert SchnorrSigningScheme().verify_bytes(public, message, blob) is expected
        decoded = _decoded(blob) if isinstance(blob, (bytes, bytearray)) else None
        if decoded is not None and len(blob) == 65:
            assert schnorr_verify(public, message, decoded) is expected

    @pytest.mark.parametrize("part, offset, bits", [("R", 0, 264), ("s", 264, 256)])
    def test_every_single_bit_flip_is_rejected(self, part, offset, bits):
        scheme = SchnorrSigningScheme()
        accepted = []
        for bit in range(offset, offset + bits):
            blob = _flip(_SIGNATURE, bit)
            verdict = scheme.verify_bytes(_KEYPAIR.public, _MESSAGE, blob)
            decoded = _decoded(blob)
            if decoded is not None:
                assert schnorr_verify(_KEYPAIR.public, _MESSAGE, decoded) is verdict
            if verdict:
                accepted.append(bit)
        assert accepted == [], f"bit flips in {part} accepted: {accepted}"

    def test_object_level_rejects_what_bytes_cannot_carry(self):
        signature = _decoded(_SIGNATURE)
        public = _KEYPAIR.public
        # s + n is the same residue, but out of range.
        out_of_range = SchnorrSignature(signature.nonce_point, signature.scalar + CURVE_ORDER)
        assert not schnorr_verify(public, _MESSAGE, out_of_range)
        assert not schnorr_verify(public, _MESSAGE, SchnorrSignature(Point(1, 1), signature.scalar))
        assert not schnorr_verify(public, _MESSAGE, SchnorrSignature(INFINITY, signature.scalar))
