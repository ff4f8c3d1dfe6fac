"""Known answers of the keyed-hash envelope scheme.

``HashSigningScheme`` is HMAC-SHA-256 under a key derived from the signer's
public key.  The literals below were recorded before the scheme kept that key
and went through the one-shot ``hmac.digest``: however the MAC is computed, it
is these bytes, and ``verify_bytes`` gives these verdicts.
"""

from __future__ import annotations

import pytest

from repro.crypto.keys import keypair_for
from repro.crypto.signing import HashSigningScheme

_MESSAGES = {"empty": b"", "4k": bytes(range(256)) * 16}

#: ``HashSigningScheme().sign_bytes(keypair_for(identity), message).hex()``.
MAC_VECTORS = {
    ("s0", "empty"): "d70771444be4c347edb6436df3de5977030fa407635b3fc9b193446a51762854",
    ("s0", "4k"): "9213bfb893459302cc85010ee2ac37de1c55cf3db1fb1d5dd9ff435a8e7973d8",
    ("c1", "empty"): "fccba87bd3461a9aca68679d2434b18d55c3bfe8bb9cbf0bcf2e0dc4b0940147",
    ("c1", "4k"): "eb350807f27563c31f24ca50b8e24e413d8bfd827997ff8842f3d91419e58b04",
    ("auditor", "empty"): "0fd61558438906b6ee4fa9f9e3328a2f493d02e516c0bc410247161cd87af7c8",
    ("auditor", "4k"): "fea6f21f148243d6f1fb95cbb421c7ff420f864c2442ae05fb4b2abba9aaab67",
}


@pytest.mark.parametrize("identity,message", sorted(MAC_VECTORS))
def test_the_mac_is_the_recorded_one(identity, message):
    scheme = HashSigningScheme()
    signature = scheme.sign_bytes(keypair_for(identity), _MESSAGES[message])
    assert signature.hex() == MAC_VECTORS[(identity, message)]
    assert type(signature) is bytes


@pytest.mark.parametrize("identity,message", sorted(MAC_VECTORS))
def test_a_second_scheme_and_a_second_key_object_agree(identity, message):
    """Nothing about the answer depends on which scheme or key instance is asked."""
    first, second = HashSigningScheme(), HashSigningScheme()
    expected = bytes.fromhex(MAC_VECTORS[(identity, message)])
    for scheme in (first, second, first):
        assert scheme.sign_bytes(keypair_for(identity), _MESSAGES[message]) == expected
        assert scheme.verify_bytes(keypair_for(identity).public, _MESSAGES[message], expected)


_SIGNER = keypair_for("s0")
_MESSAGE = _MESSAGES["4k"]
_MAC = bytes.fromhex(MAC_VECTORS[("s0", "4k")])

#: ``verify_bytes(public, message, signature)`` -> the verdict.
VERDICTS = {
    "right key": (_SIGNER.public, _MESSAGE, _MAC, True),
    "right key, equal key object": (keypair_for("s0").public, _MESSAGE, _MAC, True),
    "wrong key": (keypair_for("c1").public, _MESSAGE, _MAC, False),
    "another message": (_SIGNER.public, _MESSAGES["empty"], _MAC, False),
    "flipped bit": (_SIGNER.public, _MESSAGE, bytes([_MAC[0] ^ 1]) + _MAC[1:], False),
    "flipped last bit": (_SIGNER.public, _MESSAGE, _MAC[:-1] + bytes([_MAC[-1] ^ 0x80]), False),
    "truncated": (_SIGNER.public, _MESSAGE, _MAC[:31], False),
    "extended": (_SIGNER.public, _MESSAGE, _MAC + b"\x00", False),
    "empty": (_SIGNER.public, _MESSAGE, b"", False),
    "bytearray": (_SIGNER.public, _MESSAGE, bytearray(_MAC), True),
    "bytearray, flipped bit": (
        _SIGNER.public, _MESSAGE, bytearray(_MAC[:-1] + bytes([_MAC[-1] ^ 1])), False
    ),
    "bytearray message": (_SIGNER.public, bytearray(_MESSAGE), _MAC, True),
    "None": (_SIGNER.public, _MESSAGE, None, False),
    "str": (_SIGNER.public, _MESSAGE, _MAC.hex(), False),
    "int": (_SIGNER.public, _MESSAGE, 12345, False),
}


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_verify_bytes_verdict(case):
    public, message, signature, verdict = VERDICTS[case]
    assert HashSigningScheme().verify_bytes(public, message, signature) is verdict
