"""Micro-benchmarks of the cryptographic substrate.

Not a figure from the paper, but these are the primitives whose cost drives
every TFCommit data point: Schnorr signing/verification (object level, the
per-envelope byte level, and under a key seen for the first time, which has no
window table yet), one full CoSi round, collective-signature verification,
Merkle tree construction, incremental leaf updates, and Verification Object
checks.
"""

from __future__ import annotations

import pytest

from repro.crypto.cosi import CoSiWitness, cosi_verify, run_cosi_round
from repro.crypto.keys import keypair_for
from repro.crypto.merkle import MerkleTree, verify_inclusion
from repro.crypto.schnorr import schnorr_sign, schnorr_verify
from repro.crypto.signing import SchnorrSigningScheme


@pytest.fixture(scope="module")
def keypair():
    return keypair_for("bench-signer")


def bench_schnorr_sign(benchmark, keypair):
    benchmark(lambda: schnorr_sign(keypair, b"benchmark message"))


def bench_schnorr_verify(benchmark, keypair):
    signature = schnorr_sign(keypair, b"benchmark message")
    result = benchmark(lambda: schnorr_verify(keypair.public, b"benchmark message", signature))
    assert result


def bench_schnorr_envelope_verify_bytes(benchmark, keypair):
    scheme = SchnorrSigningScheme()
    signature = scheme.sign_bytes(keypair, b"benchmark message")
    result = benchmark(lambda: scheme.verify_bytes(keypair.public, b"benchmark message", signature))
    assert result


def bench_schnorr_verify_never_seen_key(benchmark):
    # A new key every call: the first sighting of a point multiplies it by
    # plain double-and-add, no window table (signing is outside the timer).
    counter = iter(range(10_000_000))

    def fresh():
        signer = keypair_for(f"bench-stranger-{next(counter)}")
        return (signer.public, b"benchmark message", schnorr_sign(signer, b"benchmark message")), {}

    result = benchmark.pedantic(schnorr_verify, setup=fresh, rounds=30)
    assert result


def bench_cosi_round_5_witnesses(benchmark):
    witnesses = [CoSiWitness(f"s{i}", keypair_for(f"s{i}")) for i in range(5)]
    benchmark(lambda: run_cosi_round(b"benchmark block digest", witnesses))


def bench_cosi_verify_5_witnesses(benchmark):
    witnesses = [CoSiWitness(f"s{i}", keypair_for(f"s{i}")) for i in range(5)]
    cosign = run_cosi_round(b"benchmark block digest", witnesses)
    public_keys = {w.identity: w.keypair.public for w in witnesses}
    result = benchmark(lambda: cosi_verify(cosign, b"benchmark block digest", public_keys))
    assert result


def bench_merkle_build_10k(benchmark):
    items = {f"item-{i:08d}": i for i in range(10_000)}
    benchmark(lambda: MerkleTree.from_items(items))


def bench_merkle_incremental_update_10k(benchmark):
    items = {f"item-{i:08d}": i for i in range(10_000)}
    tree = MerkleTree.from_items(items)
    counter = iter(range(10_000_000))

    def update_one():
        tree.update("item-00005000", next(counter))

    benchmark(update_one)


def bench_merkle_verification_object_10k(benchmark):
    items = {f"item-{i:08d}": i for i in range(10_000)}
    tree = MerkleTree.from_items(items)

    def prove_and_verify():
        proof = tree.verification_object("item-00000123")
        assert verify_inclusion("item-00000123", 123, proof, tree.root)

    benchmark(prove_and_verify)
