"""Tests for the secp256k1 group arithmetic."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.crypto import group
from repro.crypto.group import (
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    INFINITY,
    Point,
    aggregate_points,
    decompress_point,
    fused_multiply_sum,
    generator_multiply,
    point_add,
    scalar_multiply,
)

_scalars = st.integers(min_value=1, max_value=CURVE_ORDER - 1)

#: Published secp256k1 known-answer vectors ``k -> k*G`` (affine x, y).
_KNOWN_MULTIPLES = [
    (
        1,
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    ),
    (
        2,
        0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
        0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A,
    ),
    (
        3,
        0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
        0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672,
    ),
    (
        112233445566778899,
        0xA90CC3D3F3E146DAADFC74CA1372207CB4B725AE708CEF713A98EDD73D99EF29,
        0x5A79D6B289610C68BC3B47F3D72F9788A26A06868B4D8E433E1E2AD76FB7DC76,
    ),
    (
        112233445566778899112233445566778899,
        0xE5A2636BCFD412EBF36EC45B19BFB68A1BC5F8632E678132B885F7DF99C5E9B3,
        0x736C1CE161AE27B405CAFD2A7520370153C2C861AC51D6C1D5985D9606B45F39,
    ),
    (
        0xAA5E28D6A97A2479A65527F7290311A3624D4CC0FA1578598EE3C2613BF99522,
        0x34F9460F0E4F08393D192B3C5133A6BA099AA0AD9FD54EBCCFACDFA239FF49C6,
        0x0B71EA9BD730FD8923F6D25A7A91E7DD7728A960686CB5A901BB419E0F2CA232,
    ),
    (
        0x7E2B897B8CEBC6361663AD410835639826D590F393D90A9538881735256DFAE3,
        0xD74BF844B0862475103D96A611CF2D898447E288D34B360BC885CB8CE7C00575,
        0x131C670D414C4546B88AC3FF664611B1C38CEB1C21D76369D7A7A0969D61D97D,
    ),
    (
        CURVE_ORDER - 1,
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0xB7C52588D95C3B9AA25B0403F1EEF75702E84BB7597AABE663B82F6F04EF2777,
    ),
]


def _edge_scalars(width: int):
    """Scalars on the boundaries of a ``width``-bit signed recoding."""
    half = 1 << (width - 1)
    return [
        0,
        1,
        CURVE_ORDER - 1,
        CURVE_ORDER,
        CURVE_ORDER + 1,
        # The largest digit taken as it is, and the first that borrows from the next window.
        half - 1,
        half,
        half + 1,
        2 * half - 1,
        2 * half,
        # Every digit borrows, and the top one carries into the extra window.
        (1 << 256) - 1,
    ]


_WIDTHS = (group._GENERATOR_WINDOW_BITS, group._KEY_WINDOW_BITS)
_EDGES = sorted({scalar for width in _WIDTHS for scalar in _edge_scalars(width)})
_edge_or_random = st.one_of(st.sampled_from(_EDGES), st.integers(0, (1 << 256) - 1))


class TestGroupLaw:
    def test_generator_is_on_curve(self):
        assert GENERATOR.is_on_curve()

    def test_identity_element(self):
        assert point_add(GENERATOR, INFINITY) == GENERATOR
        assert point_add(INFINITY, GENERATOR) == GENERATOR

    def test_inverse_sums_to_infinity(self):
        assert point_add(GENERATOR, -GENERATOR) == INFINITY

    def test_doubling_matches_scalar_two(self):
        assert point_add(GENERATOR, GENERATOR) == scalar_multiply(2, GENERATOR)

    def test_order_times_generator_is_infinity(self):
        assert scalar_multiply(CURVE_ORDER, GENERATOR) == INFINITY

    def test_zero_scalar(self):
        assert scalar_multiply(0, GENERATOR) == INFINITY

    @settings(max_examples=15, deadline=None)
    @given(_scalars)
    def test_generator_table_matches_plain_multiplication(self, scalar):
        assert generator_multiply(scalar) == scalar_multiply(scalar, GENERATOR)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=2**64), st.integers(min_value=1, max_value=2**64))
    def test_multiplication_distributes_over_addition(self, a, b):
        left = scalar_multiply(a + b, GENERATOR)
        right = point_add(scalar_multiply(a, GENERATOR), scalar_multiply(b, GENERATOR))
        assert left == right

    @settings(max_examples=10, deadline=None)
    @given(_scalars)
    def test_results_stay_on_curve(self, scalar):
        assert scalar_multiply(scalar, GENERATOR).is_on_curve()


class TestKnownAnswers:
    """Oracles that share no code with the implementation."""

    @pytest.mark.parametrize("scalar, x, y", _KNOWN_MULTIPLES, ids=lambda v: f"{v:x}"[:12])
    def test_generator_multiples(self, scalar, x, y):
        expected = Point(x, y)
        assert expected.is_on_curve()
        assert scalar_multiply(scalar, GENERATOR) == expected
        assert generator_multiply(scalar) == expected
        assert fused_multiply_sum(scalar, 0, (GENERATOR,)) == expected
        assert fused_multiply_sum(0, scalar, (GENERATOR,)) == expected


class TestFastPathsAgainstReference:
    """Every table-driven path against the untabled ``scalar_multiply``."""

    #: A recurring point; ``fused_multiply_sum`` uses its table from the second sighting.
    tabled = scalar_multiply(12345, GENERATOR)
    key_table = group._WindowTable(tabled, group._KEY_WINDOW_BITS)

    @pytest.mark.parametrize("scalar", _EDGES, ids=lambda v: f"{v:x}"[:12])
    def test_edge_scalars(self, scalar):
        fused_multiply_sum(0, 1, (self.tabled,))  # a sighting: tabled from the second row on
        assert generator_multiply(scalar) == scalar_multiply(scalar, GENERATOR)
        on_key = scalar_multiply(scalar, self.tabled)
        # The table itself takes any scalar below 2^256, reduced or not.
        assert group._from_jacobian(
            self.key_table.accumulate(scalar, group._JAC_INFINITY)
        ) == on_key
        assert fused_multiply_sum(0, scalar, (self.tabled,)) == on_key
        assert fused_multiply_sum(scalar, scalar, (self.tabled,)) == point_add(
            scalar_multiply(scalar, GENERATOR), on_key
        )

    @settings(max_examples=25, deadline=None)
    @given(_edge_or_random)
    def test_generator_table(self, scalar):
        assert generator_multiply(scalar) == scalar_multiply(scalar, GENERATOR)

    @settings(max_examples=25, deadline=None)
    @given(_edge_or_random)
    def test_key_table(self, scalar):
        jacobian = self.key_table.accumulate(scalar, group._JAC_INFINITY)
        assert group._from_jacobian(jacobian) == scalar_multiply(scalar, self.tabled)

    @settings(max_examples=25, deadline=None)
    @given(_edge_or_random, _edge_or_random, st.booleans())
    def test_fused_multiply_sum(self, a, b, recurring):
        # A point seen for the first time takes the untabled branch.
        point = self.tabled if recurring else scalar_multiply(a | 1, self.tabled)
        if recurring:
            fused_multiply_sum(0, 1, (point,))
        expected = point_add(scalar_multiply(a, GENERATOR), scalar_multiply(b, point))
        assert fused_multiply_sum(a, b, (point,)) == expected

    @settings(max_examples=15, deadline=None)
    @given(_scalars)
    def test_opposite_multiples_cancel(self, a):
        # a*G + (n - a)*G: the last mixed addition meets its own negation ...
        assert fused_multiply_sum(a, CURVE_ORDER - a, (GENERATOR,)) == INFINITY
        # ... and a*G + a*G meets itself, which is a doubling.
        assert fused_multiply_sum(a, a, (GENERATOR,)) == scalar_multiply(2 * a, GENERATOR)

    def test_identity_operands(self):
        assert fused_multiply_sum(0, 0, (GENERATOR,)) == INFINITY
        assert fused_multiply_sum(5, 7, (INFINITY,)) == scalar_multiply(5, GENERATOR)

    @settings(max_examples=25, deadline=None)
    @given(
        _edge_or_random,
        _edge_or_random,
        st.lists(st.integers(1, 40), min_size=1, max_size=6),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_fused_multiply_sum_of_a_set(self, a, b, indices, cancel, identity, earned):
        """A signer set through its signers' tables, or through its own once earned."""
        points = [generator_multiply(index * 7919) for index in indices]
        if cancel:
            points.append(-points[0])  # P + (-P): the sum may be the identity
        if identity:
            points.insert(len(points) // 2, INFINITY)
        expected = INFINITY
        for point in points:
            expected = point_add(expected, scalar_multiply(1, point))
        expected = point_add(scalar_multiply(a, GENERATOR), scalar_multiply(b, expected))
        with pytest.MonkeyPatch.context() as patch:
            if earned:
                patch.setattr(group, "_TABLE_BUILD_COST", 1)
            for _ in range(3):  # first sighting, second sighting, tabled
                assert fused_multiply_sum(a, b, tuple(points)) == expected

    def test_sums_that_cancel(self):
        point = generator_multiply(424242)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(group, "_TABLE_BUILD_COST", 1)
            for _ in range(3):
                assert fused_multiply_sum(9, 11, (point, -point)) == generator_multiply(9)
                assert fused_multiply_sum(0, 11, (point, INFINITY, -point)) == INFINITY
                assert fused_multiply_sum(9, 11, (INFINITY, INFINITY)) == generator_multiply(9)
                assert fused_multiply_sum(9, 11, ()) == generator_multiply(9)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(_scalars, max_size=6))
    def test_aggregate_points_matches_repeated_addition(self, scalars):
        points = [generator_multiply(s) for s in scalars] + [INFINITY]
        expected = INFINITY
        for point in points:
            expected = point_add(expected, point)
        assert aggregate_points(points) == expected
        assert aggregate_points(points + [-p for p in points]) == INFINITY
        assert aggregate_points(points + points) == scalar_multiply(2, expected)


class TestKeyTables:
    """Which points get a window table, and which one makes room."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The points a table was built for, in order (the build itself is stubbed)."""
        built = []

        def build(point, width):
            built.append(point)
            return (point, width)

        monkeypatch.setattr(group, "_WindowTable", build)
        return built

    #: Real points: a signer set's table is built for their sum.
    signers = tuple(generator_multiply(index) for index in range(1, 33))

    def test_a_point_seen_once_gets_no_table(self, builds):
        tables = group._KeyTables()
        assert tables.lookup(GENERATOR) is None
        assert builds == []
        assert tables.lookup(GENERATOR) is not None
        assert builds == [GENERATOR]

    def test_more_recurring_keys_than_slots_build_one_table_each(self, builds):
        tables = group._KeyTables()
        keys = [Point(x, 0) for x in range(group._MAX_KEY_TABLES + 8)]
        for index, key in enumerate(keys):
            tables.lookup(key)
            tables.lookup(key)
            # The keys still in use stay resident while new ones arrive.
            for recent in keys[max(0, index - 5):index]:
                assert tables.lookup(recent) is not None
        assert builds == keys
        # Only the least recently used made room: the newest slots-many remain.
        for key in keys[-group._MAX_KEY_TABLES:]:
            assert tables.lookup(key) is not None
        assert builds == keys

    @pytest.mark.parametrize("size", [2, 3, 5, 32])
    def test_a_signer_set_builds_once_its_reuse_pays(self, builds, size):
        tables = group._KeyTables()
        points = self.signers[:size]
        # uses x (k - 1) reaches the cost on this use, and not before.
        paid = -(-group._TABLE_BUILD_COST // (size - 1))
        for _ in range(paid - 1):
            assert tables.set_table(points) is None
        assert builds == []
        assert tables.set_table(points) is not None
        assert builds == [aggregate_points(points)]
        for _ in range(3):
            assert tables.set_table(points) is not None
        assert len(builds) == 1

    def test_signer_sets_are_bounded_apart_from_the_keys(self, builds):
        tables = group._KeyTables()
        keys = [Point(x, 0) for x in range(group._MAX_KEY_TABLES)]
        for key in keys + keys:
            tables.lookup(key)
        first, *others = itertools.combinations(self.signers, 2)
        tables.set_table(first)
        # Many more sets than slots come and go without a build ...
        for pair in others[: 2 * group._MAX_SIGNER_SETS]:
            assert tables.set_table(pair) is None
        assert builds == keys
        # ... evict none of the keys ...
        for key in keys:
            assert tables.lookup(key) is not None
        assert builds == keys
        # ... and the least recently used set lost its count: it starts over.
        for _ in range(group._TABLE_BUILD_COST - 1):
            assert tables.set_table(first) is None
        assert builds == keys

    def test_a_set_goes_through_its_signers_tables_until_it_earns_its_own(self, monkeypatch):
        built = []

        class Counting(group._WindowTable):
            def __init__(self, point, width):
                built.append(point)
                super().__init__(point, width)

        monkeypatch.setattr(group, "_WindowTable", Counting)
        monkeypatch.setattr(group, "_KEY_TABLES", group._KeyTables())
        points = self.signers[:4]
        expected = point_add(generator_multiply(3), scalar_multiply(5, aggregate_points(points)))
        paid = -(-group._TABLE_BUILD_COST // 3)
        for use in range(1, paid + 3):
            assert fused_multiply_sum(3, 5, points) == expected
            # Each signer gets its table on its second sighting, the set on its paid-th use.
            assert built == list(points[: 4 * (use >= 2)]) + [aggregate_points(points)] * (
                use >= paid
            )

    def test_a_scaled_run_builds_no_table_in_its_steady_state(self, monkeypatch):
        """More signer sets plus keys than slots: a least-recently-used cache of
        every multiplied point would keep rebuilding the tables it evicted."""
        from repro.api import ScaledFidesSystem, SystemConfig, sharded_sequencer
        from repro.sim.context import FixedCompute
        from repro.workload.ycsb import PartitionedWorkload

        built = []

        class Counting(group._WindowTable):
            def __init__(self, point, width):
                built.append(point)
                super().__init__(point, width)

        monkeypatch.setattr(group, "_WindowTable", Counting)
        monkeypatch.setattr(group, "_KEY_TABLES", group._KeyTables())
        config = SystemConfig(
            num_servers=32,
            items_per_shard=1_000,
            txns_per_block=4,
            ops_per_txn=2,
            multi_versioned=False,
            message_signing="hash",
            seed=2020,
        )
        system = ScaledFidesSystem(
            config, compute_model=FixedCompute(0.001), sequencer=sharded_sequencer(4)
        )
        specs = PartitionedWorkload(
            partitions=[system.shard_map.items_of(sid) for sid in config.server_ids],
            ops_per_txn=2,
            locality=0.9,
            conflict_free_window=4,
            seed=2020,
        ).generate(256)
        assert system.run_workload(specs[:128]).committed == 128
        warm = len(built)
        assert system.run_workload(specs[128:]).committed == 128
        signer_sets = {block.cosign.signer_ids for block in system.servers["s0"].log}
        assert len(signer_sets | set(config.server_ids)) > group._MAX_KEY_TABLES
        assert warm > 0 and len(built) == warm


class TestPointEncoding:
    def test_compressed_roundtrip(self):
        point = generator_multiply(987654321)
        assert decompress_point(point.encode()) == point

    def test_infinity_roundtrip(self):
        assert decompress_point(INFINITY.encode()) == INFINITY

    def test_malformed_prefix_rejected(self):
        with pytest.raises(ValidationError):
            decompress_point(b"\x05" + b"\x00" * 32)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            decompress_point(b"\x02" + b"\x01" * 10)

    def test_off_curve_x_rejected(self):
        # x = 5 is not the abscissa of a curve point on secp256k1.
        with pytest.raises(ValidationError):
            decompress_point(b"\x02" + (5).to_bytes(32, "big"))

    @pytest.mark.parametrize("x", [FIELD_PRIME, FIELD_PRIME + 1, 2**256 - 1])
    def test_unreduced_x_rejected(self, x):
        # x = p + 1 would otherwise be a second encoding of the point at x = 1.
        assert decompress_point(b"\x02" + (1).to_bytes(32, "big")).x == 1
        with pytest.raises(ValidationError):
            decompress_point(b"\x02" + x.to_bytes(32, "big"))

    @settings(max_examples=10, deadline=None)
    @given(_scalars)
    def test_roundtrip_preserves_parity_choice(self, scalar):
        point = generator_multiply(scalar)
        assert decompress_point(point.encode()) == point
