"""ChoiceSource semantics: replay, defaults, features, and the loop hook."""

from __future__ import annotations

import pytest

from repro.check.choices import (
    ChoiceError,
    ChoicePoint,
    ChoiceSource,
    choose,
    choose_order,
    driven_by,
)


class TestUndriven:
    def test_choose_returns_default_without_a_source(self):
        assert choose("x", 5, 2) == 2

    def test_choose_order_is_identity_without_a_source(self):
        items = ["c", "a", "b"]
        assert choose_order("x", items) == items
        assert choose_order("x", items) is not items  # always a fresh list


class TestDriven:
    def test_prefix_is_replayed_then_defaults(self):
        source = ChoiceSource([1, 2])
        with driven_by(source):
            assert choose("a", 3, 0) == 1
            assert choose("b", 4, 0) == 2
            assert choose("c", 3, 0) == 0  # past the prefix: default
        assert source.picks() == [1, 2, 0]
        assert [point.label for point in source.trace] == ["a", "b", "c"]

    def test_single_option_sites_are_not_recorded(self):
        source = ChoiceSource([])
        with driven_by(source):
            assert choose("only", 1, 0) == 0
        assert source.trace == []

    def test_out_of_range_prefix_pick_raises(self):
        source = ChoiceSource([7])
        with driven_by(source):
            with pytest.raises(ChoiceError):
                choose("a", 3, 0)

    def test_feature_gating(self):
        source = ChoiceSource([1], features={"on"})
        with driven_by(source):
            assert choose("gated", 3, 0, feature="off") == 0  # default, unrecorded
            assert choose("live", 3, 0, feature="on") == 1
        assert [point.label for point in source.trace] == ["live"]

    def test_nested_driving_is_rejected(self):
        with driven_by(ChoiceSource([])):
            with pytest.raises(ChoiceError):
                with driven_by(ChoiceSource([])):
                    pass

    def test_trace_points_are_frozen(self):
        source = ChoiceSource([1])
        with driven_by(source):
            choose("a", 2, 0)
        point = source.trace[0]
        assert isinstance(point, ChoicePoint)
        with pytest.raises(AttributeError):
            point.picked = 0

    def test_node_fingerprints_share_prefixes(self):
        first = ChoiceSource([1, 0])
        with driven_by(first):
            choose("a", 2, 0)
            choose("b", 2, 0)
        second = ChoiceSource([1, 1])
        with driven_by(second):
            choose("a", 2, 0)
            choose("b", 2, 0)
        # Same first pick at the same site -> shared first node; the second
        # node diverges.
        assert first.node_fingerprints[0] == second.node_fingerprints[0]
        assert first.node_fingerprints[1] != second.node_fingerprints[1]


class TestChooseOrder:
    def test_permutations_are_enumerable(self):
        items = ["a", "b", "c"]
        seen = set()
        # 3! = 6 pick sequences: first pick in 0..2, second in 0..1.
        for first in range(3):
            for second in range(2):
                source = ChoiceSource([first, second])
                with driven_by(source):
                    seen.add(tuple(choose_order("perm", items)))
        assert len(seen) == 6

    def test_default_prefix_is_identity(self):
        source = ChoiceSource([])
        with driven_by(source):
            assert choose_order("perm", ["x", "y", "z"]) == ["x", "y", "z"]
