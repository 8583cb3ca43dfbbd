"""Chern class data and the bundles built from it: twists, duals, sums of line bundles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_census import (
    ChernVector,
    dual,
    elementary_symmetric,
    from_line_bundles,
    twist_by_line,
)
from oracles import elem_sym_brute

degrees = st.lists(st.integers(-5, 5), min_size=1, max_size=6)


class TestChernVector:
    def test_stores_up_to_min_rank_dim(self):
        v = ChernVector(4, 3, (1, 2, 3, 4))
        assert v.classes == (1, 2, 3)
        assert v.full_classes == (1, 2, 3, 0)

    def test_trimmed_input_accepted(self):
        assert ChernVector(5, 2, (7, 8)).classes == (7, 8)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ChernVector(3, 5, (1, 2))

    @pytest.mark.parametrize("rank, dim, message", [
        (2, 3, "expected 2 classes for rank 2 on CP^3, got 1"),
        (4, 3, "expected 3 classes for rank 4 on CP^3 (or all 4), got 1"),
    ], ids=["stores_every_class", "stores_fewer_than_rank"])
    def test_wrong_length_is_named(self, rank, dim, message):
        with pytest.raises(ValueError) as raised:
            ChernVector(rank, dim, (1,))
        assert str(raised.value) == message

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            ChernVector(2, 3, (1.5, 2))

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            ChernVector(0, 3, ())


class TestTwist:
    def test_zero_twist_is_identity(self):
        v = ChernVector(3, 4, (1, 2, 3))
        assert twist_by_line(v, 0) == v

    def test_rank_two_first_class(self):
        v = twist_by_line(ChernVector(2, 3, (3, 7)), 5)
        assert v.classes[0] == 3 + 2 * 5

    def test_twist_untwist(self):
        v = ChernVector(4, 5, (1, -2, 3, -4))
        for d in range(-4, 5):
            assert twist_by_line(twist_by_line(v, d), -d) == v

    @given(ds=degrees, d=st.integers(-5, 5))
    @settings(max_examples=200)
    def test_matches_root_shift(self, ds, d):
        # twisting a sum of line bundles shifts every degree
        n = len(ds)
        v = from_line_bundles(ds, n + 1)
        shifted = from_line_bundles([x + d for x in ds], n + 1)
        assert twist_by_line(v, d) == shifted


class TestDual:
    def test_zero_fixed(self):
        v = ChernVector(3, 4, (0, 0, 0))
        assert dual(v) == v

    def test_sign_rule(self):
        assert dual(ChernVector(3, 4, (1, 2, 3))).classes == (-1, 2, -3)

    @given(ds=degrees)
    @settings(max_examples=150)
    def test_involution(self, ds):
        v = from_line_bundles(ds, len(ds))
        assert dual(dual(v)) == v

    @given(ds=degrees)
    @settings(max_examples=150)
    def test_matches_negated_roots(self, ds):
        n = len(ds)
        assert dual(from_line_bundles(ds, n)) == from_line_bundles([-x for x in ds], n)


class TestElementarySymmetric:
    @given(ds=st.lists(st.integers(-20, 20), min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_matches_subset_sums(self, ds):
        assert elementary_symmetric(ds) == elem_sym_brute(ds)
