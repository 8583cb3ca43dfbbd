"""Decision engine: existence predicates, counting, regimes."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_census import (
    CORANK_ONE,
    LINE_BUNDLE,
    STABLE_RANGE,
    UNSUPPORTED,
    ChernVector,
    binomial_sum,
    check_schwarzenberger,
    count_bundles,
    dual,
    exists_rank_n_on_cp_n_plus_1,
    from_line_bundles,
    twist_by_line,
)
from bundle_census import sweep
from bundle_census.counting import UNKNOWN, CountingRule, counting_rule
from bundle_census.sweep import SweepSpec
from oracles import binom_sum_brute, elem_sym_brute

int_roots = st.lists(st.integers(-20, 20), min_size=1, max_size=10)


class TestCheckSchwarzenberger:
    def test_zero_always_satisfied(self):
        for N in range(1, 8):
            report = check_schwarzenberger((0,) * N, N)
            assert report.satisfied
            assert [t.r for t in report.values] == list(range(2, N + 1))
            assert all(t.value == 0 for t in report.values)

    def test_half_failure(self):
        report = check_schwarzenberger((1, 1, 0), 3)
        assert not report.satisfied
        assert report.values[0] == (2, Fraction(-1), True)
        assert report.values[1] == (3, Fraction(1, 2), False)
        assert report.failing() == (report.values[1],)

    @given(roots=st.lists(st.integers(-15, 15), min_size=1, max_size=10))
    @settings(max_examples=200)
    def test_integer_roots_always_satisfy(self, roots):
        N = len(roots)
        assert check_schwarzenberger(elem_sym_brute(roots), N).satisfied

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            check_schwarzenberger((1, 2, 3), 4)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            check_schwarzenberger((), 0)


class TestBinomialSum:
    def test_zero_roots(self):
        assert binomial_sum((0, 0, 0), 3) == 0

    def test_integer_roots_two_three(self):
        assert binomial_sum((5, 6), 2) == 4

    def test_half(self):
        assert binomial_sum((1, 1), 2) == Fraction(-1)
        assert binomial_sum((1, 1, 0), 3) == Fraction(1, 2)

    def test_lowest_terms(self):
        value = binomial_sum((1, 1, 0), 3)
        assert value.denominator == 2 and value.numerator == 1

    def test_rank_padding_from_vector(self):
        # rank 5 on CP^3: stored classes extend by zeros up to the rank
        v = ChernVector(5, 3, (1, 2, 3))
        for r in range(1, 8):
            assert binomial_sum(v, r) == binomial_sum((1, 2, 3, 0, 0), r)

    @given(roots=int_roots, r=st.integers(1, 12))
    @settings(max_examples=200)
    def test_line_bundle_oracle(self, roots, r):
        value = binomial_sum(elem_sym_brute(roots), r)
        assert value == binom_sum_brute(roots, r)
        assert value.denominator == 1

    @given(roots=st.lists(st.integers(-10, 10), min_size=2, max_size=10))
    @settings(max_examples=100)
    def test_r_one_is_first_class(self, roots):
        coeffs = elem_sym_brute(roots)
        assert binomial_sum(coeffs, 1) == coeffs[0]


class TestExistence:
    def test_requires_corank_one(self):
        with pytest.raises(ValueError):
            exists_rank_n_on_cp_n_plus_1(ChernVector(2, 4, (1, 1)))

    def test_zero_satisfied(self):
        assert exists_rank_n_on_cp_n_plus_1(ChernVector(3, 4, (0, 0, 0))).satisfied

    def test_spec_counterexample(self):
        assert not exists_rank_n_on_cp_n_plus_1(ChernVector(2, 3, (1, 1))).satisfied

    def test_rank_two_parity_closed_form(self):
        # existence for rank 2 on CP^3 is exactly "c1*c2 even"
        for c1 in range(-12, 13):
            for c2 in range(-12, 13):
                report = exists_rank_n_on_cp_n_plus_1(ChernVector(2, 3, (c1, c2)))
                assert report.satisfied == (c1 * c2 % 2 == 0), (c1, c2)

    def test_tests_s_n_plus_one_with_zero(self):
        v = ChernVector(2, 3, (1, 1))
        report = exists_rank_n_on_cp_n_plus_1(v)
        assert report.n_condition == 3
        direct = check_schwarzenberger((1, 1, 0), 3)
        assert report == direct


class TestCountBundles:
    def test_line_bundle_regime(self):
        for c1 in range(-5, 6):
            for m in (1, 2, 3, 7):
                result = count_bundles(ChernVector(1, m, (c1,)))
                assert result.count == 1
                assert result.regime == LINE_BUNDLE

    def test_line_bundle_agrees_with_corank_one_rule(self):
        # rank 1 on CP^2 is also corank-one; n = 1 odd would give count 1
        # whenever S_2 holds, and S_2 holds for every integer
        for c1 in range(-10, 11):
            report = exists_rank_n_on_cp_n_plus_1(ChernVector(1, 2, (c1,)))
            assert report.satisfied
            assert count_bundles(ChernVector(1, 2, (c1,))).count == 1

    def test_corank_one_count_two(self):
        result = count_bundles(ChernVector(2, 3, (0, 0)))
        assert result.count == 2
        assert result.regime == CORANK_ONE
        assert result.extension_note is not None
        assert "CP^4" in result.extension_note
        assert "exactly one" in result.extension_note

    def test_count_two_where_neither_class_extends(self):
        # the null-correlation classes: B_4 of (0, 1, 0, 0) is -5/6, so no
        # bundle on CP^4 restricts to either class
        assert check_schwarzenberger((0, 1, 0, 0), 4).failing()[0].r == 4
        result = count_bundles(ChernVector(2, 3, (0, 1)))
        assert result.count == 2
        note = result.extension_note
        assert note.startswith("neither") and "CP^4" in note and "r = 4" in note
        assert "exactly one" not in note

    def test_corank_one_count_zero(self):
        result = count_bundles(ChernVector(2, 3, (1, 1)))
        assert result.count == 0
        assert result.report is not None and not result.report.satisfied
        assert result.extension_note is None

    def test_corank_one_odd_rank(self):
        result = count_bundles(ChernVector(3, 4, (0, 0, 0)))
        assert result.count == 1
        assert result.extension_note is None

    def test_corank_one_odd_first_class(self):
        result = count_bundles(ChernVector(2, 3, (1, 2)))
        assert result.report.satisfied
        assert result.count == 1

    def test_stable_range(self):
        # rank 5 on CP^3: classes determine the bundle when S_3 holds
        v = ChernVector(5, 3, elem_sym_brute([1, 2, 3])[:3])
        result = count_bundles(v)
        assert result.regime == STABLE_RANGE
        assert result.count == 1
        assert result.report.n_condition == 3

    def test_stable_range_failure(self):
        # (1,1,0) fails S_3, the condition on CP^3
        result = count_bundles(ChernVector(5, 3, (1, 1, 0)))
        assert result.regime == STABLE_RANGE
        assert result.count == 0

    def test_unsupported(self):
        result = count_bundles(ChernVector(3, 6, (1, 2, 3)))
        assert result.count is None
        assert not result.known
        assert result.regime == UNSUPPORTED

    def test_rank_equal_dim_is_stable(self):
        assert count_bundles(ChernVector(3, 3, (0, 0, 0))).regime == STABLE_RANGE

    @given(c=st.lists(st.integers(-50, 50), min_size=2, max_size=5), extra=st.integers(1, 6))
    @settings(max_examples=200)
    def test_stable_range_count_follows_the_dimension(self, c, extra):
        # E + O has the classes of E, and on CP^dim only B_r with r <= dim is
        # a condition, so adding rank past dim never changes the count
        dim = len(c)
        assert (count_bundles(ChernVector(dim + extra, dim, c)).count
                == count_bundles(ChernVector(dim, dim, c)).count)

    def test_count_two_iff_rank_and_first_class_even(self):
        for c1 in range(-6, 7):
            for c2 in range(-6, 7):
                result = count_bundles(ChernVector(2, 3, (c1, c2)))
                if result.count in (1, 2):
                    assert (result.count == 2) == (c1 % 2 == 0)
                    assert (result.extension_note is not None) == (result.count == 2)


# (rank, dim) at every boundary of the regimes, and the rule each gets:
# the regime, the order of the condition tested, and the extension order
RULES = [
    ((1, 1), (LINE_BUNDLE, None, None)),
    ((1, 2), (LINE_BUNDLE, None, None)),
    ((1, 5), (LINE_BUNDLE, None, None)),
    ((2, 2), (STABLE_RANGE, 2, None)),
    ((5, 5), (STABLE_RANGE, 5, None)),
    ((3, 2), (STABLE_RANGE, 2, None)),
    ((9, 4), (STABLE_RANGE, 4, None)),
    ((2, 3), (CORANK_ONE, 3, 4)),
    ((3, 4), (CORANK_ONE, 4, None)),
    ((4, 5), (CORANK_ONE, 5, 6)),
    ((398, 399), (CORANK_ONE, 399, 400)),
    ((399, 400), (CORANK_ONE, 400, None)),
    ((2, 4), (UNSUPPORTED, None, None)),
    ((3, 5), (UNSUPPORTED, None, None)),
    ((2, 400), (UNSUPPORTED, None, None)),
]


class TestCountingRule:
    @pytest.mark.parametrize("shape, rule", RULES, ids=[f"{r}-on-{d}" for (r, d), _ in RULES])
    def test_rule_at_each_regime_boundary(self, shape, rule):
        assert counting_rule(*shape) == CountingRule(*rule)

    # the count code for each (satisfied, c_1) per regime: line bundle, stable
    # range, corank one of even rank (it splits) and of odd rank, unsupported
    CODES = {
        (1, 2): {(True, 0): 1, (True, 1): 1},
        (3, 2): {(True, 0): 1, (True, 1): 1, (False, 0): 0, (False, 1): 0},
        (2, 3): {(True, 0): 2, (True, -2): 2, (True, 1): 1, (False, 0): 0, (False, 1): 0},
        (3, 4): {(True, 0): 1, (True, 1): 1, (False, 0): 0, (False, 1): 0},
        (2, 4): {(True, 0): UNKNOWN, (True, 1): UNKNOWN},
    }

    @pytest.mark.parametrize("shape", CODES)
    def test_count_codes_on_scalars(self, shape):
        rule = counting_rule(*shape)
        for (satisfied, c1), code in self.CODES[shape].items():
            got = rule.count(satisfied, c1)
            assert got == code and type(got) is int, (satisfied, c1)

    def test_unknown_is_the_last_tally_slot(self):
        # a sweep tallies codes 0 to UNKNOWN; count_bundles reports UNKNOWN as None
        assert UNKNOWN == 3
        assert count_bundles(ChernVector(2, 4, (1, 2))).count is None
        spec = SweepSpec(2, 4, ((0, 1), (0, 2)))
        assert sweep.classify(spec, 0, 6).tally == (0, 0, 0, 6)


def count_two_classes(rank, dim, side):
    box = itertools.product(range(-side, side + 1), repeat=rank)
    return [c for c in box if count_bundles(ChernVector(rank, dim, c)).count == 2]


# count-2 tuples at rank 4, spread out by twists: an even-rank twist keeps the
# count but moves the classes against the two zeros of the extension test
rank_four_count_two = st.builds(
    lambda c, d: twist_by_line(ChernVector(4, 5, c), d),
    st.sampled_from(count_two_classes(4, 5, 3)),
    st.integers(-20, 20),
)
rank_two_count_two = st.builds(
    lambda k, c2: ChernVector(2, 3, (2 * k, c2)),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
)


class TestExtensionNote:
    def test_rank_two_box(self):
        notes = [count_bundles(ChernVector(2, 3, c)).extension_note
                 for c in count_two_classes(2, 3, 20)]
        assert len(notes) == 861
        assert sum(note.startswith("neither") for note in notes) == 576

    @given(v=st.one_of(rank_two_count_two, rank_four_count_two))
    @settings(max_examples=200)
    def test_says_a_class_extends_exactly_when_s_n_plus_two_holds(self, v):
        # a bundle on CP^(n+2) has c_(n+1) = c_(n+2) = 0, so S_(n+2) on (c, 0, 0)
        # is necessary for either class to extend
        result = count_bundles(v)
        assert result.count == 2
        order = v.rank + 2
        failing = [r for r in range(2, order + 1)
                   if binomial_sum(v.padded(order), r).denominator != 1]
        note = result.extension_note
        if failing:
            assert note.startswith("neither") and f"r = {failing[0]} " in note
        else:
            assert note.startswith("exactly one")
        assert f"CP^{v.dim + 1}" in note


line_sums = st.lists(st.integers(-8, 8), min_size=1, max_size=8)


class TestInvariances:
    @given(ds=line_sums)
    @settings(max_examples=150)
    def test_line_bundle_sums_always_exist(self, ds):
        n = len(ds)
        v = from_line_bundles(ds, n + 1)
        assert exists_rank_n_on_cp_n_plus_1(v).satisfied
        result = count_bundles(v)
        assert result.count is not None and result.count >= 1

    @given(
        classes=st.lists(st.integers(-6, 6), min_size=2, max_size=8),
        d=st.integers(-4, 4),
    )
    @settings(max_examples=200)
    def test_twist_preserves_existence(self, classes, d):
        n = len(classes)
        v = ChernVector(n, n + 1, tuple(classes))
        before = exists_rank_n_on_cp_n_plus_1(v).satisfied
        after = exists_rank_n_on_cp_n_plus_1(twist_by_line(v, d)).satisfied
        assert before == after

    @given(classes=st.lists(st.integers(-6, 6), min_size=2, max_size=8))
    @settings(max_examples=200)
    def test_dual_preserves_existence(self, classes):
        n = len(classes)
        v = ChernVector(n, n + 1, tuple(classes))
        assert (
            exists_rank_n_on_cp_n_plus_1(v).satisfied
            == exists_rank_n_on_cp_n_plus_1(dual(v)).satisfied
        )

    @given(
        classes=st.lists(st.integers(-6, 6), min_size=2, max_size=8).filter(
            lambda c: len(c) % 2 == 0
        ),
        d=st.integers(-4, 4),
    )
    @settings(max_examples=150)
    def test_even_rank_twist_preserves_count(self, classes, d):
        # a_1 changes by rank*d, so its parity survives when the rank is even
        n = len(classes)
        v = ChernVector(n, n + 1, tuple(classes))
        assert count_bundles(v).count == count_bundles(twist_by_line(v, d)).count
