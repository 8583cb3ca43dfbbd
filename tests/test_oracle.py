"""Numeric verification path: root finding and agreement with the exact engine."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_census import (
    ChernVector,
    binomial_sum,
    binomial_sum_numeric,
    check_schwarzenberger,
    compare_exact_numeric,
    find_roots,
)
from bundle_census.oracle import (
    AGREE_TOL,
    CONDITION_CAP,
    IMAG_SCALE,
    RESIDUAL_SCALE,
    binomial_sums_numeric,
)
from oracles import binomial_sum_numeric_reference

# classes up to order 60 with |c_i| <= 10^3: roots up to about 10^3, so
# every C(delta, r) with r <= N + 1 stays inside the float range
classes_st = st.lists(st.integers(-1000, 1000), min_size=1, max_size=60).map(tuple)


def assert_close(got, want, context):
    assert abs(got - want) <= 1e-9 * max(abs(want), 1.0), context


def test_integer_roots_recovered():
    roots = find_roots(ChernVector(2, 3, (5, 6)))
    assert roots.reliable
    got = sorted(r.real for r in roots.roots)
    assert abs(got[0] - 2) < 1e-9 and abs(got[1] - 3) < 1e-9
    assert max(abs(r.imag) for r in roots.roots) < 1e-9


def test_zero_polynomial_roots():
    roots = find_roots((0, 0, 0, 0))
    assert all(abs(r) < 1e-12 for r in roots.roots)
    assert roots.reliable


def test_complex_conjugate_pair():
    # y^2 + y + 1 has the primitive sixth roots of unity as its delta_j
    roots = find_roots((1, 1))
    expected = {cmath.exp(1j * cmath.pi / 3), cmath.exp(-1j * cmath.pi / 3)}
    for r in roots.roots:
        assert min(abs(r - e) for e in expected) < 1e-9


def test_root_count_matches_degree():
    for coeffs in [(1,), (0, 0), (3, -2, 1, 7), (1, 1, 1, 1, 1, 1)]:
        assert len(find_roots(coeffs).roots) == len(coeffs)


def test_roots_sorted_deterministically():
    a = find_roots((1, -7, 2, 9))
    b = find_roots((1, -7, 2, 9))
    assert a.roots == b.roots


class TestBinomialSumNumeric:
    def test_integer_case(self):
        value = binomial_sum_numeric(ChernVector(2, 3, (5, 6)), 2)
        assert abs(value - 4.0) < 1e-9

    def test_zero_case(self):
        for r in (1, 2, 5):
            assert abs(binomial_sum_numeric((0, 0), r)) < 1e-12

    def test_half_case(self):
        value = binomial_sum_numeric((1, 1), 3)
        assert abs(value - 0.5) < 1e-6

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            binomial_sum_numeric((1, 1), 0)

    def test_degree_past_float_factorial(self):
        # r! passes the float range from r = 171; roots 300 and 250
        for r in (171, 200, 240):
            want = math.comb(300, r) + math.comb(250, r)
            assert binomial_sum_numeric(ChernVector(2, 3, (550, 75000)), r).real == pytest.approx(want, rel=1e-9)

    def test_falling_factorial_past_float_range(self):
        # roots 300 and 250: their falling factorials pass the float range
        # while r! is still a float, which used to give inf/inf = nan
        for r in (130, 150, 170):
            value = binomial_sum_numeric(ChernVector(2, 3, (550, 75000)), r)
            assert cmath.isfinite(value)
            assert value.real == pytest.approx(math.comb(300, r) + math.comb(250, r), rel=1e-9)


class TestBinomialSumsNumeric:
    """Every B_r from one cumulative product, held to the one-r-at-a-time reference."""

    @settings(max_examples=60)
    @given(classes_st)
    def test_matches_reference(self, classes):
        roots = find_roots(classes)
        n = len(classes)
        got = binomial_sums_numeric(roots, n + 1)
        assert got.shape == (n + 1,)
        for r in range(1, n + 2):
            assert_close(got[r - 1], binomial_sum_numeric_reference(roots.roots, r), (classes, r))

    def test_large_roots_past_float_factorial(self):
        # roots 300 and 250: the falling factorials pass the float range
        # from about r = 130, and r! from r = 171
        roots = find_roots(ChernVector(2, 3, (550, 75000)))
        rs = (1, 2, 3, 130, 170, 171, 200, 240, 300, 301, 320)
        got = binomial_sums_numeric(roots, max(rs))
        for r in rs:
            assert_close(got[r - 1], binomial_sum_numeric_reference(roots.roots, r), r)
            assert got[r - 1].real == pytest.approx(math.comb(300, r) + math.comb(250, r), rel=1e-9, abs=1e-9)

    def test_wrapper_indexes_the_same_pass(self):
        roots = find_roots((3, -7, 2, 9))
        sums = binomial_sums_numeric(roots, 6)
        assert [binomial_sum_numeric((3, -7, 2, 9), r, roots) for r in range(1, 7)] == sums.tolist()


def reference_rows(classes, r_values):
    """(flagged, agrees) per r as compare_exact_numeric decides them, on the reference loop."""
    roots = find_roots(classes)
    max_root = max(abs(d) for d in roots.roots)
    imag_limit = IMAG_SCALE * (1.0 + sum(abs(x) for x in classes))
    out = []
    for r in r_values:
        numeric = binomial_sum_numeric_reference(roots.roots, r)
        kappa = (1.0 + max_root) ** r
        flagged = not roots.reliable or kappa > CONDITION_CAP or abs(numeric.imag) > imag_limit
        difference = abs(numeric - float(binomial_sum(classes, r)))
        out.append((flagged, flagged or difference < AGREE_TOL * kappa))
    return out


class TestAgreement:
    @settings(max_examples=60)
    @given(classes_st)
    def test_status_matches_reference_loop(self, classes):
        r_values = range(1, len(classes) + 2)
        _, rows = compare_exact_numeric(classes, r_values)
        assert [(row.flagged, row.agrees) for row in rows] == reference_rows(classes, r_values)

    def test_rejects_bad_degree(self):
        for r_values in ([0], [2, 0, 3], [-1]):
            with pytest.raises(ValueError):
                compare_exact_numeric((5, 6, 0), r_values)

    def test_no_degrees_no_rows(self):
        roots, rows = compare_exact_numeric((5, 6, 0), [])
        assert rows == [] and roots.reliable

    def test_diagnostic_rows(self):
        _, rows = compare_exact_numeric((5, 6, 0), range(2, 4))
        assert all(row.agrees and not row.flagged for row in rows)

    def test_agrees_on_random_box(self):
        rng = random.Random(20240817)
        flagged = checked = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            coeffs = tuple(rng.randint(-10, 10) for _ in range(n))
            roots, rows = compare_exact_numeric(coeffs, range(1, n + 2))
            for row in rows:
                if row.flagged:
                    flagged += 1
                    continue
                checked += 1
                assert row.difference < row.tolerance, (coeffs, row)
        assert checked > 0
        assert flagged <= checked // 50

    def test_exact_side_is_binomial_sum(self):
        # r from 2 to n comes from one kernel pass, r = 1 and r = n + 1 one r at a time
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 12)
            coeffs = tuple(rng.randint(-50, 50) for _ in range(n))
            _, rows = compare_exact_numeric(coeffs, range(1, n + 2))
            assert [row.r for row in rows] == list(range(1, n + 2))
            assert all(row.exact == binomial_sum(coeffs, row.r) for row in rows), coeffs

    def test_imaginary_part_small(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 8)
            coeffs = tuple(rng.randint(-10, 10) for _ in range(n))
            roots = find_roots(coeffs)
            limit = IMAG_SCALE * (1 + sum(abs(c) for c in coeffs))
            for r in range(1, n + 2):
                value = binomial_sum_numeric(coeffs, r, roots)
                assert abs(value.imag) < limit, (coeffs, r)

    def test_residual_certificate(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 8)
            coeffs = tuple(rng.randint(-10, 10) for _ in range(n))
            roots = find_roots(coeffs)
            limit = RESIDUAL_SCALE * (1 + max(abs(c) for c in coeffs))
            assert roots.reliable == (roots.residual <= limit)

    def test_exact_verdict_matches_numeric_near_integrality(self):
        # on this box every denominator divides N! <= 720, so a failing
        # value is at least 1/720 from any integer and 1e-6 separates the
        # verdicts cleanly; the numeric side still only *suggests*, the
        # exact side decides
        rng = random.Random(31337)
        for _ in range(300):
            n = rng.randint(1, 6)
            classes = tuple(rng.randint(-6, 6) for _ in range(n))
            exact_ok = check_schwarzenberger(classes, n).satisfied
            roots = find_roots(classes)
            assert roots.reliable, classes
            numeric_ok = all(
                abs((v := binomial_sum_numeric(classes, r, roots)).real - round(v.real)) < 1e-6
                for r in range(2, n + 1)
            )
            assert exact_ok == numeric_ok, classes

    def test_out_of_double_range_is_flagged(self):
        roots = find_roots((10**400, 1))
        assert not roots.reliable
        _, rows = compare_exact_numeric((10**400, 1), [2])
        assert all(row.flagged for row in rows)
        # the numeric value is nan there, so no integer is near it
        assert all(row.nearest_integer_distance == float("inf") for row in rows)

    def test_unrepresentable_coefficients_are_flagged(self):
        # 2^53 + 1 rounds to a different polynomial; must flag, not compare
        roots = find_roots((2**53 + 1, 0))
        assert not roots.reliable
        _, rows = compare_exact_numeric((2**53 + 1, 0), [2])
        assert all(row.flagged for row in rows)

    def test_never_decides_integrality(self):
        # the numeric value of a failing case sits near a half-integer;
        # the exact engine, not the float, is what says "not an integer"
        value = binomial_sum_numeric((1, 1, 0), 3)
        exact = binomial_sum((1, 1, 0), 3)
        assert abs(value - 0.5) < 1e-9
        assert exact.denominator == 2
