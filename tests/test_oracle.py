"""Numeric verification path: root finding and agreement with the exact engine."""

import cmath
import math
import random

import pytest

from bundle_census import (
    ChernVector,
    binomial_sum,
    binomial_sum_numeric,
    check_schwarzenberger,
    compare_exact_numeric,
    find_roots,
)
from bundle_census.oracle import IMAG_SCALE, RESIDUAL_SCALE


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


class TestAgreement:
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
