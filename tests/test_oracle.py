"""Numeric verification path: root finding and agreement with the exact engine."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_census import (
    ChernVector,
    binomial_sum,
    binomial_sum_numeric,
    check_schwarzenberger,
    compare_exact_numeric,
    elementary_symmetric,
    find_roots,
    from_line_bundles,
)
from bundle_census import kernels, oracle
from bundle_census.oracle import (
    AGREE_TOL,
    BACKWARD_TOL,
    CONDITION_CAP,
    EPS,
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


def exact_backward_error(classes, z):
    """|P(z)| / sum |a_k| |z|^k, P = y^n + c_1 y^(n-1) + ... + c_n, with P(z) in exact rationals."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re, im = Fraction(1), Fraction(0)
    for c in classes:
        re, im = re * x - im * y + c, re * y + im * x
    bound = sum(abs(a) * abs(z) ** k for k, a in enumerate(reversed((1,) + classes)))
    return math.hypot(re, im) / bound


class TestAberth:
    """The pure-Python root search against numpy.roots and against known roots."""

    def test_matches_numpy_roots_on_diagnose_draws(self):
        # the draws of the diagnose benchmark: N in [20, 150], |c_i| <= M,
        # M log-uniform up to 10^3; numpy is imported here, not by the library
        import numpy as np

        rng = random.Random(150)
        for _ in range(16):
            n = rng.randint(20, 150)
            m = round(1000 ** rng.random())
            classes = tuple(rng.randint(-m, m) for _ in range(n))
            want = [-complex(z) for z in np.roots((1,) + classes)]
            roots = find_roots(classes)
            assert len(roots.roots) == n
            for delta in roots.roots:
                assert min(abs(delta - w) for w in want) <= 1e-9 * max(1.0, abs(delta)), (n, m, delta)
            # real roots and exact conjugate pairs, as numpy's eigenvalues
            # come, make every finite B_r exactly real
            sums = binomial_sums_numeric(roots, n)
            assert all(value.imag == 0 for value in sums if cmath.isfinite(value)), (n, m)

    def test_residual_is_the_largest_backward_error(self):
        # the search's float evaluation is off from exact rationals by at most
        # the rounding of Horner's rule, about 2 d eps in the backward error:
        # a bound relative to the error away from a zero, absolute at one
        classes = (11, 14, -5, 3, -13, 3, 11, 7, 14, -11)
        poly = [1.0, *map(float, classes)]
        sizes = [abs(a) for a in poly]
        forms = (poly, sizes), (poly[::-1], sizes[::-1])
        for z in (0.5 + 0.3j, -0.9j, 2 + 1j, -7.5 + 0.1j, 30j):
            error = oracle._evaluate(forms, z)[2]
            assert error == pytest.approx(exact_backward_error(classes, z), rel=1e-12), z
        roots = find_roots(classes)
        assert roots.reliable
        errors = [exact_backward_error(classes, -delta) for delta in roots.roots]
        assert max(errors) <= BACKWARD_TOL
        assert abs(roots.residual - max(errors)) <= 4 * len(classes) * EPS

    def test_trailing_zero_classes_are_exact_zero_roots(self):
        # y^6 + 2y^5 - 5y^4 - 6y^3 = y^3 (y + 1)(y - 2)(y + 3): Chern roots 0, 0, 0, 1, -2, 3
        roots = find_roots((2, -5, -6, 0, 0, 0))
        assert roots.reliable
        assert sum(delta == 0 for delta in roots.roots) == 3
        nonzero = [delta for delta in roots.roots if delta != 0]
        assert all(abs(got - want) < 1e-12 for got, want in zip(nonzero, (-2, 1, 3))), nonzero

    @pytest.mark.parametrize("degrees", [(1,) * 6, (-2,) * 4 + (3,) * 3, (0, 0, 0, 5, 5, 1)])
    def test_repeated_roots_from_line_bundles(self, degrees):
        # the Chern roots are the degrees themselves; a k-fold root is
        # determined only to about eps^(1/k) in floating point
        roots = find_roots(from_line_bundles(degrees, len(degrees) + 1))
        assert roots.reliable
        for degree in set(degrees):
            k = degrees.count(degree)
            cluster = [delta for delta in roots.roots if abs(delta - degree) < 0.5]
            assert len(cluster) == k, (degree, roots.roots)
            assert all(abs(delta - degree) < 10 * 2.0 ** (-52 / k) * max(1, abs(degree)) for delta in cluster)

    def test_large_roots_where_forward_horner_overflows(self):
        # (y + 1000)(y^149 + 1): z^150 leaves the float range for |z| > 113,
        # so near the root 10^3 the search has to evaluate in 1/z; the
        # Chern roots are 1000 and the 149th roots of unity.  |P'| is about
        # 10^447 at that root, so an absolute residual would read inf or nan
        # unless the root came out exact to the last bit; the backward error
        # scales with |z|^150 as |P| does
        classes = (1000,) + (0,) * 147 + (1, 1000)
        roots = find_roots(classes)
        assert roots.reliable, roots.residual
        want = [1000.0] + [cmath.exp(2j * cmath.pi * k / 149) for k in range(149)]
        assert all(cmath.isfinite(delta) for delta in roots.roots)
        for delta in roots.roots:
            assert min(abs(delta - w) for w in want) <= 1e-12 * max(1.0, abs(delta)), delta
        for w in want:
            assert min(abs(delta - w) for delta in roots.roots) <= 1e-12 * max(1.0, abs(w)), w

    @pytest.mark.parametrize("classes", [
        (1000,) + (0,) * 147 + (1, 1000),
        from_line_bundles((1000, -999) + (0,) * 148, 151),
    ], ids=["root_1000_and_roots_of_unity", "line_bundles_1000_and_-999"])
    def test_degree_150_roots_near_1000_read_reliable(self, classes):
        # each read reliable or not by a root's last bit while an absolute
        # residual decided it; the backward error is far below its limit
        roots = find_roots(classes)
        assert roots.reliable and roots.residual <= BACKWARD_TOL / 10, roots.residual


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
        assert len(got) == n + 1 and all(type(value) is complex for value in got)
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
        assert [binomial_sum_numeric((3, -7, 2, 9), r, roots) for r in range(1, 7)] == sums


def reference_rows(classes, r_values):
    """(flagged, agrees) per r as compare_exact_numeric decides them, on the reference loop."""
    roots = find_roots(classes)
    max_root = max(abs(d) for d in roots.roots)
    out = []
    for r in r_values:
        numeric = binomial_sum_numeric_reference(roots.roots, r)
        kappa = (1.0 + max_root) ** r
        difference = abs(numeric - float(binomial_sum(classes, r)))
        outside = difference >= AGREE_TOL * kappa
        flagged = not roots.reliable or kappa > CONDITION_CAP or (numeric.imag != 0 and outside)
        out.append((flagged, flagged or not outside))
    return out


def quadratic_power(a, b, m):
    """(c_1, ..., c_2m) of (y^2 + a y + b)^m."""
    poly = [1]
    for _ in range(m):
        poly = [x + a * y + b * z for x, y, z in zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]
    return tuple(poly[1:])


def repeated_root_sample(seed):
    """Sums of line bundles with repeated degrees, then powers of quadratics."""
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(2, 16)
        distinct = [rng.randint(-20, 20) for _ in range(rng.randint(1, n - 1))]
        degrees = distinct + [rng.choice(distinct) for _ in range(n - len(distinct))]
        yield elementary_symmetric(degrees)
    for _ in range(100):
        yield quadratic_power(rng.randint(-6, 6), rng.randint(-9, 9), rng.randint(2, 8))


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

    def test_chern_vector_reads_as_its_full_classes(self):
        # rank 2 on CP^3: B_3 lies past the vector's two classes, so its exact
        # value takes the one-r kernel, and the same value of (5, 6, 0) the S_3 pass
        _, rows = compare_exact_numeric(ChernVector(2, 3, (5, 6)), range(2, 4))
        assert rows == compare_exact_numeric((5, 6, 0), range(2, 4))[1]

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
        # a bound on the numeric path itself; the verdict has no imaginary-part limit
        imag_scale = 1e-8
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 8)
            coeffs = tuple(rng.randint(-10, 10) for _ in range(n))
            roots = find_roots(coeffs)
            limit = imag_scale * (1 + sum(abs(c) for c in coeffs))
            for r in range(1, n + 2):
                value = binomial_sum_numeric(coeffs, r, roots)
                assert abs(value.imag) < limit, (coeffs, r)

    def test_repeated_roots_never_disagree(self):
        # a k-fold root comes out only to about eps^(1/k), which leaves B_r
        # non-real and outside its tolerance: unreliable, never DISAGREE
        for classes in repeated_root_sample(2024):
            _, rows = compare_exact_numeric(classes, range(1, len(classes) + 2))
            assert all(row.agrees for row in rows), (classes, [row for row in rows if not row.agrees])

    @pytest.mark.parametrize("classes, status", [((5, 6, 0), "DISAGREE"), ((2, 1), "unreliable")],
                             ids=["distinct_roots", "double_root"])
    def test_exact_fault_at_r2(self, monkeypatch, classes, status):
        # B_2 one off on the exact side.  Distinct integer roots give a real
        # B_2, which reads DISAGREE; the double root of (y + 1)^2 gives a
        # non-real one, so the same fault reads unreliable there: the price
        # of never reading a float path's own error as a disagreement
        terms = kernels.schwarz_terms

        def shifted(coeffs, N):
            return [(r, num + den if r == 2 else num, den) for r, num, den in terms(coeffs, N)]

        monkeypatch.setattr(kernels, "schwarz_terms", shifted)
        _, (row, *_) = compare_exact_numeric(classes, range(2, len(classes) + 1))
        assert row.r == 2 and row.difference >= row.tolerance
        got = "unreliable" if row.flagged else "agree" if row.agrees else "DISAGREE"
        assert got == status, row

    def test_residual_certificate(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 8)
            coeffs = tuple(rng.randint(-10, 10) for _ in range(n))
            roots = find_roots(coeffs)
            assert roots.reliable == (roots.residual <= BACKWARD_TOL)
            assert roots.reliable, coeffs

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
