"""Kernel-level tests: exactness and oracle equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_census import _kernels_py as kpy
from bundle_census import kernels
from oracles import binom_sum_brute, elem_sym_brute, falling_factorial, power_sum_brute

# every case runs on _kernels_py; the single "python" id keeps the test
# names the suite has always reported
on_kernels = pytest.mark.parametrize("kern", [kpy], ids=["python"])


def test_library_calls_the_reference_kernels():
    # the cases below exercise _kernels_py; this pins that the library
    # runs the very same functions
    for name in ("schwarz_terms", "power_sums", "binomial_sum_num_den",
                 "stirling_row", "stirling_first"):
        assert getattr(kernels, name) is getattr(kpy, name), name
    assert kernels.backend_name() == "python"


@on_kernels
class TestStirling:
    def test_base_case(self, kern):
        assert kern.stirling_first(0, 0) == 1

    def test_row_three(self, kern):
        # x(x-1)(x-2) = x^3 - 3x^2 + 2x
        assert kern.stirling_first(3, 2) == -3
        assert kern.stirling_first(3, 1) == 2
        assert kern.stirling_row(3) == (0, 2, -3, 1)

    def test_domain_errors(self, kern):
        with pytest.raises(ValueError):
            kern.stirling_first(2, 3)
        with pytest.raises(ValueError):
            kern.stirling_first(-1, 0)
        with pytest.raises(ValueError):
            kern.stirling_first(3, -1)

    def test_row_sums_are_falling_factorials(self, kern):
        for r in range(0, 9):
            row = kern.stirling_row(r)
            for m in range(-10, 11):
                value = sum(row[k] * m**k for k in range(r + 1))
                assert value == falling_factorial(m, r), (r, m)

    def test_concurrent_table_growth(self, kern):
        # many threads force the same deep rows; the memo table must stay
        # consistent (rows are checked against a fresh serial computation)
        import threading

        results = []

        def worker():
            results.append(kern.stirling_row(60))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        want = results[0]
        assert all(row == want for row in results)
        # spot-check the row against the defining identity at x = 3
        assert sum(want[k] * 3**k for k in range(61)) == falling_factorial(3, 60)


@on_kernels
class TestPowerSums:
    def test_all_zero_roots(self, kern):
        assert kern.power_sums((0, 0, 0), 7) == [0] * 7

    def test_two_unit_coefficients(self, kern):
        assert kern.power_sums((1, 1), 2) == [1, -1]

    @given(
        roots=st.lists(st.integers(-20, 20), min_size=1, max_size=10),
        extra=st.integers(0, 4),
    )
    @settings(max_examples=200)
    def test_matches_direct_powering(self, kern, roots, extra):
        coeffs = elem_sym_brute(roots)
        R = len(roots) + extra
        got = kern.power_sums(coeffs, R)
        assert got == [power_sum_brute(roots, k) for k in range(1, R + 1)]

    @given(st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_huge_inputs_stay_exact(self, kern, roots):
        coeffs = elem_sym_brute(roots)
        got = kern.power_sums(coeffs, len(roots) + 2)
        assert got == [power_sum_brute(roots, k) for k in range(1, len(roots) + 3)]


@on_kernels
class TestBinomialSum:
    def test_zero_roots(self, kern):
        assert kern.binomial_sum_num_den((0, 0, 0), 4) == (0, 1)

    def test_roots_two_three(self, kern):
        # C(2,2) + C(3,2) = 1 + 3
        assert kern.binomial_sum_num_den((5, 6), 2) == (4, 1)

    def test_half_integral_case(self, kern):
        assert kern.binomial_sum_num_den((1, 1), 2) == (-1, 1)
        assert kern.binomial_sum_num_den((1, 1, 0), 3) == (1, 2)

    @given(
        roots=st.lists(st.integers(-12, 12), min_size=1, max_size=8),
        r=st.integers(1, 10),
    )
    @settings(max_examples=200)
    def test_integer_roots_give_integers(self, kern, roots, r):
        num, den = kern.binomial_sum_num_den(elem_sym_brute(roots), r)
        want = binom_sum_brute(roots, r)
        assert den == want.denominator == 1
        assert num == want


@on_kernels
class TestSchwarzTerms:
    def test_covers_two_through_n(self, kern):
        terms = kern.schwarz_terms((1, 2, 3, 4), 4)
        assert [t[0] for t in terms] == [2, 3, 4]

    def test_length_must_match(self, kern):
        with pytest.raises(ValueError):
            kern.schwarz_terms((1, 2), 3)

    def test_n_one_is_vacuous(self, kern):
        assert kern.schwarz_terms((5,), 1) == []

    @given(
        classes=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
    )
    @settings(max_examples=200)
    def test_agrees_with_binomial_sum(self, kern, classes):
        N = len(classes)
        terms = kern.schwarz_terms(tuple(classes), N)
        for r, num, den in terms:
            assert (num, den) == kern.binomial_sum_num_den(tuple(classes), r)
            assert den >= 1

